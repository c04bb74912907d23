#include "harness/oracle.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "engine/local_cost_model.h"
#include "harness/common.h"
#include "harness/deployment.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"
#include "serving/estimate_cache.h"

namespace repobench {

namespace fed = intellisphere::fed;
namespace rel = intellisphere::rel;
namespace remote = intellisphere::remote;

namespace {

std::string MemoKey(const std::string& system, const rel::SqlOperator& op) {
  return intellisphere::serving::CanonicalCacheKey(system, op, std::nullopt,
                                                   false, false, 0);
}

}  // namespace

ExecutionOracle::ExecutionOracle(uint64_t seed,
                                 const intellisphere::eng::LocalCostModel& local)
    : local_(local) {
  engines_["hive"] =
      remote::HiveEngine::CreateDefault("hive", OracleEngineSeed(seed, "hive"));
  engines_["spark"] = remote::SparkEngine::CreateDefault(
      "spark", OracleEngineSeed(seed, "spark"));
}

Result<double> ExecutionOracle::Actual(const std::string& system,
                                       const rel::SqlOperator& op) {
  if (system == fed::kTeradataSystemName) return local_.EstimateSeconds(op);
  const std::string key = MemoKey(system, op);
  auto hit = memo_.find(key);
  if (hit != memo_.end()) return hit->second;
  auto engine = engines_.find(system);
  if (engine == engines_.end()) {
    return Status::NotFound("oracle has no engine '" + system + "'");
  }
  ISPHERE_ASSIGN_OR_RETURN(remote::QueryResult result,
                           engine->second->Execute(op));
  memo_.emplace(key, result.elapsed_seconds);
  return result.elapsed_seconds;
}

Result<double> ExecutionOracle::SubtreeCost(const fed::QueryPlan& plan,
                                            int node_index) {
  const fed::QueryPlanNode& node = plan.nodes[static_cast<size_t>(node_index)];
  double cost = node.transfer_seconds;
  if (node.kind != fed::QueryPlanNode::Kind::kTable) {
    ISPHERE_ASSIGN_OR_RETURN(double actual, Actual(node.system, node.op));
    cost += actual;
  }
  for (int child : node.children) {
    ISPHERE_ASSIGN_OR_RETURN(double sub, SubtreeCost(plan, child));
    cost += sub;
  }
  return cost;
}

Result<double> ExecutionOracle::CandidateCost(
    const fed::QueryPlan& plan, const fed::QueryPlanCandidate& candidate) {
  ISPHERE_ASSIGN_OR_RETURN(double cost, SubtreeCost(plan, candidate.root));
  return cost + candidate.result_transfer_seconds;
}

Result<double> ExecutionOracle::Regret(const fed::QueryPlan& plan) {
  if (plan.candidates.empty()) {
    return Status::FailedPrecondition("plan has no candidates");
  }
  double best = INFINITY;
  double chosen = 0.0;
  for (size_t i = 0; i < plan.candidates.size(); ++i) {
    ISPHERE_ASSIGN_OR_RETURN(double cost,
                             CandidateCost(plan, plan.candidates[i]));
    if (i == 0) chosen = cost;
    best = std::min(best, cost);
  }
  return chosen / best - 1.0;
}

Status ExecutionOracle::PlanQErrors(const fed::QueryPlan& plan,
                                    std::vector<double>* out) {
  std::set<std::string> seen;
  for (const fed::QueryPlanCandidate& c : plan.candidates) {
    std::vector<int> stack = {c.root};
    while (!stack.empty()) {
      const fed::QueryPlanNode& node =
          plan.nodes[static_cast<size_t>(stack.back())];
      stack.pop_back();
      for (int child : node.children) stack.push_back(child);
      if (node.kind == fed::QueryPlanNode::Kind::kTable ||
          node.system == fed::kTeradataSystemName) {
        continue;
      }
      if (!seen.insert(MemoKey(node.system, node.op)).second) continue;
      ISPHERE_ASSIGN_OR_RETURN(double actual, Actual(node.system, node.op));
      out->push_back(QError(node.operator_seconds, actual));
    }
  }
  return Status::OK();
}

}  // namespace repobench
