// The benchmark's quality oracle: runs operators on fresh simulated engines
// (seeded apart from the registered ones) and judges estimates and plans
// against what the engines report.
//
//   q-error  max(est/act, act/est) of an estimate against its operator's
//            executed elapsed time.
//   regret   a plan's executed cost over the cheapest completed
//            candidate's executed cost, minus 1. A candidate's executed
//            cost is the sum over its nodes of the QueryGrid transfer (as
//            the planner charged it) plus the node's executed operator
//            time, plus the final result relay. Teradata nodes execute at
//            the master engine's analytic model, the engine's own truth.
//
// Each distinct (system, operator) executes once and is memoized, in the
// order the caller asks, so a fixed input order gives fixed numbers.

#ifndef REPOBENCH_HARNESS_ORACLE_H_
#define REPOBENCH_HARNESS_ORACLE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "federation/intellisphere.h"
#include "federation/plan_search.h"
#include "relational/query.h"
#include "remote/remote_system.h"
#include "util/status.h"

namespace repobench {

using intellisphere::Result;
using intellisphere::Status;

class ExecutionOracle {
 public:
  /// Engines are created from `seed`; `local` prices Teradata nodes.
  ExecutionOracle(uint64_t seed,
                  const intellisphere::eng::LocalCostModel& local);

  /// Executed elapsed seconds of `op` on `system` (memoized).
  [[nodiscard]] Result<double> Actual(const std::string& system,
                                      const intellisphere::rel::SqlOperator& op);

  /// Executed cost of one completed candidate of `plan`.
  [[nodiscard]] Result<double> CandidateCost(
      const intellisphere::fed::QueryPlan& plan,
      const intellisphere::fed::QueryPlanCandidate& candidate);

  /// Regret of the plan's chosen candidate (candidates[0]).
  [[nodiscard]] Result<double> Regret(const intellisphere::fed::QueryPlan& plan);

  /// Appends the q-error of every remote operator node of every completed
  /// candidate, each distinct (system, operator) once per call.
  [[nodiscard]] Status PlanQErrors(const intellisphere::fed::QueryPlan& plan,
                                   std::vector<double>* out);

 private:
  [[nodiscard]] Result<double> SubtreeCost(
      const intellisphere::fed::QueryPlan& plan, int node);

  const intellisphere::eng::LocalCostModel& local_;
  std::map<std::string, std::unique_ptr<intellisphere::remote::RemoteSystem>>
      engines_;
  std::map<std::string, double> memo_;
};

}  // namespace repobench

#endif  // REPOBENCH_HARNESS_ORACLE_H_
