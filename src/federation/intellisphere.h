// The IntelliSphere federation facade (Figure 1): Teradata as the master
// engine, remote systems registered with costing profiles and QueryGrid
// connectors, foreign tables registered with their location, and the
// cost-based planner (PlanQuery) that places every operator of a query on
// one of the paper's candidate hosts — each remote system owning (part of)
// the input data, or Teradata itself — costing each placement as
//   transfer-in (QueryGrid relay) + estimated operator elapsed time.

#ifndef INTELLISPHERE_FEDERATION_INTELLISPHERE_H_
#define INTELLISPHERE_FEDERATION_INTELLISPHERE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/hybrid.h"
#include "engine/local_cost_model.h"
#include "federation/plan_search.h"
#include "federation/querygrid.h"
#include "relational/catalog.h"
#include "relational/query.h"
#include "remote/remote_system.h"
#include "serving/admission.h"
#include "serving/service.h"

namespace intellisphere::fed {

/// The federation facade.
class IntelliSphere {
 public:
  IntelliSphere() = default;
  explicit IntelliSphere(const eng::LocalCostParams& local_params)
      : local_model_(local_params) {}

  /// Registers a remote system: the live engine handle, its costing
  /// profile, and its QueryGrid connector.
  [[nodiscard]] Status RegisterRemoteSystem(std::unique_ptr<remote::RemoteSystem> system,
                                            core::CostingProfile profile,
                                            ConnectorParams connector);

  /// Registers a (possibly foreign) table; `def.location` must be
  /// "teradata" or a registered remote system.
  [[nodiscard]] Status RegisterTable(rel::TableDef def);

  [[nodiscard]] Result<rel::TableDef> GetTable(const std::string& name) const;
  [[nodiscard]] Result<remote::RemoteSystem*> GetSystem(const std::string& name) const;
  std::vector<std::string> SystemNames() const;

  /// The unified planning entry point (DESIGN.md §15): runs the DP
  /// join-order x placement search over a declarative QuerySpec and
  /// returns the full QueryPlan — chosen tree, every completed candidate
  /// (cheapest first), and the subplans the search dropped. Tables are
  /// resolved against the catalog in relation order (NotFound for unknown
  /// names); a structurally bad spec is InvalidArgument. All operator
  /// costing goes through one batched-costing call per DP level — the
  /// attached EstimationService's EstimateBatch when present (cache +
  /// batched-GEMM path), CostEstimator::EstimateBatch otherwise; the
  /// master engine's analytic model is evaluated inline. Planning always
  /// collects full provenance (the plan is what EXPLAIN renders); the
  /// context contributes the deployment clock, an optional trace sink (one
  /// `plan.candidate` span per costed or eliminated placement under a
  /// `plan.query` root), a metrics registry, and a choice-policy override.
  [[nodiscard]] Result<QueryPlan> PlanQuery(
      const QuerySpec& spec, const core::EstimateContext& ctx = {},
      const PlannerOptions& options = {}) const;

  /// Executes the chosen plan's root operator on the actual (simulated)
  /// system and feeds the observed cost back into that system's costing
  /// profile log; a root placed on Teradata is "executed" by the master
  /// engine's analytic model. Returns the observed elapsed seconds of the
  /// operator itself. Only single-operator plans (a root whose children
  /// are all base tables) can be executed: an empty plan, a bare-table
  /// root, or a multi-operator tree is InvalidArgument.
  [[nodiscard]] Result<double> ExecuteBest(const QueryPlan& plan);

  /// Routes the planners' remote cost estimates through a serving-layer
  /// cache. The service must wrap *this* facade's cost_estimator()
  /// (InvalidArgument otherwise) and must outlive the facade; the local
  /// Teradata model is analytic and stays uncached. Detach with nullptr.
  /// Cached planning is bit-identical to uncached planning — the cache
  /// keys on everything an estimate depends on, and retraining bumps the
  /// estimator's model epoch, which invalidates on read.
  [[nodiscard]] Status AttachEstimationService(
      const serving::EstimationService* service);

  /// Puts the attached estimation service behind an admission controller:
  /// the planners' remote cost batches are admitted, degraded, or shed per
  /// the controller's ladder (DESIGN.md §17), with tenant/priority/deadline
  /// read from the planning EstimateContext. The controller must wrap the
  /// currently attached service (InvalidArgument otherwise — attach the
  /// service first) and must outlive the facade. Detach with nullptr.
  /// A shed batch surfaces as the plan search's error (ResourceExhausted /
  /// DeadlineExceeded): an overloaded serving layer fails planning fast
  /// instead of stalling it.
  [[nodiscard]] Status AttachAdmissionController(
      const serving::AdmissionController* admission);

  core::CostEstimator& cost_estimator() { return estimator_; }
  const core::CostEstimator& cost_estimator() const { return estimator_; }
  QueryGrid& query_grid() { return grid_; }
  const eng::LocalCostModel& local_model() const { return local_model_; }

 private:
  /// The DP search's batched-costing hook: one Result per request, in
  /// request order. Master-engine ("teradata") requests are evaluated
  /// inline on the analytic local model; remote requests go through the
  /// attached EstimationService::EstimateBatch when present (dedup, cache,
  /// batched GEMM), or are grouped per system through
  /// CostEstimator::EstimateBatch otherwise — both documented
  /// bit-identical to the scalar Estimate path. The returned estimates'
  /// approach strings for Teradata are conventionally "local" (set by the
  /// search via its ApproachLabel).
  std::vector<Result<core::HybridEstimate>> CostBatch(
      const std::vector<PlanCostRequest>& requests,
      const core::EstimateContext& ctx) const;

  eng::LocalCostModel local_model_;
  core::CostEstimator estimator_;
  const serving::EstimationService* serving_ = nullptr;
  const serving::AdmissionController* admission_ = nullptr;
  QueryGrid grid_;
  rel::Catalog catalog_;
  std::map<std::string, std::unique_ptr<remote::RemoteSystem>> systems_;
};

}  // namespace intellisphere::fed

#endif  // INTELLISPHERE_FEDERATION_INTELLISPHERE_H_
