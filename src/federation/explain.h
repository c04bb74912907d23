// EXPLAIN-style rendering of a query plan: the full cost breakdown the DP
// search saw — per-node placement with transfer vs. operator seconds, the
// costing approach and algorithm behind every number, the surviving and
// eliminated algorithm candidates (with the applicability rule that killed
// each), online-remedy and degradation provenance, every completed
// alternative, and the subplans the search dropped with their reasons —
// as a human-readable tree and as JSON.
//
// Rendering is pure: it reads only the provenance-complete QueryPlan (the
// planner always collects full provenance), so an explanation can be
// produced for any plan after the fact, with no side channels and no
// re-estimation. Output is deterministic for a given plan (fixed number
// formatting), which is what the golden tests pin down.

#ifndef INTELLISPHERE_FEDERATION_EXPLAIN_H_
#define INTELLISPHERE_FEDERATION_EXPLAIN_H_

#include <string>

#include "federation/plan_search.h"

namespace intellisphere::fed {

/// Both renderings of one plan.
struct PlacementExplanation {
  std::string tree;  ///< human-readable tree, ASCII box-drawing
  std::string json;  ///< machine-readable JSON object
};

/// The text of one dropped subplan.
struct PrunedText {
  /// The candidate, e.g. "join({t0}@hive, {t1,t2}@spark) at teradata".
  std::string label;
  /// The estimator's message (eliminated) or the kind's fixed text.
  std::string reason;
};

/// Renders a PrunedSubplan's label and reason from the arena nodes it
/// refers to; subset labels list the tables of the referenced subtree's
/// kTable leaves, "{t0,t1,...}" in relation order. A record without a
/// valid node reference is labelled by its relation mask
/// ("relations 0,1").
PrunedText DescribePruned(const QueryPlan& plan, const PrunedSubplan& p);

/// Explains a DP search result (PlanQuery / SearchPlan): the chosen plan
/// tree rendered node by node (placement, transfer vs. operator seconds,
/// approach/algorithm provenance, algorithm candidates and eliminations,
/// remedy alpha, degradation), every completed alternative's tree, and
/// the subplans the search dropped — eliminated hosts, dominated DP
/// entries, prune_factor victims — with their reasons. The JSON form is
/// one top-level `query_plan` object (schema checked by
/// scripts/check_explain_json.py).
PlacementExplanation ExplainQueryPlan(const QueryPlan& plan);

}  // namespace intellisphere::fed

#endif  // INTELLISPHERE_FEDERATION_EXPLAIN_H_
