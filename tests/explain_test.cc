// Tests for EXPLAIN-style plan rendering (federation/explain.h): exact
// tree + JSON goldens of hand-built QueryPlans, the zero-candidate
// best()/root() regressions, and an integration pass over PlanQuery.

#include <gtest/gtest.h>

#include "core/sub_op.h"
#include "federation/explain.h"
#include "federation/intellisphere.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"

namespace intellisphere::fed {
namespace {

// --- Result-returning best()/root(): the zero-candidate regression --------

TEST(QueryPlanTest, BestOnEmptyPlanIsFailedPrecondition) {
  QueryPlan plan;  // default-constructed: no candidates
  auto best = plan.best();
  ASSERT_FALSE(best.ok());
  EXPECT_EQ(best.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(best.status().message().find("no candidates"), std::string::npos);
  auto root = plan.root();
  ASSERT_FALSE(root.ok());
  EXPECT_EQ(root.status().code(), StatusCode::kFailedPrecondition);
}

TEST(QueryPlanTest, BestWithEveryPlacementEliminatedIsFailedPrecondition) {
  // A join search whose every placement was eliminated: the plan keeps its
  // table leaves and the drops for EXPLAIN, but no candidate completed.
  QueryPlan plan;
  plan.nodes.resize(2);
  plan.nodes[0].system = "hive";
  plan.nodes[0].label = "T1";
  plan.nodes[0].relation_mask = 1;
  plan.nodes[1].system = "hive";
  plan.nodes[1].label = "T2";
  plan.nodes[1].relation_mask = 2;
  for (const char* system : {"hive", kTeradataSystemName}) {
    PrunedSubplan p;
    p.kind = PrunedSubplan::Kind::kEliminated;
    p.relation_mask = 3;
    p.system = system;
    p.reason = "engine cannot run joins";
    plan.pruned.push_back(p);
  }

  auto best = plan.best();
  ASSERT_FALSE(best.ok());
  EXPECT_EQ(best.status().code(), StatusCode::kFailedPrecondition);
  auto root = plan.root();
  ASSERT_FALSE(root.ok());
  EXPECT_EQ(root.status().code(), StatusCode::kFailedPrecondition);
  IntelliSphere sphere;
  EXPECT_EQ(sphere.ExecuteBest(plan).status().code(),
            StatusCode::kInvalidArgument);

  // EXPLAIN still reports why nothing survived.
  PlacementExplanation ex = ExplainQueryPlan(plan);
  EXPECT_EQ(ex.tree,
            "query plan: 0 candidates, 2 subplans dropped (costed=0 "
            "dp_entries=0)\n"
            "|- eliminated relations 0,1: engine cannot run joins\n"
            "`- eliminated relations 0,1: engine cannot run joins\n");
  EXPECT_NE(ex.json.find("\"tree\": null"), std::string::npos);
}

// --- Golden rendering ------------------------------------------------------

/// A join of two tables (T1 on hive, T2 on spark): the chosen join on
/// hive, costed down the fallback ladder by the sub-op formulas (algorithm
/// candidates and an eliminated algorithm), one alternative on spark
/// costed by the logical-op model through the online remedy, one
/// eliminated host and one dominated entry.
QueryPlan GoldenPlan() {
  QueryPlan plan;
  plan.nodes.resize(5);
  QueryPlanNode& t1 = plan.nodes[0];
  t1.system = "hive";
  t1.label = "T1";
  t1.relation_mask = 1;
  t1.output_rows = 1000;
  t1.output_row_bytes = 100;
  QueryPlanNode& t2 = plan.nodes[1];
  t2.system = "spark";
  t2.label = "T2";
  t2.relation_mask = 2;
  t2.output_rows = 500;
  t2.output_row_bytes = 40;

  QueryPlanNode& hive = plan.nodes[2];
  hive.kind = QueryPlanNode::Kind::kJoin;
  hive.system = "hive";
  hive.relation_mask = 3;
  hive.output_rows = 800;
  hive.output_row_bytes = 64;
  hive.transfer_seconds = 1.5;
  hive.operator_seconds = 2.5;
  hive.subtree_seconds = 4.0;
  hive.children = {0, 1};
  QueryPlanNode& spark = plan.nodes[3];
  spark = hive;
  spark.system = "spark";
  spark.transfer_seconds = 6.0;
  spark.operator_seconds = 4.25;
  spark.subtree_seconds = 10.25;
  spark.approach = "logical_op";
  spark.used_remedy = true;
  spark.remedy_alpha = 0.5;
  hive.approach = "sub_op";
  hive.algorithm = "shuffle_join";
  hive.algorithm_candidates = {{"shuffle_join", 2.5}, {"broadcast_join", 3.0}};
  hive.eliminated_algorithms = {
      {"skew_join", "hot-key fraction below the skew threshold"}};
  hive.fell_back_reason = "breaker_open:sub_op";
  plan.candidates = {{2, 0.0, 4.0}, {3, 0.0, 10.25}};

  // The dropped subplans refer to arena nodes: the eliminated join on
  // presto names its inputs T1 and T2, and the dominated hive join is a
  // costed node (T2 on the left) that lost to the chosen one.
  QueryPlanNode& swapped = plan.nodes[4];
  swapped = hive;
  swapped.transfer_seconds = 2.0;
  swapped.subtree_seconds = 4.5;
  swapped.children = {1, 0};
  plan.pruned.resize(2);
  PrunedSubplan& eliminated = plan.pruned[0];
  eliminated.kind = PrunedSubplan::Kind::kEliminated;
  eliminated.relation_mask = 3;
  eliminated.system = "presto";
  eliminated.inputs = {0, 1};
  eliminated.reason = "engine cannot run joins";
  PrunedSubplan& dominated = plan.pruned[1];
  dominated.kind = PrunedSubplan::Kind::kDominated;
  dominated.relation_mask = 3;
  dominated.system = "hive";
  dominated.subtree_seconds = 4.5;
  dominated.node = 4;
  plan.candidates_costed = 4;
  plan.dp_entries = 4;
  return plan;
}

TEST(ExplainQueryPlanTest, GoldenTree) {
  PlacementExplanation ex = ExplainQueryPlan(GoldenPlan());
  const std::string expected =
      "query plan: 2 candidates, 2 subplans dropped (costed=4 "
      "dp_entries=4)\n"
      "|- chosen: total=4s (result transfer=0s)\n"
      "|  `- join@hive (relations 0,1): subtree=4s (transfer=1.5s "
      "operator=2.5s) rows=800 approach=sub_op algorithm=shuffle_join\n"
      "|     |- candidate shuffle_join: 2.5s\n"
      "|     |- candidate broadcast_join: 3s\n"
      "|     |- eliminated skew_join: hot-key fraction below the skew "
      "threshold\n"
      "|     |- degraded: breaker_open:sub_op\n"
      "|     |- table T1@hive: rows=1000 row_bytes=100\n"
      "|     `- table T2@spark: rows=500 row_bytes=40\n"
      "|- candidate 2: total=10.25s (result transfer=0s)\n"
      "|  `- join@spark (relations 0,1): subtree=10.25s (transfer=6s "
      "operator=4.25s) rows=800 approach=logical_op\n"
      "|     |- online remedy: alpha=0.5\n"
      "|     |- table T1@hive: rows=1000 row_bytes=100\n"
      "|     `- table T2@spark: rows=500 row_bytes=40\n"
      "|- eliminated join({T1}@hive, {T2}@spark) at presto: engine cannot "
      "run joins\n"
      "`- dominated join({T2}@spark, {T1}@hive) at hive: dominated by a "
      "cheaper subplan for the same relations\n";
  EXPECT_EQ(ex.tree, expected);
}

TEST(ExplainQueryPlanTest, GoldenJson) {
  PlacementExplanation ex = ExplainQueryPlan(GoldenPlan());
  const std::string expected = R"({
  "query_plan": {
    "candidates_costed": 4,
    "dp_entries": 4,
    "best_total_seconds": 4,
    "tree": {
      "kind": "join",
      "system": "hive",
      "label": "",
      "relation_mask": 3,
      "output_rows": 800,
      "output_row_bytes": 64,
      "transfer_seconds": 1.5,
      "operator_seconds": 2.5,
      "subtree_seconds": 4,
      "approach": "sub_op",
      "algorithm": "shuffle_join",
      "used_remedy": false,
      "remedy_alpha": 1,
      "fell_back_reason": "breaker_open:sub_op",
      "algorithm_candidates": [
        {"algorithm": "shuffle_join", "seconds": 2.5},
        {"algorithm": "broadcast_join", "seconds": 3}
      ],
      "eliminated_algorithms": [
        {"algorithm": "skew_join", "reason": "hot-key fraction below the skew threshold"}
      ],
      "children": [
        {
          "kind": "table",
          "system": "hive",
          "label": "T1",
          "relation_mask": 1,
          "output_rows": 1000,
          "output_row_bytes": 100,
          "transfer_seconds": 0,
          "operator_seconds": 0,
          "subtree_seconds": 0,
          "approach": "",
          "algorithm": "",
          "used_remedy": false,
          "remedy_alpha": 1,
          "fell_back_reason": "",
          "algorithm_candidates": [],
          "eliminated_algorithms": [],
          "children": []
        },
        {
          "kind": "table",
          "system": "spark",
          "label": "T2",
          "relation_mask": 2,
          "output_rows": 500,
          "output_row_bytes": 40,
          "transfer_seconds": 0,
          "operator_seconds": 0,
          "subtree_seconds": 0,
          "approach": "",
          "algorithm": "",
          "used_remedy": false,
          "remedy_alpha": 1,
          "fell_back_reason": "",
          "algorithm_candidates": [],
          "eliminated_algorithms": [],
          "children": []
        }
      ]
    },
    "candidates": [
      {"rank": 1, "system": "hive", "result_transfer_seconds": 0, "total_seconds": 4},
      {"rank": 2, "system": "spark", "result_transfer_seconds": 0, "total_seconds": 10.25}
    ],
    "pruned": [
      {"kind": "eliminated", "stage": "join", "relation_mask": 3, "system": "presto", "via_system": "", "subtree_seconds": 0, "reason": "engine cannot run joins", "description": "join({T1}@hive, {T2}@spark) at presto"},
      {"kind": "dominated", "stage": "join", "relation_mask": 3, "system": "hive", "via_system": "", "subtree_seconds": 4.5, "reason": "dominated by a cheaper subplan for the same relations", "description": "join({T2}@spark, {T1}@hive) at hive"}
    ]
  }
}
)";
  EXPECT_EQ(ex.json, expected);
}

TEST(ExplainQueryPlanTest, GoldenTreeForJoinThenAggregate) {
  // One candidate: an aggregation over a join of two hive tables, all on
  // hive, with the answer relayed to Teradata.
  QueryPlan plan;
  plan.nodes.resize(4);
  for (int i = 0; i < 2; ++i) {
    QueryPlanNode& t = plan.nodes[static_cast<size_t>(i)];
    t.system = "hive";
    t.label = i == 0 ? "T1" : "T2";
    t.relation_mask = uint64_t{1} << i;
    t.output_rows = i == 0 ? 1000 : 500;
    t.output_row_bytes = i == 0 ? 100 : 40;
  }
  QueryPlanNode& join = plan.nodes[2];
  join.kind = QueryPlanNode::Kind::kJoin;
  join.system = "hive";
  join.relation_mask = 3;
  join.output_rows = 2000;
  join.output_row_bytes = 64;
  join.transfer_seconds = 1.0;
  join.operator_seconds = 2.0;
  join.subtree_seconds = 3.0;
  join.approach = "sub_op";
  join.algorithm = "shuffle_join";
  join.children = {0, 1};
  QueryPlanNode& agg = plan.nodes[3];
  agg.kind = QueryPlanNode::Kind::kAggregate;
  agg.system = "hive";
  agg.relation_mask = 3;
  agg.output_rows = 10;
  agg.output_row_bytes = 16;
  agg.transfer_seconds = 0.0;
  agg.operator_seconds = 0.5;
  agg.subtree_seconds = 3.5;
  agg.approach = "sub_op";
  agg.algorithm = "hash_aggregation";
  agg.children = {2};
  plan.candidates = {{3, 0.25, 3.75}};
  plan.candidates_costed = 2;
  plan.dp_entries = 3;

  PlacementExplanation ex = ExplainQueryPlan(plan);
  const std::string expected =
      "query plan: 1 candidates, 0 subplans dropped (costed=2 "
      "dp_entries=3)\n"
      "`- chosen: total=3.75s (result transfer=0.25s)\n"
      "   `- aggregate@hive (relations 0,1): subtree=3.5s (transfer=0s "
      "operator=0.5s) rows=10 approach=sub_op algorithm=hash_aggregation\n"
      "      `- join@hive (relations 0,1): subtree=3s (transfer=1s "
      "operator=2s) rows=2000 approach=sub_op algorithm=shuffle_join\n"
      "         |- table T1@hive: rows=1000 row_bytes=100\n"
      "         `- table T2@hive: rows=500 row_bytes=40\n";
  EXPECT_EQ(ex.tree, expected);
  EXPECT_NE(ex.json.find("\"kind\": \"aggregate\""), std::string::npos);
  EXPECT_NE(ex.json.find("\"algorithm\": \"shuffle_join\""),
            std::string::npos);
  EXPECT_NE(ex.json.find("\"result_transfer_seconds\": 0.25, "
                         "\"total_seconds\": 3.75"),
            std::string::npos);
}

// --- Integration: explaining a real planner's output -----------------------

core::OpenboxInfo InfoFor(const remote::HiveEngine& engine) {
  core::OpenboxInfo info;
  info.dfs_block_bytes = engine.cluster().config().dfs_block_bytes;
  info.total_slots = engine.cluster().config().TotalSlots();
  info.num_worker_nodes = engine.cluster().config().num_worker_nodes;
  info.task_memory_bytes = engine.cluster().config().TaskMemoryBytes();
  info.broadcast_threshold_bytes =
      engine.options().broadcast_threshold_factor * info.task_memory_bytes;
  return info;
}

core::CostingProfile ProfileFor(remote::HiveEngine* hive) {
  core::CalibrationOptions copts;
  copts.record_sizes = {40, 250, 1000};
  copts.record_counts = {1000000, 4000000};
  auto run = core::CalibrateSubOps(hive, InfoFor(*hive), copts).value();
  return core::CostingProfile::SubOpOnly(
      core::SubOpCostEstimator::ForHive(std::move(run.catalog)).value());
}

TEST(ExplainIntegrationTest, PlannedJoinExplainsWithProvenance) {
  IntelliSphere sphere;
  auto hive = remote::HiveEngine::CreateDefault("hive", 61);
  auto* hive_raw = hive.get();
  ASSERT_TRUE(sphere
                  .RegisterRemoteSystem(std::move(hive), ProfileFor(hive_raw),
                                        ConnectorParams{})
                  .ok());
  auto big = rel::SyntheticTableDef(8000000, 250).value();
  big.location = "hive";
  ASSERT_TRUE(sphere.RegisterTable(big).ok());
  auto small = rel::SyntheticTableDef(100000, 100).value();
  small.location = kTeradataSystemName;
  ASSERT_TRUE(sphere.RegisterTable(small).ok());

  QuerySpec spec;
  spec.relations = {{"T8000000_250", 1.0, 32}, {"T100000_100", 1.0, 32}};
  spec.joins = {{0, 1, "a1", 1.0}};
  auto plan = sphere.PlanQuery(spec).value();
  PlacementExplanation ex = ExplainQueryPlan(plan);

  // The tree shows the chosen plan and the alternative on both hosts.
  EXPECT_NE(ex.tree.find("chosen: total="), std::string::npos);
  EXPECT_NE(ex.tree.find("candidate 2: total="), std::string::npos);
  EXPECT_NE(ex.tree.find("join@hive"), std::string::npos);
  EXPECT_NE(ex.tree.find("join@teradata"), std::string::npos);
  // The remote placement carries sub-op provenance: chosen algorithm plus
  // at least one surviving candidate line.
  EXPECT_NE(ex.tree.find("approach=sub_op"), std::string::npos);
  EXPECT_NE(ex.tree.find("|- candidate "), std::string::npos);
  // JSON agrees on the same facts.
  EXPECT_NE(ex.json.find("\"kind\": \"join\""), std::string::npos);
  EXPECT_NE(ex.json.find("\"system\": \"teradata\""), std::string::npos);
  EXPECT_NE(ex.json.find("\"approach\": \"sub_op\""), std::string::npos);
  EXPECT_NE(ex.json.find("{\"algorithm\": "), std::string::npos);

  // Rendering is pure: explaining twice gives identical output.
  PlacementExplanation again = ExplainQueryPlan(plan);
  EXPECT_EQ(ex.tree, again.tree);
  EXPECT_EQ(ex.json, again.json);
}

TEST(ExplainIntegrationTest, JoinThenAggregatePlanExplains) {
  IntelliSphere sphere;
  auto hive = remote::HiveEngine::CreateDefault("hive", 62);
  auto* hive_raw = hive.get();
  ASSERT_TRUE(sphere
                  .RegisterRemoteSystem(std::move(hive), ProfileFor(hive_raw),
                                        ConnectorParams{})
                  .ok());
  auto left = rel::SyntheticTableDef(8000000, 250).value();
  left.location = "hive";
  ASSERT_TRUE(sphere.RegisterTable(left).ok());
  auto right = rel::SyntheticTableDef(2000000, 100).value();
  right.location = "hive";
  ASSERT_TRUE(sphere.RegisterTable(right).ok());

  // Each candidate renders its aggregation over its join over the tables,
  // with the result relay to Teradata.
  QuerySpec spec;
  spec.relations = {{"T8000000_250", 1.0, 32}, {"T2000000_100", 1.0, 32}};
  spec.joins = {{0, 1, "a1", 0.5}};
  spec.aggregate = QuerySpec::Aggregate{0, "a100", 1};
  spec.result_to_master = true;
  auto plan = sphere.PlanQuery(spec).value();
  PlacementExplanation ex = ExplainQueryPlan(plan);
  EXPECT_NE(ex.tree.find("chosen: total="), std::string::npos);
  EXPECT_NE(ex.tree.find("aggregate@"), std::string::npos);
  EXPECT_NE(ex.tree.find("join@"), std::string::npos);
  EXPECT_NE(ex.tree.find("table T2000000_100@hive"), std::string::npos);
  EXPECT_NE(ex.json.find("\"kind\": \"aggregate\""), std::string::npos);
  EXPECT_NE(ex.json.find("\"kind\": \"join\""), std::string::npos);

  // Rendering is pure: explaining twice gives identical output.
  PlacementExplanation again = ExplainQueryPlan(plan);
  EXPECT_EQ(ex.tree, again.tree);
  EXPECT_EQ(ex.json, again.json);
}

}  // namespace
}  // namespace intellisphere::fed
