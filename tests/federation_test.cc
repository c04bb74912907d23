// Unit tests for the federation layer: QueryGrid transfer model and the
// IntelliSphere placement optimizer.

#include <gtest/gtest.h>

#include "core/sub_op.h"
#include "federation/intellisphere.h"
#include "federation/querygrid.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"

namespace intellisphere::fed {
namespace {

core::OpenboxInfo InfoFor(const remote::SimulatedEngineBase& engine,
                          double broadcast_factor) {
  core::OpenboxInfo info;
  info.dfs_block_bytes = engine.cluster().config().dfs_block_bytes;
  info.total_slots = engine.cluster().config().TotalSlots();
  info.num_worker_nodes = engine.cluster().config().num_worker_nodes;
  info.task_memory_bytes = engine.cluster().config().TaskMemoryBytes();
  info.broadcast_threshold_bytes = broadcast_factor * info.task_memory_bytes;
  return info;
}

core::CostingProfile ProfileFor(remote::HiveEngine* hive) {
  core::CalibrationOptions copts;
  copts.record_sizes = {40, 250, 1000};
  copts.record_counts = {1000000, 4000000};
  auto run = core::CalibrateSubOps(
                 hive, InfoFor(*hive, hive->options().broadcast_threshold_factor),
                 copts)
                 .value();
  return core::CostingProfile::SubOpOnly(
      core::SubOpCostEstimator::ForHive(std::move(run.catalog)).value());
}

TEST(QueryGridTest, TransferCostComponents) {
  QueryGrid grid;
  ConnectorParams p;
  p.setup_seconds = 1.0;
  p.per_record_us = 1.0;
  p.bandwidth_bytes_per_sec = 1e6;
  ASSERT_TRUE(grid.RegisterConnector("hive", p).ok());
  // 1e6 records x 100 B: 1 + 1 s marshalling + 100 s wire time.
  EXPECT_NEAR(grid.TransferSeconds("hive", 1000000, 100).value(), 102.0,
              1e-9);
  EXPECT_FALSE(grid.TransferSeconds("presto", 1, 1).ok());
  EXPECT_FALSE(grid.TransferSeconds("hive", -1, 1).ok());
}

TEST(QueryGridTest, PushdownReducesVolume) {
  QueryGrid grid;
  ConnectorParams p;
  p.pushdown_selectivity = 0.1;
  ASSERT_TRUE(grid.RegisterConnector("hive", p).ok());
  ConnectorParams full;
  QueryGrid grid2;
  ASSERT_TRUE(grid2.RegisterConnector("hive", full).ok());
  EXPECT_LT(grid.TransferSeconds("hive", 1000000, 100).value(),
            grid2.TransferSeconds("hive", 1000000, 100).value());
}

TEST(QueryGridTest, RelayGoesThroughTeradata) {
  QueryGrid grid;
  ASSERT_TRUE(grid.RegisterConnector("hive", ConnectorParams{}).ok());
  ASSERT_TRUE(grid.RegisterConnector("spark", ConnectorParams{}).ok());
  double one_hop = grid.TransferSeconds("hive", 1000000, 100).value();
  // Remote-to-remote pays both hops.
  EXPECT_NEAR(grid.RelaySeconds("hive", "spark", 1000000, 100).value(),
              2 * one_hop, 1e-9);
  // To/from Teradata pays one hop.
  EXPECT_NEAR(
      grid.RelaySeconds("hive", kTeradataSystemName, 1000000, 100).value(),
      one_hop, 1e-9);
  EXPECT_DOUBLE_EQ(grid.RelaySeconds("hive", "hive", 1000000, 100).value(),
                   0.0);
}

TEST(QueryGridTest, RegistrationRules) {
  QueryGrid grid;
  EXPECT_FALSE(grid.RegisterConnector(kTeradataSystemName, {}).ok());
  ASSERT_TRUE(grid.RegisterConnector("hive", {}).ok());
  EXPECT_EQ(grid.RegisterConnector("hive", {}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(grid.HasConnector("hive"));
}

class IntelliSphereTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto hive = remote::HiveEngine::CreateDefault("hive", 31);
    hive_ = hive.get();
    ASSERT_TRUE(sphere_
                    .RegisterRemoteSystem(std::move(hive),
                                          ProfileFor(hive_), ConnectorParams{})
                    .ok());
    auto big = rel::SyntheticTableDef(8000000, 250).value();
    big.location = "hive";
    ASSERT_TRUE(sphere_.RegisterTable(big).ok());
    auto small = rel::SyntheticTableDef(100000, 100).value();
    small.location = kTeradataSystemName;
    ASSERT_TRUE(sphere_.RegisterTable(small).ok());
    join_spec_.relations = {{"T8000000_250", 1.0, 32},
                            {"T100000_100", 1.0, 32}};
    join_spec_.joins = {{0, 1, "a1", 1.0}};
    agg_spec_.relations = {{"T8000000_250", 1.0, kFullRowWidth}};
    agg_spec_.aggregate = QuerySpec::Aggregate{0, "a100", 1};
  }

  IntelliSphere sphere_;
  remote::HiveEngine* hive_ = nullptr;
  /// big JOIN small ON a1, 32-byte projections.
  QuerySpec join_spec_;
  /// big GROUP BY a100 (80k groups) with one SUM.
  QuerySpec agg_spec_;
};

TEST_F(IntelliSphereTest, RegistrationValidation) {
  auto orphan = rel::SyntheticTableDef(1000, 40).value();
  orphan.location = "presto";  // unregistered
  EXPECT_FALSE(sphere_.RegisterTable(orphan).ok());
  EXPECT_FALSE(sphere_.GetTable("nope").ok());
  EXPECT_TRUE(sphere_.GetSystem("hive").ok());
  EXPECT_FALSE(sphere_.GetSystem(kTeradataSystemName).ok());
  EXPECT_EQ(sphere_.SystemNames(), std::vector<std::string>{"hive"});
}

TEST_F(IntelliSphereTest, PlanJoinEnumeratesHostsAndSorts) {
  auto plan = sphere_.PlanQuery(join_spec_).value();
  // Candidates: hive (owns the big table) and teradata.
  ASSERT_EQ(plan.candidates.size(), 2u);
  for (size_t i = 1; i < plan.candidates.size(); ++i) {
    EXPECT_LE(plan.candidates[i - 1].total_seconds,
              plan.candidates[i].total_seconds);
  }
  // Moving the 2 GB table to Teradata is costed as transfer.
  for (const auto& c : plan.candidates) {
    const QueryPlanNode& root = plan.nodes[static_cast<size_t>(c.root)];
    if (root.system == kTeradataSystemName) {
      EXPECT_GT(root.transfer_seconds, 1.0);
    } else {
      EXPECT_EQ(root.system, "hive");
      // Only the small Teradata-side table moves to hive.
      EXPECT_LT(root.transfer_seconds, 10.0);
    }
  }
}

TEST_F(IntelliSphereTest, BigRemoteInputFavorsRemoteExecution) {
  // Shipping 2 GB out of hive to join with a 10 MB table would be absurd;
  // the optimizer should place the join on hive.
  auto plan = sphere_.PlanQuery(join_spec_).value();
  EXPECT_EQ(plan.root().value()->system, "hive");
}

TEST_F(IntelliSphereTest, TinyLocalInputsFavorTeradata) {
  auto a = rel::SyntheticTableDef(20000, 40).value();
  a.location = kTeradataSystemName;
  a.name = "local_a";
  auto b = rel::SyntheticTableDef(10000, 40).value();
  b.location = kTeradataSystemName;
  b.name = "local_b";
  ASSERT_TRUE(sphere_.RegisterTable(a).ok());
  ASSERT_TRUE(sphere_.RegisterTable(b).ok());
  QuerySpec spec;
  spec.relations = {{"local_a", 1.0, 32}, {"local_b", 1.0, 32}};
  spec.joins = {{0, 1, "a1", 1.0}};
  auto plan = sphere_.PlanQuery(spec).value();
  EXPECT_EQ(plan.root().value()->system, kTeradataSystemName);
}

TEST_F(IntelliSphereTest, PlanAggConsidersOwnerAndTeradata) {
  // A strongly shrinking aggregation (80k groups) is far cheaper to run
  // where the 2 GB input lives than after shipping it to Teradata.
  QuerySpec spec = agg_spec_;
  spec.aggregate->num_aggregates = 2;
  auto plan = sphere_.PlanQuery(spec).value();
  ASSERT_EQ(plan.candidates.size(), 2u);
  const QueryPlanNode* root = plan.root().value();
  EXPECT_EQ(root->system, "hive");
  EXPECT_EQ(root->op.type, rel::OperatorType::kAggregation);
  EXPECT_EQ(root->op.agg.output_rows, 80000);
}

TEST_F(IntelliSphereTest, ExecuteBestRunsOnChosenSystem) {
  auto plan = sphere_.PlanQuery(agg_spec_).value();
  const QueryPlanNode best = *plan.root().value();
  ASSERT_EQ(best.system, "hive");
  int64_t before = hive_->queries_executed();
  double elapsed = sphere_.ExecuteBest(plan).value();
  EXPECT_GT(elapsed, 0.0);
  EXPECT_EQ(hive_->queries_executed(), before + 1);
  // The estimate is in the same ballpark as the observed execution.
  EXPECT_NEAR(best.operator_seconds, elapsed,
              0.6 * std::max(elapsed, best.operator_seconds));
}

TEST_F(IntelliSphereTest, ExecuteBestRejectsEmptyAndMultiOperatorPlans) {
  EXPECT_EQ(sphere_.ExecuteBest(QueryPlan{}).status().code(),
            StatusCode::kInvalidArgument);
  // A bare base table has no operator to run.
  QueryPlan table_only;
  table_only.nodes.resize(1);
  table_only.candidates = {{0, 0.0, 0.0}};
  EXPECT_EQ(sphere_.ExecuteBest(table_only).status().code(),
            StatusCode::kInvalidArgument);
  // A join-then-aggregate plan's root has a join child: not one operator.
  QuerySpec spec = join_spec_;
  spec.aggregate = QuerySpec::Aggregate{0, "a100", 1};
  auto plan = sphere_.PlanQuery(spec).value();
  const int64_t before = hive_->queries_executed();
  EXPECT_EQ(sphere_.ExecuteBest(plan).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(hive_->queries_executed(), before);
}

TEST_F(IntelliSphereTest, RejectsDuplicateAndReservedRegistrations) {
  auto another = remote::HiveEngine::CreateDefault("hive", 32);
  auto* raw = another.get();
  EXPECT_EQ(sphere_
                .RegisterRemoteSystem(std::move(another), ProfileFor(raw),
                                      ConnectorParams{})
                .code(),
            StatusCode::kAlreadyExists);
  auto reserved = remote::HiveEngine::CreateDefault(kTeradataSystemName, 33);
  auto* raw2 = reserved.get();
  EXPECT_FALSE(sphere_
                   .RegisterRemoteSystem(std::move(reserved),
                                         ProfileFor(raw2), ConnectorParams{})
                   .ok());
}

TEST(IntelliSphereMultiSystemTest, JoinAcrossTwoRemotes) {
  // The paper's example: R in Hive, S in another system; candidates are
  // Hive, the other system, and Teradata.
  IntelliSphere sphere;
  auto hive = remote::HiveEngine::CreateDefault("hive", 41);
  auto* hive_raw = hive.get();
  ASSERT_TRUE(sphere
                  .RegisterRemoteSystem(std::move(hive), ProfileFor(hive_raw),
                                        ConnectorParams{})
                  .ok());
  auto spark = remote::SparkEngine::CreateDefault("spark", 42);
  auto* spark_raw = spark.get();
  core::CalibrationOptions copts;
  copts.record_sizes = {40, 250, 1000};
  copts.record_counts = {1000000, 4000000};
  auto run = core::CalibrateSubOps(
                 spark_raw,
                 InfoFor(*spark_raw,
                         spark_raw->options().broadcast_threshold_factor),
                 copts)
                 .value();
  ASSERT_TRUE(
      sphere
          .RegisterRemoteSystem(
              std::move(spark),
              core::CostingProfile::SubOpOnly(
                  core::SubOpCostEstimator::ForHive(std::move(run.catalog))
                      .value()),
              ConnectorParams{})
          .ok());

  auto r = rel::SyntheticTableDef(8000000, 250).value();
  r.location = "hive";
  ASSERT_TRUE(sphere.RegisterTable(r).ok());
  auto s = rel::SyntheticTableDef(2000000, 100).value();
  s.location = "spark";
  ASSERT_TRUE(sphere.RegisterTable(s).ok());

  QuerySpec spec;
  spec.relations = {{"T8000000_250", 1.0, 32}, {"T2000000_100", 1.0, 32}};
  spec.joins = {{0, 1, "a1", 0.5}};
  auto plan = sphere.PlanQuery(spec).value();
  EXPECT_EQ(plan.candidates.size(), 3u);
  std::set<std::string> hosts;
  for (const auto& c : plan.candidates) {
    hosts.insert(plan.nodes[static_cast<size_t>(c.root)].system);
  }
  EXPECT_TRUE(hosts.count("hive"));
  EXPECT_TRUE(hosts.count("spark"));
  EXPECT_TRUE(hosts.count(kTeradataSystemName));
}

TEST_F(IntelliSphereTest, ClockOnlyPlannerContextsRecordGlobalCounters) {
  // Planner calls with a clock-only context (AtTime / default) carry a null
  // registry, which resolves to Global() — such callers must keep feeding
  // the ambient plan.* counters.
  Counter* costed =
      MetricsRegistry::Global().GetCounter("plan.candidates_costed");
  const int64_t before = costed->value();
  QuerySpec scan;
  scan.relations = {{"T8000000_250", 0.5, 32}};
  QuerySpec pipeline = join_spec_;
  pipeline.aggregate = QuerySpec::Aggregate{0, "a100", 1};
  pipeline.result_to_master = true;
  int64_t expected = 0;
  for (const QuerySpec& spec : {join_spec_, agg_spec_, scan, pipeline}) {
    auto plan = sphere_.PlanQuery(spec, core::EstimateContext::AtTime(0.0));
    ASSERT_TRUE(plan.ok());
    expected += plan.value().candidates_costed;
  }
  // Every placement each search costed reached the ambient counter.
  EXPECT_EQ(costed->value() - before, expected);
}

}  // namespace
}  // namespace intellisphere::fed
