// Tests for multi-operator pipeline planning: join followed by aggregation
// where the intermediate result may stay on the system that produced it.

#include <gtest/gtest.h>

#include "core/sub_op.h"
#include "federation/intellisphere.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"

namespace intellisphere::fed {
namespace {

core::OpenboxInfo InfoFor(const remote::SimulatedEngineBase& e) {
  core::OpenboxInfo info;
  info.dfs_block_bytes = e.cluster().config().dfs_block_bytes;
  info.total_slots = e.cluster().config().TotalSlots();
  info.num_worker_nodes = e.cluster().config().num_worker_nodes;
  info.task_memory_bytes = e.cluster().config().TaskMemoryBytes();
  // The expert records the engine's auto-broadcast threshold; leaving it
  // unset would let the worst-case policy price broadcasts the engine
  // would never attempt.
  info.broadcast_threshold_bytes = 0.02 * info.task_memory_bytes;
  return info;
}

core::CostingProfile ProfileFor(remote::SimulatedEngineBase* engine) {
  core::CalibrationOptions copts;
  copts.record_sizes = {40, 250, 1000};
  copts.record_counts = {1000000, 4000000};
  auto run = core::CalibrateSubOps(engine, InfoFor(*engine), copts).value();
  return core::CostingProfile::SubOpOnly(
      core::SubOpCostEstimator::ForHive(std::move(run.catalog)).value());
}

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto hive = remote::HiveEngine::CreateDefault("hive", 81);
    auto* hive_raw = hive.get();
    ASSERT_TRUE(sphere_
                    .RegisterRemoteSystem(std::move(hive),
                                          ProfileFor(hive_raw),
                                          ConnectorParams{})
                    .ok());
    auto spark = remote::SparkEngine::CreateDefault("spark", 82);
    auto* spark_raw = spark.get();
    ASSERT_TRUE(sphere_
                    .RegisterRemoteSystem(std::move(spark),
                                          ProfileFor(spark_raw),
                                          ConnectorParams{})
                    .ok());
    auto r = rel::SyntheticTableDef(8000000, 250).value();
    r.location = "hive";
    ASSERT_TRUE(sphere_.RegisterTable(r).ok());
    auto s = rel::SyntheticTableDef(2000000, 100).value();
    s.location = "spark";
    ASSERT_TRUE(sphere_.RegisterTable(s).ok());
    spec_.relations = {{"T8000000_250", 1.0, 32}, {"T2000000_100", 1.0, 32}};
    spec_.joins = {{0, 1, "a1", 0.5}};
    spec_.aggregate = QuerySpec::Aggregate{0, "a10", 2};
    spec_.result_to_master = true;
  }

  IntelliSphere sphere_;
  /// Join the two tables (32-byte projections, extra selectivity 0.5),
  /// GROUP BY a10 with two SUMs, relay the answer to Teradata.
  QuerySpec spec_;
};

TEST_F(PipelineTest, EnumeratesJoinAggPlacements) {
  auto plan = sphere_.PlanQuery(spec_).value();
  // Join hosts: hive, spark, teradata; agg hosts: join host or teradata.
  // (join on teradata collapses the pair, so 5 distinct placements.)
  EXPECT_EQ(plan.candidates.size(), 5u);
  // Sorted cheapest-first.
  for (size_t i = 1; i < plan.candidates.size(); ++i) {
    EXPECT_LE(plan.candidates[i - 1].total_seconds,
              plan.candidates[i].total_seconds);
  }
  // Operator descriptors are consistent.
  const QueryPlanNode* agg = plan.root().value();
  const QueryPlanNode& join =
      plan.nodes[static_cast<size_t>(agg->children.front())];
  EXPECT_EQ(join.op.type, rel::OperatorType::kJoin);
  EXPECT_EQ(agg->op.type, rel::OperatorType::kAggregation);
  EXPECT_EQ(agg->op.agg.input.num_rows, join.op.join.output_rows);
  EXPECT_EQ(agg->op.agg.input.row_bytes, join.op.join.OutputRowBytes());
}

TEST_F(PipelineTest, TransferAccountingIsConsistent) {
  auto plan = sphere_.PlanQuery(spec_).value();
  for (const auto& c : plan.candidates) {
    const QueryPlanNode& agg = plan.nodes[static_cast<size_t>(c.root)];
    const QueryPlanNode& join =
        plan.nodes[static_cast<size_t>(agg.children.front())];
    // Keeping the aggregation with the join avoids intermediate transfer.
    if (agg.system == join.system) {
      EXPECT_DOUBLE_EQ(agg.transfer_seconds, 0.0);
    } else {
      EXPECT_GT(agg.transfer_seconds, 0.0);
    }
    // A remote final answer must come back to Teradata.
    if (agg.system == kTeradataSystemName) {
      EXPECT_DOUBLE_EQ(c.result_transfer_seconds, 0.0);
    } else {
      EXPECT_GT(c.result_transfer_seconds, 0.0);
    }
    EXPECT_GT(join.operator_seconds, 0.0);
    EXPECT_GT(agg.operator_seconds, 0.0);
  }
}

TEST_F(PipelineTest, ShrinkingAggregationStaysRemote) {
  // An 80 GB left table makes shipping it to Teradata prohibitive; with
  // full-row projections the join result is a 2.2 GB intermediate, and
  // GROUP BY a100 shrinks it 100x: the winning plan joins on the data's
  // owner and aggregates in place, shipping only the groups.
  auto big = rel::SyntheticTableDef(80000000, 1000).value();
  big.location = "hive";
  ASSERT_TRUE(sphere_.RegisterTable(big).ok());
  QuerySpec spec = spec_;
  spec.relations = {{"T80000000_1000", 1.0, 1000},
                    {"T2000000_100", 1.0, 100}};
  spec.joins[0].extra_selectivity = 1.0;
  spec.aggregate = QuerySpec::Aggregate{0, "a100", 1};
  auto plan = sphere_.PlanQuery(spec).value();
  const QueryPlanNode* agg = plan.root().value();
  const QueryPlanNode& join =
      plan.nodes[static_cast<size_t>(agg->children.front())];
  EXPECT_EQ(join.system, "hive");
  EXPECT_EQ(agg->system, join.system);
}

TEST_F(PipelineTest, GroupCardinalityCappedByJoinOutput) {
  // At selectivity 0.01 the join result (20k rows) has fewer rows than
  // a10's distinct count (800k): the estimate must cap.
  QuerySpec spec = spec_;
  spec.joins[0].extra_selectivity = 0.01;
  spec.aggregate->num_aggregates = 1;
  auto plan = sphere_.PlanQuery(spec).value();
  const QueryPlanNode* agg = plan.root().value();
  const QueryPlanNode& join =
      plan.nodes[static_cast<size_t>(agg->children.front())];
  EXPECT_LE(agg->op.agg.output_rows, join.op.join.output_rows);
}

TEST_F(PipelineTest, ErrorsOnUnknownTables) {
  QuerySpec spec = spec_;
  spec.relations[0].table = "nope";
  EXPECT_FALSE(sphere_.PlanQuery(spec).ok());
}

}  // namespace
}  // namespace intellisphere::fed
