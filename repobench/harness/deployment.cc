#include "harness/deployment.h"

#include <cstdio>
#include <map>
#include <utility>

#include "core/hybrid.h"
#include "core/sub_op.h"
#include "core/trainer.h"
#include "harness/common.h"
#include "relational/catalog.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"
#include "simcluster/ground_truth.h"

namespace repobench {

namespace core = intellisphere::core;
namespace fed = intellisphere::fed;
namespace rel = intellisphere::rel;
namespace remote = intellisphere::remote;
namespace serving = intellisphere::serving;
namespace sim = intellisphere::sim;

namespace {

constexpr char kHivePrefix[] = "hive.";

core::OpenboxInfo InfoFor(const remote::SimulatedEngineBase& engine,
                          double broadcast_threshold_factor) {
  core::OpenboxInfo info;
  const sim::ClusterConfig& cfg = engine.cluster().config();
  info.dfs_block_bytes = cfg.dfs_block_bytes;
  info.total_slots = cfg.TotalSlots();
  info.num_worker_nodes = cfg.num_worker_nodes;
  info.task_memory_bytes = cfg.TaskMemoryBytes();
  info.broadcast_threshold_bytes =
      broadcast_threshold_factor * info.task_memory_bytes;
  info.skew_threshold = 0.30;
  return info;
}

core::CalibrationOptions BenchCalibration() {
  core::CalibrationOptions copts;
  copts.record_sizes = {40, 100, 250, 1000};
  copts.record_counts = {1000000, 2000000, 4000000};
  return copts;
}

Result<core::SubOpCostEstimator> CalibrateEngine(
    remote::SimulatedEngineBase* engine, double broadcast_factor,
    SetupTimes* times) {
  const int64_t start = NowNs();
  auto run = core::CalibrateSubOps(engine, InfoFor(*engine, broadcast_factor),
                                   BenchCalibration());
  times->calibrate_s += SecondsSince(start);
  if (!run.ok()) return run.status();
  return core::SubOpCostEstimator::ForHive(std::move(run).value().catalog,
                                           core::ChoicePolicy::kInHouseComparable);
}

/// Collects the hive training sets and trains the join and aggregation
/// networks. Every grid cell stays within kTrainedRowsMax rows.
Result<std::map<rel::OperatorType, core::LogicalOpModel>> TrainHiveModels(
    remote::RemoteSystem* engine, uint64_t seed, SetupTimes* times) {
  rel::JoinWorkloadOptions jw;
  jw.left_record_counts = {250000, 500000, 1000000, kTrainedRowsMax};
  jw.right_record_counts = {100000, 250000, 500000, 1000000};
  jw.record_sizes = {40, 100, 250};
  jw.max_queries = 400;
  jw.seed = seed;
  rel::AggWorkloadOptions aw;
  aw.record_counts = {100000, 250000, 500000, 1000000, kTrainedRowsMax};
  aw.record_sizes = {40, 100, 250};
  aw.num_aggregates = {1, 2, 3};

  int64_t start = NowNs();
  ISPHERE_ASSIGN_OR_RETURN(std::vector<rel::JoinQuery> joins,
                           rel::GenerateJoinWorkload(jw));
  ISPHERE_ASSIGN_OR_RETURN(std::vector<rel::AggQuery> aggs,
                           rel::GenerateAggWorkload(aw));
  ISPHERE_ASSIGN_OR_RETURN(core::TrainingRun join_run,
                           core::CollectJoinTraining(engine, joins));
  ISPHERE_ASSIGN_OR_RETURN(core::TrainingRun agg_run,
                           core::CollectAggTraining(engine, aggs));
  times->collect_s += SecondsSince(start);

  start = NowNs();
  core::LogicalOpOptions lopts;
  lopts.mlp.iterations = 3000;
  lopts.mlp.seed = seed;
  lopts.tuning_iterations = 600;
  std::map<rel::OperatorType, core::LogicalOpModel> models;
  ISPHERE_ASSIGN_OR_RETURN(
      core::LogicalOpModel join_model,
      core::LogicalOpModel::Train(rel::OperatorType::kJoin, join_run.data,
                                  core::JoinDimensionNames(), lopts));
  ISPHERE_ASSIGN_OR_RETURN(
      core::LogicalOpModel agg_model,
      core::LogicalOpModel::Train(rel::OperatorType::kAggregation,
                                  agg_run.data, core::AggDimensionNames(),
                                  lopts));
  times->train_s += SecondsSince(start);
  models.emplace(rel::OperatorType::kJoin, std::move(join_model));
  models.emplace(rel::OperatorType::kAggregation, std::move(agg_model));
  return models;
}

}  // namespace

serving::ServiceOptions BenchServiceOptions() {
  serving::ServiceOptions opts;
  opts.jobs = 1;
  return opts;
}

serving::AdmissionOptions BenchAdmissionOptions() {
  serving::AdmissionOptions opts;
  opts.tenant_rate = 1e6;
  opts.tenant_burst = 1e5;
  opts.max_queue = 1 << 16;
  opts.service_seconds = 1e-6;
  return opts;
}

uint64_t OracleEngineSeed(uint64_t seed, const std::string& system) {
  return seed * 1000003 + (system == "hive" ? 17 : 29);
}

Result<std::unique_ptr<Deployment>> Deployment::Create(
    const DeploymentOptions& options, SetupTimes* times) {
  std::unique_ptr<Deployment> d(new Deployment());
  const uint64_t seed = kOnboardingSeed;

  // --- hive: hybrid profile.
  std::unique_ptr<remote::HiveEngine> hive =
      remote::HiveEngine::CreateDefault("hive", seed * 7 + 1);
  std::unique_ptr<remote::HiveEngine> miscalibrated;
  remote::HiveEngine* onboard = hive.get();
  if (options.miscalibrated_hive) {
    sim::ClusterConfig fast;
    fast.job_setup_seconds /= 4;
    fast.task_startup_seconds /= 4;
    sim::GroundTruthParams truth;
    for (sim::PrimitiveLine* line :
         {&truth.read_dfs, &truth.write_dfs, &truth.read_local,
          &truth.write_local, &truth.shuffle, &truth.merge,
          &truth.hash_build_fit, &truth.hash_build_spill, &truth.hash_probe,
          &truth.scan, &truth.broadcast_per_node, &truth.sort_per_cmp}) {
      line->intercept_us /= 4;
      line->slope_us_per_byte /= 4;
    }
    miscalibrated = std::make_unique<remote::HiveEngine>(
        "hive", fast, truth, remote::HiveEngineOptions{}, seed * 7 + 1);
    onboard = miscalibrated.get();
  }
  ISPHERE_ASSIGN_OR_RETURN(
      core::SubOpCostEstimator hive_subop,
      CalibrateEngine(onboard, onboard->options().broadcast_threshold_factor,
                      times));
  ISPHERE_ASSIGN_OR_RETURN(auto hive_models,
                           TrainHiveModels(onboard, seed, times));
  ISPHERE_ASSIGN_OR_RETURN(
      core::CostingProfile hive_profile,
      core::CostingProfile::PerOperator(
          std::move(hive_subop), std::move(hive_models),
          {{rel::OperatorType::kJoin, core::CostingApproach::kLogicalOp},
           {rel::OperatorType::kAggregation,
            core::CostingApproach::kLogicalOp},
           {rel::OperatorType::kScan, core::CostingApproach::kSubOp}}));
  hive_profile.Save(kHivePrefix, &d->hive_snapshot_);
  ISPHERE_RETURN_NOT_OK(d->sphere_.RegisterRemoteSystem(
      std::move(hive), std::move(hive_profile), fed::ConnectorParams{}));

  // --- spark: sub-op only.
  std::unique_ptr<remote::SparkEngine> spark =
      remote::SparkEngine::CreateDefault("spark", seed * 7 + 2);
  ISPHERE_ASSIGN_OR_RETURN(
      core::SubOpCostEstimator spark_subop,
      CalibrateEngine(spark.get(),
                      spark->options().broadcast_threshold_factor, times));
  ISPHERE_RETURN_NOT_OK(d->sphere_.RegisterRemoteSystem(
      std::move(spark), core::CostingProfile::SubOpOnly(std::move(spark_subop)),
      fed::ConnectorParams{}));

  // --- catalog: a fixed table set (sizes and sites do not depend on the
  // seed, so every seed plans over the same data layout), one copy per
  // growth step.
  const TableInfo base[kBaseTables] = {
      {"", 4000000, 100, "hive"},     {"", 2000000, 250, "hive"},
      {"", 1000000, 40, "hive"},      {"", 500000, 100, "hive"},
      {"", 2000000, 100, "spark"},    {"", 1000000, 250, "spark"},
      {"", 250000, 40, "spark"},      {"", 4000000, 40, "teradata"},
      {"", 500000, 250, "teradata"},  {"", 250000, 100, "teradata"},
  };
  for (int step = 0; step < kGrowthSteps; ++step) {
    for (int i = 0; i < kBaseTables; ++i) {
      TableInfo t = base[i];
      t.rows <<= step;
      char name[32];
      std::snprintf(name, sizeof(name), "t%d_g%d", i, step);
      t.name = name;
      ISPHERE_ASSIGN_OR_RETURN(rel::TableDef def,
                               rel::SyntheticTableDef(t.rows, t.row_bytes));
      def.name = t.name;
      def.location = t.location;
      ISPHERE_RETURN_NOT_OK(d->sphere_.RegisterTable(std::move(def)));
      d->tables_.push_back(std::move(t));
    }
  }

  ISPHERE_RETURN_NOT_OK(d->ResetServing());
  return d;
}

Status Deployment::ResetServing() {
  ISPHERE_RETURN_NOT_OK(sphere_.AttachAdmissionController(nullptr));
  auto service = std::make_unique<serving::EstimationService>(
      &sphere_.cost_estimator(), BenchServiceOptions());
  ISPHERE_RETURN_NOT_OK(sphere_.AttachEstimationService(service.get()));
  auto admission = std::make_unique<serving::AdmissionController>(
      service.get(), BenchAdmissionOptions());
  ISPHERE_RETURN_NOT_OK(sphere_.AttachAdmissionController(admission.get()));
  admission_ = std::move(admission);
  service_ = std::move(service);
  return Status::OK();
}

Status Deployment::RestoreHiveProfile() {
  ISPHERE_ASSIGN_OR_RETURN(
      core::CostingProfile restored,
      core::CostingProfile::Load(kHivePrefix, hive_snapshot_));
  ISPHERE_ASSIGN_OR_RETURN(core::CostingProfile * live,
                           sphere_.cost_estimator().GetProfileMutable("hive"));
  *live = std::move(restored);
  return Status::OK();
}

}  // namespace repobench
