// Plan-search throughput harness: measures end-to-end PlanQuery latency
// for 4- to 6-relation specs (join chains and stars with a trailing
// GROUP BY, across three engines) with the DP's batched costing routed
// through the serving layer.
//
//  * A cold pass populates the EstimationService cache (every remote
//    (operator, system) placement is a distinct key). It is timed
//    kColdRepetitions times, the cache invalidated before each, and
//    reported as the median repetition; every repetition must reproduce
//    the first one's plan totals bit for bit and miss the cache as often.
//  * Warm passes re-plan the same specs: the DP emits the same batches, so
//    every remote estimate answers from the cache. The warm section is
//    timed kWarmRepetitions times and reported as the median repetition,
//    so one preempted repetition does not move the figure. The measured
//    cache-hit fraction must be nonzero (hard floor 0.5 — warm passes
//    dominate), and warm planning must reproduce the cold totals bit for
//    bit (the serving layer's bit-identity contract, checked here end to
//    end).
//
// Emits BENCH_plan_search.json for CI trending; the hit-fraction metric
// carries its floor in the "baseline" field, enforced (with warn-only
// drift checks against bench/baselines/) by
// scripts/check_bench_regression.py.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/estimate_context.h"
#include "federation/intellisphere.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"
#include "serving/service.h"

namespace intellisphere {
namespace {

using bench::BenchMetric;
using bench::Check;
using bench::Unwrap;

constexpr uint64_t kSeed = 7575;
constexpr int kColdRepetitions = 15;
constexpr int kWarmPasses = 20;
constexpr int kWarmRepetitions = 7;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

core::CostingProfile ProfileFor(remote::SimulatedEngineBase* engine,
                                double broadcast_factor) {
  core::CalibrationOptions copts;
  copts.record_sizes = {40, 250, 1000};
  copts.record_counts = {1000000, 4000000};
  auto run = Unwrap(
      core::CalibrateSubOps(engine,
                            bench::InfoFor(*engine, broadcast_factor), copts),
      "calibration");
  return core::CostingProfile::SubOpOnly(Unwrap(
      core::SubOpCostEstimator::ForHive(std::move(run.catalog)), "sub-op"));
}

void RegisterTables(fed::IntelliSphere* sphere) {
  struct Table {
    int64_t rows, row_bytes;
    const char* location;
  };
  for (const Table& t : {Table{8000000, 250, "hive"},
                         Table{2000000, 100, "spark"},
                         Table{500000, 40, "hive"},
                         Table{100000, 100, fed::kTeradataSystemName},
                         Table{1000000, 60, "spark"},
                         Table{250000, 80, "hive"}}) {
    auto def = Unwrap(rel::SyntheticTableDef(t.rows, t.row_bytes), "table");
    def.location = t.location;
    Check(sphere->RegisterTable(def), "register table");
  }
}

/// A chain (relation i joins i + 1) or a star (relation 1 is the hub) over
/// the first `n` registered tables, with a GROUP BY relayed to the master.
fed::QuerySpec ShapeSpec(int n, bool star, int variant) {
  static const char* const kTables[] = {"T8000000_250", "T2000000_100",
                                        "T500000_40",   "T100000_100",
                                        "T1000000_60",  "T250000_80"};
  static const char* const kColumns[] = {"a1", "a10", "a5", "a2", "a100"};
  fed::QuerySpec spec;
  for (int i = 0; i < n; ++i) {
    spec.relations.push_back({kTables[i], 1.0, 8 + 8 * ((i + variant) % 4)});
  }
  for (int i = 1; i < n; ++i) {
    const int from = star ? (i == 1 ? 0 : 1) : i - 1;
    spec.joins.push_back({from, i, kColumns[(i - 1) % 5],
                          i == 1 && variant % 2 == 0 ? 0.5 : 1.0});
  }
  spec.aggregate = fed::QuerySpec::Aggregate{0, "a100", 1 + variant % 2};
  spec.result_to_master = true;
  return spec;
}

/// The measured workload: four-relation chains differing in projection
/// width and join selectivity, so the cold pass populates distinct cache
/// keys while warm passes replay them exactly, plus 5- and 6-relation
/// chains and stars at the sizes the repo benchmark's plan-hot plans.
std::vector<fed::QuerySpec> Workload() {
  std::vector<fed::QuerySpec> specs;
  for (int variant = 0; variant < 4; ++variant) {
    fed::QuerySpec spec;
    spec.relations = {{"T8000000_250", 1.0, 32 + 8 * variant},
                      {"T2000000_100", 1.0, 24},
                      {"T500000_40", 1.0, 16},
                      {"T100000_100", 1.0, 8}};
    spec.joins = {{0, 1, "a1", variant % 2 == 0 ? 0.5 : 1.0},
                  {1, 2, "a10", 1.0},
                  {2, 3, "a5", 1.0}};
    spec.aggregate = fed::QuerySpec::Aggregate{0, "a100", 1 + variant % 2};
    spec.result_to_master = true;
    specs.push_back(std::move(spec));
  }
  for (int n : {5, 6}) {
    for (bool star : {false, true}) {
      specs.push_back(ShapeSpec(n, star, n + (star ? 1 : 0)));
    }
  }
  return specs;
}

}  // namespace
}  // namespace intellisphere

int main() {
  using namespace intellisphere;  // NOLINT

  fed::IntelliSphere sphere;
  auto hive = remote::HiveEngine::CreateDefault("hive", kSeed);
  auto* hive_raw = hive.get();
  bench::Check(
      sphere.RegisterRemoteSystem(
          std::move(hive),
          ProfileFor(hive_raw,
                     hive_raw->options().broadcast_threshold_factor),
          fed::ConnectorParams{}),
      "register hive");
  auto spark = remote::SparkEngine::CreateDefault("spark", kSeed + 1);
  auto* spark_raw = spark.get();
  bench::Check(
      sphere.RegisterRemoteSystem(
          std::move(spark),
          ProfileFor(spark_raw,
                     spark_raw->options().broadcast_threshold_factor),
          fed::ConnectorParams{}),
      "register spark");
  RegisterTables(&sphere);

  serving::EstimationService service(&sphere.cost_estimator());
  bench::Check(sphere.AttachEstimationService(&service), "attach serving");

  const std::vector<fed::QuerySpec> specs = Workload();

  bench::Section("plan-search throughput (4- to 6-relation specs)");

  // Cold repetitions: the cache is emptied first, so every remote
  // placement is a miss.
  std::vector<double> cold_totals;
  std::vector<double> cold_repetition_seconds;
  int64_t cold_misses = 0;
  for (int rep = 0; rep < kColdRepetitions; ++rep) {
    service.InvalidateCache();
    const int64_t misses_before = service.cache_stats().misses;
    auto cold_start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < specs.size(); ++i) {
      fed::QueryPlan plan =
          bench::Unwrap(sphere.PlanQuery(specs[i]), "cold plan");
      const double total =
          bench::Unwrap(plan.best(), "cold best").total_seconds;
      if (rep == 0) {
        cold_totals.push_back(total);
      } else if (total != cold_totals[i]) {
        std::fprintf(stderr,
                     "FATAL: cold repetition %d total %.17g != first cold "
                     "total %.17g (spec %zu) — cold planning must be "
                     "reproducible\n",
                     rep, total, cold_totals[i], i);
        return 1;
      }
    }
    cold_repetition_seconds.push_back(SecondsSince(cold_start));
    const int64_t misses = service.cache_stats().misses - misses_before;
    if (rep == 0) {
      cold_misses = misses;
    } else if (misses != cold_misses) {
      std::fprintf(stderr,
                   "FATAL: cold repetition %d missed the cache %lld times, "
                   "the first %lld — InvalidateCache must empty it\n",
                   rep, static_cast<long long>(misses),
                   static_cast<long long>(cold_misses));
      return 1;
    }
  }
  std::sort(cold_repetition_seconds.begin(), cold_repetition_seconds.end());
  const double cold_seconds = cold_repetition_seconds[kColdRepetitions / 2];
  const serving::CacheStats cold_stats = service.cache_stats();

  // Warm repetitions: the DP re-emits the same batches; the cache answers.
  int64_t candidates_costed = 0;
  int64_t dp_entries = 0;
  int64_t pruned = 0;
  std::vector<double> repetition_seconds;
  for (int rep = 0; rep < kWarmRepetitions; ++rep) {
    auto warm_start = std::chrono::steady_clock::now();
    for (int pass = 0; pass < kWarmPasses; ++pass) {
      for (size_t i = 0; i < specs.size(); ++i) {
        fed::QueryPlan plan =
            bench::Unwrap(sphere.PlanQuery(specs[i]), "warm plan");
        const double total =
            bench::Unwrap(plan.best(), "warm best").total_seconds;
        if (total != cold_totals[i]) {
          std::fprintf(stderr,
                       "FATAL: warm plan total %.17g != cold total %.17g "
                       "(spec %zu) — cached planning must be bit-identical\n",
                       total, cold_totals[i], i);
          return 1;
        }
        if (rep == 0) {
          candidates_costed += plan.candidates_costed;
          dp_entries += plan.dp_entries;
          pruned += static_cast<int64_t>(plan.pruned.size());
        }
      }
    }
    repetition_seconds.push_back(SecondsSince(warm_start));
  }
  std::sort(repetition_seconds.begin(), repetition_seconds.end());
  const double warm_seconds = repetition_seconds[kWarmRepetitions / 2];
  const serving::CacheStats stats = service.cache_stats();

  const int warm_plans = kWarmPasses * static_cast<int>(specs.size());
  const double cold_plans_per_s =
      static_cast<double>(specs.size()) / cold_seconds;
  const double warm_plans_per_s = warm_plans / warm_seconds;
  const double warm_us_per_plan = 1e6 * warm_seconds / warm_plans;
  const int64_t warm_hits = stats.hits - cold_stats.hits;
  const int64_t warm_misses = stats.misses - cold_stats.misses;
  const double warm_hit_fraction =
      warm_hits + warm_misses > 0
          ? static_cast<double>(warm_hits) / (warm_hits + warm_misses)
          : 0.0;

  std::printf(
      "cold: %zu plans per repetition, median of %d repetitions %.4fs "
      "(%.1f plans/s; fastest %.4fs, slowest %.4fs), %lld cache misses "
      "each\n",
      specs.size(), kColdRepetitions, cold_seconds, cold_plans_per_s,
      cold_repetition_seconds.front(), cold_repetition_seconds.back(),
      static_cast<long long>(cold_misses));
  std::printf(
      "warm: %d plans per repetition, median of %d repetitions %.4fs "
      "(%.1f plans/s, %.1f us/plan; fastest %.4fs, slowest %.4fs)\n",
      warm_plans, kWarmRepetitions, warm_seconds, warm_plans_per_s,
      warm_us_per_plan, repetition_seconds.front(),
      repetition_seconds.back());
  std::printf("warm cache: hits=%lld misses=%lld hit_fraction=%.4f\n",
              static_cast<long long>(warm_hits),
              static_cast<long long>(warm_misses), warm_hit_fraction);
  std::printf(
      "per plan: candidates_costed=%.1f pruned=%.1f dp_entries=%.1f\n",
      static_cast<double>(candidates_costed) / warm_plans,
      static_cast<double>(pruned) / warm_plans,
      static_cast<double>(dp_entries) / warm_plans);

  // The DP routes every remote costing through EstimateBatch: warm passes
  // must hit the cache. A zero hit fraction means the search stopped using
  // the serving layer — a wiring regression, not a perf blip.
  if (warm_hit_fraction < 0.5) {
    std::fprintf(stderr,
                 "FATAL: warm cache-hit fraction %.4f below floor 0.5\n",
                 warm_hit_fraction);
    return 1;
  }

  std::vector<bench::BenchMetric> metrics;
  metrics.push_back({"plan_search.cold_plans_per_s", cold_plans_per_s,
                     "plans/s"});
  metrics.push_back({"plan_search.warm_plans_per_s", warm_plans_per_s,
                     "plans/s"});
  metrics.push_back({"plan_search.warm_us_per_plan", warm_us_per_plan, "us"});
  metrics.push_back({"plan_search.warm_hit_fraction", warm_hit_fraction, "x",
                     0.5});
  metrics.push_back({"plan_search.candidates_costed_per_plan",
                     static_cast<double>(candidates_costed) / warm_plans,
                     "candidates"});
  metrics.push_back({"plan_search.pruned_per_plan",
                     static_cast<double>(pruned) / warm_plans, "count"});
  metrics.push_back({"plan_search.dp_entries_per_plan",
                     static_cast<double>(dp_entries) / warm_plans,
                     "entries"});
  bench::Check(bench::WriteBenchJson("plan_search", kSeed, metrics),
               "write json");
  return 0;
}
