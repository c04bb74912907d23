// The three benchmark workloads (see repobench/README.md for why each one
// exists and which layer metric should move which end-to-end metric):
//
//   plan-hot        warm PlanQuery over a fixed Zipf-skewed spec pool,
//                   behind the admission controller
//   estimate-cold   direct EstimationService::EstimateBatch replaying the
//                   remote batches the planner sends for fresh specs, whose
//                   distinct operators far outnumber the cache
//   feedback-drift  plan, execute the chosen plan, feed the lifecycle,
//                   while table sizes grow past the trained range
//
// Every run onboards the deployment kSetupRepeats times (setup_s is their
// median), measures for the requested wall seconds, computes plan and
// estimate quality outside the timed loop on a fixed, seed-determined
// sample, and runs the correctness checks. A traced run splits its time
// between an untraced phase and a traced phase that mirrors
// IntelliSphere::PlanQuery with the benchmark's own span-recording
// callbacks.

#ifndef REPOBENCH_HARNESS_WORKLOADS_H_
#define REPOBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/common.h"
#include "util/status.h"

namespace repobench {

inline constexpr int kSetupRepeats = 5;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload end to end. Never throws; failures land in
/// WorkloadResult::correct / errors.
WorkloadResult RunWorkload(const RunOptions& options);

/// Plan and estimate quality of a workload's fixed quality sample, without
/// any timed loop: what the negative control compares.
struct QualityReport {
  double qerror_p50 = 0.0;
  double qerror_p95 = 0.0;
  double regret_mean = 0.0;
  int64_t estimates = 0;
  int64_t plans = 0;

  /// The end-to-end metric the benchmark gates on (1 + regret_mean).
  double plan_cost_ratio_mean() const { return 1.0 + regret_mean; }
};
[[nodiscard]] intellisphere::Result<QualityReport> MeasureQuality(
    const std::string& workload, uint64_t seed, bool miscalibrated_hive);

}  // namespace repobench

#endif  // REPOBENCH_HARNESS_WORKLOADS_H_
