// Shared helpers for the experiment harnesses that regenerate the paper's
// tables and figures. Each bench binary prints CSV blocks (one per panel)
// plus summary lines with fitted slope/intercept/R^2/RMSE%, mirroring the
// annotations on the paper's plots. EXPERIMENTS.md records paper-vs-measured
// for every experiment.

#ifndef INTELLISPHERE_BENCH_BENCH_COMMON_H_
#define INTELLISPHERE_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/formulas.h"
#include "core/sub_op.h"
#include "remote/sim_engine_base.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/runtime_metrics.h"
#include "util/status.h"

namespace intellisphere::bench {

/// Aborts the bench with a readable message on an unexpected error. The
/// harnesses run in a controlled environment; any failure is a bug worth a
/// loud crash rather than a silent partial figure.
inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::cerr << "FATAL [" << what << "]: " << status.ToString() << "\n";
    std::abort();
  }
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  Check(result.status(), what);
  return std::move(result).value();
}

/// Prints a section header: the figure/table this block reproduces.
inline void Section(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

/// Prints the paper-style fitted-line annotation for a
/// predicted-vs-actual scatter.
inline void PrintFit(const std::string& label,
                     const std::vector<double>& actual,
                     const std::vector<double>& predicted) {
  FittedLine line = Unwrap(FitLine(actual, predicted), "fit line");
  double rp = Unwrap(RmsePercent(actual, predicted), "rmse%");
  std::printf("%s: y = %.4fx %c %.4f, R^2 = %.5f, RMSE%% = %.2f (n=%zu)\n",
              label.c_str(), line.slope, line.intercept < 0 ? '-' : '+',
              std::abs(line.intercept), line.r2, rp, actual.size());
}

/// Builds the openbox profile info for a simulated engine, as the expert
/// registering the system would.
inline core::OpenboxInfo InfoFor(const remote::SimulatedEngineBase& engine,
                                 double broadcast_threshold_factor,
                                 double skew_threshold = 0.30) {
  core::OpenboxInfo info;
  info.dfs_block_bytes = engine.cluster().config().dfs_block_bytes;
  info.total_slots = engine.cluster().config().TotalSlots();
  info.num_worker_nodes = engine.cluster().config().num_worker_nodes;
  info.task_memory_bytes = engine.cluster().config().TaskMemoryBytes();
  info.broadcast_threshold_bytes =
      broadcast_threshold_factor * info.task_memory_bytes;
  info.skew_threshold = skew_threshold;
  return info;
}

/// One machine-readable measurement of a bench binary.
struct BenchMetric {
  std::string name;
  double value = 0.0;
  std::string unit;  ///< e.g. "s", "ns", "steps/s", "x"
  /// Optional hard floor the measurement must stay at-or-above (0 = none).
  /// Emitted as a "baseline" field in BENCH_<name>.json; enforced by
  /// scripts/check_bench_regression.py as a hard failure, unlike the
  /// warn-only drift comparison against bench/baselines/. Declared after
  /// `unit` so existing three-element aggregate initializers still compile.
  double baseline = 0.0;
  /// Optional drift direction, "higher" or "lower" (empty = infer from the
  /// unit). Emitted as a "better" field; scripts/check_bench_regression.py
  /// lets it override the unit rule.
  std::string better{};
};

// JSON string escaping comes from util/json.h (intellisphere::JsonEscape),
// shared with the runtime-metrics and EXPLAIN exporters.

/// Appends every sample of a runtime-metrics snapshot to a bench's metric
/// list, so operational counters (approach selections, remedy activations,
/// estimate-latency buckets) land in BENCH_<name>.json next to the latency
/// numbers. Histogram means (unit "mean") are runtime latencies, so they
/// are marked lower-is-better; their unit alone says nothing about
/// direction.
inline void AppendMetricsSnapshot(const MetricsSnapshot& snapshot,
                                  std::vector<BenchMetric>* out) {
  for (const MetricSample& s : snapshot.samples) {
    out->push_back({s.name, s.value, s.unit, 0.0,
                    s.unit == "mean" ? "lower" : ""});
  }
}

/// Writes the bench's metrics to BENCH_<bench_name>.json in the working
/// directory so CI can diff runs without scraping stdout. The format is a
/// single object: {"bench": ..., "seed": ..., "metrics": [{"name": ...,
/// "value": ..., "unit": ...}, ...]}; "baseline" and "better" appear only
/// when set.
[[nodiscard]] inline Status WriteBenchJson(
    const std::string& bench_name, uint64_t seed,
    const std::vector<BenchMetric>& metrics) {
  std::string path = "BENCH_" + bench_name + ".json";
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out << "{\n";
  out << "  \"bench\": \"" << JsonEscape(bench_name) << "\",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"metrics\": [";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ",";
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out << "\n    {\"name\": \"" << JsonEscape(metrics[i].name)
        << "\", \"value\": " << value << ", \"unit\": \""
        << JsonEscape(metrics[i].unit) << "\"";
    if (metrics[i].baseline != 0.0) {
      char baseline[64];
      std::snprintf(baseline, sizeof(baseline), "%.17g",
                    metrics[i].baseline);
      out << ", \"baseline\": " << baseline;
    }
    if (!metrics[i].better.empty()) {
      out << ", \"better\": \"" << JsonEscape(metrics[i].better) << "\"";
    }
    out << "}";
  }
  if (!metrics.empty()) out << "\n  ";
  out << "]\n}\n";
  out.close();
  if (!out) return Status::Internal("failed writing " + path);
  std::cout << "wrote " << path << " (" << metrics.size() << " metrics)\n";
  return Status::OK();
}

/// Downsamples a series to about `target` evenly spaced points so the
/// printed CSV stays readable; always keeps the final point.
template <typename F>
void PrintSampledSeries(size_t n, size_t target, F&& print_row) {
  if (n == 0) return;
  size_t stride = n <= target ? 1 : n / target;
  for (size_t i = 0; i < n; i += stride) print_row(i);
  if ((n - 1) % stride != 0) print_row(n - 1);
}

}  // namespace intellisphere::bench

#endif  // INTELLISPHERE_BENCH_BENCH_COMMON_H_
