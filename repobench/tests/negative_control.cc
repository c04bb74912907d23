// Negative control for the benchmark's quality metrics: a hive profile
// calibrated and trained on the wrong cluster (a quarter of the per-record
// costs and overheads of the one that executes the queries) must make each
// gated quality metric worse than the real profile does by more than the
// metric's bound in BENCHMARK.json. A smaller move would pass the gate, so
// the gate could not catch a profile this broken.
//
// Usage: repobench_negative_control --bound <metric>=<share> ...
// with one --bound per gated quality metric (qerror_p50, qerror_p95,
// plan_cost_ratio_mean). ctest in the benchmark's build tree and
// `python3 repobench/run.py --self-test` pass the bounds from
// BENCHMARK.json.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>

#include "harness/workloads.h"

namespace {

using repobench::QualityReport;

const char* const kGated[] = {"qerror_p50", "qerror_p95", "plan_cost_ratio_mean"};

double Metric(const QualityReport& r, const std::string& name) {
  if (name == "qerror_p50") return r.qerror_p50;
  if (name == "qerror_p95") return r.qerror_p95;
  return r.plan_cost_ratio_mean();
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, double> bounds;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    const size_t eq = value.find('=');
    if (flag != "--bound" || eq == std::string::npos) break;
    bounds[value.substr(0, eq)] = std::strtod(value.c_str() + eq + 1, nullptr);
  }
  for (const char* name : kGated) {
    if (bounds.count(name) == 0 || !(bounds[name] > 0.0)) {
      std::fprintf(stderr, "usage: %s --bound %s=<share> (one per quality metric)\n",
                   argv[0], name);
      return 2;
    }
  }

  int failures = 0;
  // estimate-cold judges a fixed evaluation set, the same for every seed.
  const std::pair<const char*, uint64_t> cases[] = {
      {"plan-hot", 1}, {"plan-hot", 2}, {"estimate-cold", 1}};
  for (const auto& [workload, seed] : cases) {
    {
      auto real = repobench::MeasureQuality(workload, seed, false);
      auto broken = repobench::MeasureQuality(workload, seed, true);
      if (!real.ok() || !broken.ok()) {
        std::fprintf(stderr, "%s seed %llu: %s\n", workload,
                     static_cast<unsigned long long>(seed),
                     (!real.ok() ? real.status() : broken.status()).ToString().c_str());
        return 1;
      }
      std::printf("%-14s seed %llu over %lld estimates, %lld choices:\n", workload,
                  static_cast<unsigned long long>(seed),
                  static_cast<long long>(real.value().estimates),
                  static_cast<long long>(real.value().plans));
      for (const char* name : kGated) {
        const double bound = bounds[name];
        const double r = Metric(real.value(), name);
        const double b = Metric(broken.value(), name);
        const double moved = b / r - 1.0;
        const bool caught = moved > bound;
        std::printf("  %-22s %.4f -> %.4f (worse by %.4f, bound %.4f: %s)\n",
                    name, r, b, moved, bound, caught ? "caught" : "NOT CAUGHT");
        failures += caught ? 0 : 1;
      }
    }
  }
  if (failures != 0) {
    std::fprintf(stderr, "negative control FAILED: the mis-calibrated profile did "
                         "not move %d metric(s) past their bounds\n", failures);
    return 1;
  }
  std::printf("negative control passed\n");
  return 0;
}
