// The repository benchmark's entry point:
//
//   repobench --workload <plan-hot|estimate-cold|feedback-drift>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Prints the human-readable report on stderr, a context line (seed, nproc,
// measured effective parallelism, build type, compiler) on stdout, and as
// the last stdout line one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). Exits 1 when a correctness check failed, 2 on bad
// arguments.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "harness/common.h"
#include "harness/workloads.h"
#include "util/json.h"

namespace repobench {
namespace {

/// A fixed amount of dependent floating-point work.
double Spin(int64_t iterations) {
  double x = 1.0;
  for (int64_t i = 0; i < iterations; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

/// Parallel speed-up the host actually delivers: nproc threads each run
/// the single-thread spin; effective = nproc * t(1 thread) / t(nproc).
double EffectiveParallelism(int threads) {
  constexpr int64_t kIterations = 20000000;
  volatile double sink = 0.0;
  int64_t start = NowNs();
  sink = sink + Spin(kIterations);
  const double single = SecondsSince(start);
  std::vector<std::thread> workers;
  std::vector<double> out(static_cast<size_t>(threads));
  start = NowNs();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&out, t] { out[static_cast<size_t>(t)] = Spin(kIterations); });
  }
  for (std::thread& w : workers) w.join();
  const double all = SecondsSince(start);
  for (double v : out) sink = sink + v;
  return all > 0.0 ? static_cast<double>(threads) * single / all : 0.0;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += first ? "\"" : ", \"";
    first = false;
    out += intellisphere::JsonEscape(name);
    out += "\": {\"value\": ";
    out += value;
    out += ", \"unit\": \"";
    out += intellisphere::JsonEscape(m.unit);
    out += "\"}";
  }
  return out + "}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "repobench: %s\nusage: repobench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) return Usage("--seconds takes a positive number");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& name : WorkloadNames()) known = known || name == o.workload;
  if (!have_workload || !known) return Usage("--workload must name a workload");

  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const double effective = EffectiveParallelism(nproc > 0 ? nproc : 1);
  std::printf(
      "# context {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %d, \"effective_parallelism\": %.3f, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\"}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, nproc, effective, REPOBENCH_BUILD_TYPE,
      intellisphere::JsonEscape(__VERSION__).c_str());
  std::fflush(stdout);

  const WorkloadResult res = RunWorkload(o);
  for (const std::string& line : res.report) std::fprintf(stderr, "%s\n", line.c_str());
  for (const std::string& e : res.errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              res.correct ? "true" : "false", static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed),
              MetricsJson(o.trace ? res.per_layer : res.end_to_end).c_str());
  return res.correct ? 0 : 1;
}

}  // namespace
}  // namespace repobench

int main(int argc, char** argv) { return repobench::Main(argc, argv); }
