// Shared plumbing of the repository benchmark: wall-clock helpers, sample
// statistics, the in-memory span recorder the traced runs fold into a
// per-layer self-time table, and the result record every workload fills.

#ifndef REPOBENCH_HARNESS_COMMON_H_
#define REPOBENCH_HARNESS_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace repobench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread, in nanoseconds.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Voluntary context switches of the calling thread so far: how often it
/// gave up the CPU to wait (a contended lock, a condition variable, a
/// sleep, a blocking read). Preemption does not count.
inline int64_t ThreadVoluntarySwitches() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<int64_t>(usage.ru_nvcsw);
}

inline double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// Span timestamps. On x86-64 they read the TSC, which costs half a
/// steady_clock read inside a VM (22 ns against 44 ns here) and so halves
/// the tracing overhead at about 200 timestamps per plan; NsPerSpanTick
/// scales them to nanoseconds. Elsewhere they are steady_clock nanoseconds.
inline int64_t SpanTicks() {
#if defined(__x86_64__)
  return static_cast<int64_t>(__rdtsc());
#else
  return NowNs();
#endif
}

/// Nanoseconds per SpanTicks unit, calibrated once against steady_clock
/// over 20 ms (the TSC rate is constant on the CPUs this runs on).
inline double NsPerSpanTick() {
  static const double kRatio = [] {
#if defined(__x86_64__)
    const int64_t ns0 = NowNs();
    const int64_t ticks0 = SpanTicks();
    int64_t ns1 = ns0;
    while (ns1 - ns0 < 20000000) ns1 = NowNs();
    return static_cast<double>(ns1 - ns0) / static_cast<double>(SpanTicks() - ticks0);
#else
    return 1.0;
#endif
  }();
  return kRatio;
}

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]); 0 for
/// an empty sample.
inline double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

inline double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

/// max(est/act, act/est); +inf when either side is not a positive finite
/// number (a broken estimate must never read as accurate).
inline double QError(double estimate, double actual) {
  if (!(estimate > 0.0) || !(actual > 0.0) || !std::isfinite(estimate) ||
      !std::isfinite(actual)) {
    return INFINITY;
  }
  return std::max(estimate / actual, actual / estimate);
}

/// In-memory spans of one request at a time: (name, start, end, parent,
/// request id). A request's spans are folded into the per-layer self-time
/// table when the request ends, so memory stays bounded by the deepest
/// request rather than the run length. The last request's spans are kept
/// for the sample trace the report prints.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    int64_t start = 0;  ///< SpanTicks
    int64_t end = 0;
    int parent = -1;  ///< index into the request's span list, -1 = root
    int64_t request = 0;
  };
  struct LayerTotals {
    double self_ns = 0.0;
    double inclusive_ns = 0.0;
    int64_t spans = 0;
  };

  SpanRecorder() : ns_per_tick_(NsPerSpanTick()) {}

  /// Opens a span under the innermost open span; returns its index.
  int Open(const char* name) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request_;
    s.start = SpanTicks();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void Close(int index) {
    spans_[static_cast<size_t>(index)].end = SpanTicks();
    stack_.pop_back();
  }

  /// Folds the finished request into the layer table.
  void EndRequest() {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += DurationNs(s);
      }
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double dur = DurationNs(s);
      LayerTotals& t = layers_[s.name];
      t.self_ns += dur - child_ns[i];
      t.inclusive_ns += dur;
      ++t.spans;
    }
    last_.swap(spans_);
    spans_.clear();
    ++request_;
  }

  double DurationNs(const Span& s) const {
    return static_cast<double>(s.end - s.start) * ns_per_tick_;
  }
  double OffsetNs(const Span& from, const Span& s) const {
    return static_cast<double>(s.start - from.start) * ns_per_tick_;
  }
  const std::map<std::string, LayerTotals>& layers() const { return layers_; }
  const std::vector<Span>& last_request() const { return last_; }
  double SelfNs(const std::string& layer) const {
    auto it = layers_.find(layer);
    return it == layers_.end() ? 0.0 : it->second.self_ns;
  }
  double InclusiveNs(const std::string& layer) const {
    auto it = layers_.find(layer);
    return it == layers_.end() ? 0.0 : it->second.inclusive_ns;
  }
  int64_t SpanCount(const std::string& layer) const {
    auto it = layers_.find(layer);
    return it == layers_.end() ? 0 : it->second.spans;
  }

 private:
  double ns_per_tick_;
  std::vector<Span> spans_;
  std::vector<Span> last_;
  std::vector<int> stack_;
  std::map<std::string, LayerTotals> layers_;
  int64_t request_ = 0;
};

/// RAII span; a null recorder makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), index_(rec != nullptr ? rec->Open(name) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

/// A fixed reference kernel, independent of the code under test and shaped
/// like it: string formatting, ordered-map inserts of short string keys,
/// and small heap allocations. On a shared host, contention from other
/// tenants slows this kind of code by the same factor as the planner and
/// the serving path (measured: both drop about 27% together when a
/// neighbour goes quiet, while a pointer chase barely moves), so timing it
/// between measured blocks gives the host's current speed.
class SpeedProbe {
 public:
  /// Runs the kernel once; returns its wall time in nanoseconds.
  int64_t Run() {
    const int64_t start = NowNs();
    double x = 0.0;
    {
      std::map<std::string, double> index;
      char key[32];
      for (int i = 0; i < kKeys; ++i) {
        std::snprintf(key, sizeof(key), "k%u/%d",
                      (static_cast<uint32_t>(i) * 2654435761u) % 100000u, i % 7);
        index[key] += static_cast<double>(i);
      }
      for (const auto& [k, v] : index) x += v * static_cast<double>(k.size());
    }
    {
      std::vector<std::string> strings;
      for (int i = 0; i < kAllocations; ++i) {
        strings.emplace_back(static_cast<size_t>(24 + i % 40), 'x');
      }
      x += static_cast<double>(strings.size());
    }
    sink_ = x;
    return NowNs() - start;
  }

 private:
  static constexpr int kKeys = 1000;
  static constexpr int kAllocations = 3000;
  double sink_ = 0.0;
};

/// The second reference kernel: a chain of small dense matrix-vector
/// products with tanh, shaped like an MLP training step. Onboarding is
/// dominated by MLP training, which contention slows differently from the
/// planner (measured here: over one minute of drifting contention this
/// probe cut the run-to-run spread of training time from 12% to 4%, the
/// SpeedProbe only to 7%), so setup_s is normalized with this one.
class DenseProbe {
 public:
  DenseProbe() : w_(kDim * kDim), x_(kDim), y_(kDim) {
    for (size_t i = 0; i < w_.size(); ++i) w_[i] = 0.01 * static_cast<double>(i % 7);
  }
  /// Runs the kernel once; returns its wall time in nanoseconds.
  int64_t Run() {
    const int64_t start = NowNs();
    for (size_t i = 0; i < kDim; ++i) x_[i] = 0.5;
    for (int it = 0; it < kIterations; ++it) {
      for (size_t i = 0; i < kDim; ++i) {
        double sum = 0.0;
        for (size_t j = 0; j < kDim; ++j) sum += w_[i * kDim + j] * x_[j];
        y_[i] = std::tanh(sum);
      }
      for (size_t i = 0; i < kDim; ++i) x_[i] = y_[i] * 0.5 + 0.25;
    }
    sink_ = x_[3];
    return NowNs() - start;
  }

 private:
  static constexpr size_t kDim = 64;
  static constexpr int kIterations = 400;
  std::vector<double> w_, x_, y_;
  double sink_ = 0.0;
};

/// Host-speed normalization of a timed loop. The loop is cut into blocks
/// of about kBlockNs of measured work, and the SpeedProbe runs after each
/// block (outside the measured time). A block's factor is
/// kNominalProbeNs over the median probe time of the block and its two
/// neighbours; a raw time times its block's factor is the time at nominal
/// host speed. Contention on this kind of shared host comes and goes over
/// seconds, slowing the workload and the probe alike, so the factor
/// cancels it; a change to the code under test moves the workload and not
/// the probe, so it still shows in full.
class HostSpeed {
 public:
  static constexpr int64_t kBlockNs = 20000000;
  /// The probe's time on an uncontended 2.1 GHz Xeon vCPU (GCC 12, -O3).
  static constexpr double kNominalProbeNs = 6.0e5;

  /// Call before each measured request with the number of samples so far.
  void Before(size_t samples) {
    const int64_t now = NowNs();
    if (block_start_ == 0) {
      block_start_ = now;
    } else if (now - block_start_ >= kBlockNs) {
      Close(samples, now);
      block_start_ = NowNs();
    }
  }
  /// Adds time the host took the CPU away during a request in the open
  /// block; it is left out of the block's scaled time.
  void AddStall(int64_t ns) { block_stall_ += ns; }

  /// Ends a measured stretch (the loop, or an episode); the next Before
  /// opens a new block.
  void Finish(size_t samples) {
    if (block_start_ != 0) Close(samples, NowNs());
    block_start_ = 0;
  }

  /// Factor of the block holding sample `i`.
  double FactorOf(size_t i) const {
    const size_t b = static_cast<size_t>(
        std::upper_bound(ends_.begin(), ends_.end(), i) - ends_.begin());
    return BlockFactor(std::min(b, ends_.size() - 1));
  }
  double RawSeconds() const {
    double ns = 0.0;
    for (int64_t b : block_ns_) ns += static_cast<double>(b);
    return ns * 1e-9;
  }
  /// Block time less stalls, at nominal host speed.
  double ScaledSeconds() const {
    double ns = 0.0;
    for (size_t b = 0; b < block_ns_.size(); ++b) {
      ns += static_cast<double>(block_ns_[b] - stall_ns_[b]) * BlockFactor(b);
    }
    return ns * 1e-9;
  }
  std::vector<double> Scale(const std::vector<double>& raw) const {
    std::vector<double> out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) out.push_back(raw[i] * FactorOf(i));
    return out;
  }
  double MedianProbeUs() const {
    std::vector<double> us;
    for (int64_t p : probe_ns_) us.push_back(static_cast<double>(p) * 1e-3);
    return Quantile(us, 0.5);
  }
  size_t blocks() const { return ends_.size(); }

 private:
  void Close(size_t samples, int64_t now) {
    ends_.push_back(samples);
    block_ns_.push_back(now - block_start_);
    stall_ns_.push_back(std::min(block_stall_, now - block_start_));
    block_stall_ = 0;
    probe_ns_.push_back(probe_.Run());
  }
  double BlockFactor(size_t b) const {
    if (probe_ns_.empty()) return 1.0;
    const size_t lo = b > 0 ? b - 1 : 0;
    const size_t hi = std::min(b + 2, probe_ns_.size());
    std::vector<double> around(probe_ns_.begin() + static_cast<std::ptrdiff_t>(lo),
                               probe_ns_.begin() + static_cast<std::ptrdiff_t>(hi));
    return kNominalProbeNs / Quantile(around, 0.5);
  }

  SpeedProbe probe_;
  int64_t block_start_ = 0;
  std::vector<size_t> ends_;      ///< sample count at each block's end
  std::vector<int64_t> block_ns_;
  std::vector<int64_t> stall_ns_;
  std::vector<int64_t> probe_ns_;
  int64_t block_stall_ = 0;
};

/// One named measurement of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports back to main.
struct WorkloadResult {
  bool correct = true;
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Human-readable report lines (stderr).
  std::vector<std::string> report;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

}  // namespace repobench

#endif  // REPOBENCH_HARNESS_COMMON_H_
