#include "harness/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <unordered_set>
#include <thread>
#include <utility>

#include <sys/resource.h>

#include "core/estimate_context.h"
#include "core/hybrid.h"
#include "federation/intellisphere.h"
#include "federation/plan_search.h"
#include "harness/deployment.h"
#include "harness/oracle.h"
#include "lifecycle/manager.h"
#include "relational/catalog.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"
#include "serving/estimate_cache.h"
#include "serving/service.h"
#include "traffic/generator.h"
#include "util/rng.h"
#include "util/runtime_metrics.h"
#include "util/thread_pool.h"

namespace repobench {

namespace core = intellisphere::core;
namespace eng = intellisphere::eng;
namespace fed = intellisphere::fed;
namespace lifecycle = intellisphere::lifecycle;
namespace rel = intellisphere::rel;
namespace remote = intellisphere::remote;
namespace serving = intellisphere::serving;
namespace traffic = intellisphere::traffic;
using intellisphere::MetricsRegistry;
using intellisphere::MetricsSnapshot;
using intellisphere::Rng;

namespace {

// ---------------------------------------------------------------------------
// Sizes (README.md states each one and why).

constexpr int kTenants = 8;
/// plan-hot: spec pool size and request stream.
constexpr int kPlanHotPool = 32;
/// Specs whose plans the plan-hot quality metrics judge: the pool plus
/// further specs from the same shape sequence.
constexpr int kPlanHotQuality = 480;
constexpr double kPlanHotTraceSeconds = 2000.0;
constexpr double kPlanHotRate = 20.0;
/// estimate-cold: fresh specs whose planning traffic makes the request
/// stream (their distinct remote operators are several times the
/// 4096-entry cache).
constexpr int kColdSpecs = 1024;
/// Which tables the cold specs read is fixed (this seed), like their
/// structure; the run seed draws the rest. The tables' sizes decide how
/// many operators fall beyond the trained range and so which estimation
/// path runs; drawn from the run seed, they moved latency_p50_us by 20%
/// between seeds.
constexpr uint64_t kColdLayoutSeed = 7;
/// estimate-cold's quality is judged on a fixed evaluation set: the whole
/// operator universe of the cold specs of this seed, executed on oracle
/// engines of this seed, whatever the run seed. Judged on the run's own
/// traffic, the mean placement regret moved 1-2% from seed to seed, more
/// than the whole move plan-hot's negative control makes in its
/// plan_cost_ratio_mean; a fixed set lets that metric's bound be tight.
constexpr uint64_t kColdQualitySeed = 0;
/// feedback-drift: requests per episode (tables double every
/// kDriftEpisodeRequests / kGrowthSteps requests).
constexpr int kDriftEpisodeRequests = 240;
/// feedback-drift plays a fixed evaluation set: kDriftStreams streams,
/// executed on engines with fixed seeds. The run seed rotates the order
/// (episode e plays stream (seed + e) mod kDriftStreams), and each phase
/// plays whole cycles of the set, so every run weighs every stream alike.
/// The first cycle is the quality sample. The set
/// is fixed because the lifecycle is chaotic in its inputs: the executing
/// engines' noise alone moves drift detection and retrain outcomes enough
/// to swing the q-error p95 (whose tail reaches above 10^4) from 12 to 21.
constexpr int kDriftStreams = 16;
constexpr int kDriftRepeatWindow = 20;
/// Requests whose plans the cache-less comparison re-plans: plan-hot's
/// first pool specs, and specs spread over feedback-drift's last episode.
constexpr int kCachelessSample = 8;
constexpr int kDriftCheckSample = 16;

const char* const kJoinColumns[] = {"a1", "a2", "a5", "a10"};
const char* const kGroupColumns[] = {"a10", "a20", "a50", "a100"};
const int64_t kProjections[] = {8, 16, 32};

std::vector<std::string> TenantNames() {
  std::vector<std::string> names;
  for (int t = 0; t < kTenants; ++t) names.push_back("tenant" + std::to_string(t));
  return names;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Counter(const MetricsSnapshot& s, const std::string& name) {
  const intellisphere::MetricSample* m = s.Find(name);
  return m != nullptr ? m->value : 0.0;
}

double PerRequest(double total, int64_t requests) {
  return requests > 0 ? total / static_cast<double>(requests) : 0.0;
}

// ---------------------------------------------------------------------------
// Generated inputs.

/// The structure of a spec: relation count, join-graph shape (chain or
/// star), whether a GROUP BY follows, whether the result returns to the
/// master, and which relations carry a filter. The DP search's cost is set
/// by the structure, so workloads fix the structure of every position in
/// their streams and let the seed draw the rest (which table of each site,
/// join columns, selectivities, projections); that keeps a workload's
/// latency comparable across seeds.
struct SpecShape {
  int relations = 3;
  bool star = false;
  bool aggregate = false;
  bool result_to_master = false;
  int filter_phase = 0;  ///< relation r is filtered when (r + phase) % 3 == 0
};

/// The shape at position `i` of a shape cycle over `sizes` relation counts
/// starting at `min_relations`.
SpecShape ShapeAt(int i, int min_relations, int sizes) {
  SpecShape shape;
  shape.relations = min_relations + i % sizes;
  shape.star = (i / sizes) % 2 == 1;
  shape.aggregate = (i / (2 * sizes)) % 2 == 0;
  shape.result_to_master = (i / (4 * sizes)) % 2 == 0;
  shape.filter_phase = i % 3;
  return shape;
}

/// A connected join spec of the given shape over distinct base tables at
/// growth `step`. Relation r lives on site r mod 3 (hive, spark, teradata),
/// so every spec weighs all three placements; `layout` picks which of the
/// site's tables (pass `rng` itself to let the seed pick them too).
fed::QuerySpec RandomSpec(Rng* rng, Rng* layout, const Deployment& d, SpecShape shape,
                          int step) {
  static const char* const kSites[] = {"hive", "spark", "teradata"};
  std::map<std::string, std::vector<int>> by_site;
  for (int i = 0; i < kBaseTables; ++i) {
    by_site[d.table(i, 0).location].push_back(i);
  }
  for (auto& [site, ids] : by_site) {
    std::vector<int> shuffled;
    for (size_t j : layout->Permutation(ids.size())) shuffled.push_back(ids[j]);
    ids = std::move(shuffled);
  }
  fed::QuerySpec spec;
  for (int r = 0; r < shape.relations; ++r) {
    fed::QuerySpec::Relation relation;
    relation.table = d.table(by_site[kSites[r % 3]][static_cast<size_t>(r / 3)], step).name;
    if ((r + shape.filter_phase) % 3 == 0) {
      relation.filter_selectivity = rng->Uniform(0.05, 0.9);
    }
    relation.projected_bytes = kProjections[rng->UniformInt(0, 2)];
    spec.relations.push_back(relation);
  }
  for (int r = 1; r < shape.relations; ++r) {
    fed::QuerySpec::JoinPredicate p;
    p.left = shape.star ? 0 : r - 1;
    p.right = r;
    p.column = kJoinColumns[rng->UniformInt(0, 3)];
    p.extra_selectivity = rng->Bernoulli(0.5) ? 1.0 : rng->Uniform(0.05, 1.0);
    spec.joins.push_back(p);
  }
  if (shape.aggregate) {
    spec.aggregate = fed::QuerySpec::Aggregate{
        0, kGroupColumns[rng->UniformInt(0, 3)],
        static_cast<int>(rng->UniformInt(1, 3))};
  }
  spec.result_to_master = shape.result_to_master;
  return spec;
}

// ---------------------------------------------------------------------------
// The PlanQuery mirror: the same SearchPlan call IntelliSphere::PlanQuery
// makes, with callbacks that time each layer boundary.

using RemoteBatchFn = std::function<std::vector<Result<core::HybridEstimate>>(
    std::span<const serving::EstimateRequest>, const core::EstimateContext&)>;

struct MirrorCounts {
  int64_t cost_calls = 0;
  int64_t cost_requests = 0;
  int64_t local_calls = 0;
  int64_t querygrid_calls = 0;
  int64_t remote_requests = 0;
  int64_t candidates_costed = 0;
  int64_t dp_entries = 0;
  int64_t pruned = 0;
};

Result<fed::QueryPlan> MirrorPlan(fed::IntelliSphere& sphere,
                                  const RemoteBatchFn& remote_batch,
                                  const fed::QuerySpec& spec,
                                  const core::EstimateContext& ctx,
                                  SpanRecorder* rec, MirrorCounts* counts) {
  fed::PlanSearchInput input;
  input.spec = &spec;
  {
    ScopedSpan span(rec, "federation.catalog");
    input.tables.reserve(spec.relations.size());
    for (const fed::QuerySpec::Relation& r : spec.relations) {
      ISPHERE_ASSIGN_OR_RETURN(rel::TableDef def, sphere.GetTable(r.table));
      input.tables.push_back(std::move(def));
    }
  }
  input.master = fed::kTeradataSystemName;
  const eng::LocalCostModel& local = sphere.local_model();
  const fed::QueryGrid& grid = sphere.query_grid();
  input.cost = [&](const std::vector<fed::PlanCostRequest>& requests,
                   const core::EstimateContext& bctx) {
    ++counts->cost_calls;
    counts->cost_requests += static_cast<int64_t>(requests.size());
    std::vector<Result<core::HybridEstimate>> out(
        requests.size(),
        Result<core::HybridEstimate>(Status::Internal("request not costed")));
    {
      ScopedSpan span(rec, "engine.local_cost");
      for (size_t i = 0; i < requests.size(); ++i) {
        if (requests[i].system != fed::kTeradataSystemName) continue;
        ++counts->local_calls;
        auto seconds = local.EstimateSeconds(requests[i].op);
        if (seconds.ok()) {
          core::HybridEstimate est;
          est.seconds = seconds.value();
          out[i] = std::move(est);
        } else {
          out[i] = seconds.status();
        }
      }
    }
    std::vector<serving::EstimateRequest> remote;
    std::vector<size_t> positions;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].system == fed::kTeradataSystemName) continue;
      serving::EstimateRequest request;
      request.system = requests[i].system;
      request.op = requests[i].op;
      request.now = bctx.now;
      request.policy_override = bctx.policy_override;
      remote.push_back(std::move(request));
      positions.push_back(i);
    }
    counts->remote_requests += static_cast<int64_t>(remote.size());
    if (!remote.empty()) {
      std::vector<Result<core::HybridEstimate>> results;
      {
        ScopedSpan span(rec, "serving.batch");
        results = remote_batch(remote, bctx);
      }
      for (size_t j = 0; j < positions.size() && j < results.size(); ++j) {
        out[positions[j]] = std::move(results[j]);
      }
    }
    return out;
  };
  input.transfer = [&](const std::string& from, const std::string& to,
                       int64_t rows, int64_t row_bytes) -> Result<double> {
    ++counts->querygrid_calls;
    ScopedSpan span(rec, "federation.querygrid");
    return grid.RelaySeconds(from, to, rows, row_bytes);
  };
  Result<fed::QueryPlan> plan = Status::Internal("not planned");
  {
    ScopedSpan span(rec, "federation.dp");
    plan = fed::SearchPlan(input, fed::PlannerOptions{}, ctx);
  }
  if (plan.ok()) {
    counts->candidates_costed += plan.value().candidates_costed;
    counts->dp_entries += plan.value().dp_entries;
    counts->pruned += static_cast<int64_t>(plan.value().pruned.size());
  }
  return plan;
}

RemoteBatchFn ViaAdmission(const serving::AdmissionController& admission) {
  return [&admission](std::span<const serving::EstimateRequest> requests,
                      const core::EstimateContext& ctx) {
    return admission.EstimateBatch(requests, ctx);
  };
}

RemoteBatchFn ViaService(const serving::EstimationService& service) {
  return [&service](std::span<const serving::EstimateRequest> requests,
                    const core::EstimateContext& ctx) {
    return service.EstimateBatch(requests, ctx);
  };
}

/// Everything EXPLAIN would show of a plan's decision, as exact bits: each
/// candidate's total and root site, and each node's costs and site.
std::string PlanFingerprint(const fed::QueryPlan& plan) {
  std::string out;
  char buf[96];
  for (const fed::QueryPlanCandidate& c : plan.candidates) {
    std::snprintf(buf, sizeof(buf), "c%a@%d;", c.total_seconds, c.root);
    out += buf;
  }
  for (const fed::QueryPlanNode& n : plan.nodes) {
    std::snprintf(buf, sizeof(buf), "n%a/%a/%a@", n.transfer_seconds,
                  n.operator_seconds, n.subtree_seconds);
    out += buf;
    out += n.system;
    out += ';';
  }
  return out;
}

/// Every non-table node's estimate is a positive finite number.
bool EstimatesPositive(const fed::QueryPlan& plan) {
  for (const fed::QueryPlanNode& n : plan.nodes) {
    if (n.kind == fed::QueryPlanNode::Kind::kTable) continue;
    if (!(n.operator_seconds > 0.0) || !std::isfinite(n.operator_seconds)) {
      return false;
    }
  }
  for (const fed::QueryPlanCandidate& c : plan.candidates) {
    if (!(c.total_seconds > 0.0) || !std::isfinite(c.total_seconds)) return false;
  }
  return !plan.candidates.empty();
}

// ---------------------------------------------------------------------------
// estimate-cold inputs: the planner's own remote traffic.

/// Fresh specs for estimate-cold: 3-6 relations (the plan-hot shapes), at
/// every growth step alike, so most of their remote operators read tables
/// beyond the trained range.
std::vector<fed::QuerySpec> ColdSpecs(const Deployment& d, uint64_t seed, int count) {
  Rng rng(seed * 101 + 3);
  Rng layout(kColdLayoutSeed);
  std::vector<fed::QuerySpec> specs;
  for (int i = 0; i < count; ++i) {
    specs.push_back(
        RandomSpec(&rng, &layout, d, ShapeAt(i / kGrowthSteps, 3, 4), i % kGrowthSteps));
  }
  return specs;
}

/// Whether an operator reads an input larger than the hive networks'
/// training grid.
bool BeyondTrainedRange(const rel::SqlOperator& op) {
  switch (op.type) {
    case rel::OperatorType::kJoin:
      return std::max(op.join.left.num_rows, op.join.right.num_rows) > kTrainedRowsMax;
    case rel::OperatorType::kAggregation:
      return op.agg.input.num_rows > kTrainedRowsMax;
    case rel::OperatorType::kScan:
      return op.scan.input.num_rows > kTrainedRowsMax;
  }
  return false;
}

/// The estimate-cold request stream. Each remote batch the DP search sends
/// (one per DP level) while planning the cold specs is one request, kept in
/// planning order; the universe is their distinct operators in first-seen
/// order. The specs are planned through the PlanQuery mirror on a
/// cache-less service, so the traffic is what the planner really sends and
/// the deployment's cache stays untouched.
struct ColdInputs {
  std::vector<serving::EstimateRequest> universe;
  std::vector<std::vector<serving::EstimateRequest>> batches;
  int64_t requests = 0;
  int64_t beyond_trained = 0;  ///< requests beyond the trained range
  int64_t batch_repeats = 0;   ///< requests repeating one earlier in their batch
  size_t min_batch = 0;
  size_t max_batch = 0;
};

Result<ColdInputs> MakeColdInputs(Deployment& d, uint64_t seed) {
  ColdInputs in;
  serving::ServiceOptions nocache = BenchServiceOptions();
  nocache.cache.capacity = 0;
  serving::EstimationService cacheless(&d.sphere().cost_estimator(), nocache);
  std::unordered_set<std::string> seen;
  const RemoteBatchFn record = [&](std::span<const serving::EstimateRequest> requests,
                                   const core::EstimateContext& ctx) {
    std::vector<serving::EstimateRequest> batch(requests.begin(), requests.end());
    std::unordered_set<std::string> in_batch;
    for (const serving::EstimateRequest& r : batch) {
      std::string key =
          serving::CanonicalCacheKey(r.system, r.op, std::nullopt, false, true, 0);
      in.batch_repeats += in_batch.insert(key).second ? 0 : 1;
      if (seen.insert(std::move(key)).second) in.universe.push_back(r);
      in.beyond_trained += BeyondTrainedRange(r.op) ? 1 : 0;
    }
    in.requests += static_cast<int64_t>(batch.size());
    in.min_batch = in.batches.empty() ? batch.size() : std::min(in.min_batch, batch.size());
    in.max_batch = std::max(in.max_batch, batch.size());
    in.batches.push_back(std::move(batch));
    return cacheless.EstimateBatch(requests, ctx);
  };
  MirrorCounts counts;
  for (const fed::QuerySpec& spec : ColdSpecs(d, seed, kColdSpecs)) {
    ISPHERE_RETURN_NOT_OK(MirrorPlan(d.sphere(), record, spec, {}, nullptr, &counts).status());
  }
  if (in.batches.empty()) return Status::Internal("the cold specs sent no remote requests");
  return in;
}

// ---------------------------------------------------------------------------
// Result assembly.

/// The start of one timed request. The switch count is read first and the
/// clocks last, so the syscall stays outside the measured interval.
struct RequestStart {
  int64_t switches = ThreadVoluntarySwitches();
  int64_t wall_ns = NowNs();
  int64_t cpu_ns = ThreadCpuNs();
};

/// Latency of one request that ran from `start` until now, in
/// nanoseconds, and the part of its wall time left out as preemption.
/// A request that never gave up the CPU of its own accord (no voluntary
/// context switch) was off the CPU only because it was preempted: by the
/// host taking this VM's vCPU (up to 10 ms at a time, about 1% of wall
/// time, and far more in bursts) or by another thread. Its latency is its
/// on-CPU time, and the rest is a stall. A request that waited (a lock, a
/// hand-off to a pool, a sleep) keeps its whole wall time, waiting
/// included: that wait is the program's cost.
struct RequestTime {
  int64_t latency_ns = 0;
  int64_t stall_ns = 0;
  int64_t wall_ns = 0;
  bool blocked = false;
};

RequestTime FinishRequest(const RequestStart& start) {
  RequestTime t;
  const int64_t cpu = ThreadCpuNs() - start.cpu_ns;
  t.wall_ns = NowNs() - start.wall_ns;
  t.blocked = ThreadVoluntarySwitches() != start.switches;
  t.latency_ns = t.blocked ? t.wall_ns : std::min(cpu, t.wall_ns);
  t.stall_ns = t.wall_ns - t.latency_ns;
  return t;
}

/// One measured phase: per-request latencies (see FinishRequest), scaled to
/// nominal host speed by the blocks' speed probes (see HostSpeed). The raw
/// wall times are kept for the raw.* metrics.
struct Timed {
  std::vector<double> latencies_us;  ///< raw wall time
  std::vector<double> on_cpu_us;     ///< latency before host-speed scaling
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t blocked = 0;  ///< requests that waited of their own accord
  HostSpeed speed;

  void Record(const RequestStart& start) {
    const RequestTime t = FinishRequest(start);
    latencies_us.push_back(static_cast<double>(t.wall_ns) * 1e-3);
    on_cpu_us.push_back(static_cast<double>(t.latency_ns) * 1e-3);
    speed.AddStall(t.stall_ns);
    blocked += t.blocked ? 1 : 0;
  }
  std::vector<double> Scaled() const { return speed.Scale(on_cpu_us); }
  double ScaledMean() const { return Mean(Scaled()); }
};

void PutE2e(WorkloadResult* res, const std::string& name, double value,
            const std::string& unit) {
  res->end_to_end[name] = Metric{value, unit};
}
void PutLayer(WorkloadResult* res, const std::string& name, double value,
              const std::string& unit) {
  res->per_layer[name] = Metric{value, unit};
}

/// End-to-end latency and throughput of a phase, at nominal host speed;
/// the raw wall-clock figures go to the report and the per-layer metrics.
void ReportLatency(WorkloadResult* res, const Timed& t) {
  const std::vector<double> scaled = t.Scaled();
  const double p99 = Quantile(scaled, 0.99);
  int64_t beyond = 0;
  for (double x : scaled) beyond += x > p99 ? 1 : 0;
  const double completed = static_cast<double>(t.attempted - t.failed);
  const double scaled_s = t.speed.ScaledSeconds();
  const double raw_s = t.speed.RawSeconds();
  PutE2e(res, "requests_per_s", scaled_s > 0.0 ? completed / scaled_s : 0.0, "1/s");
  PutE2e(res, "latency_p50_us", Quantile(scaled, 0.50), "us");
  PutE2e(res, "latency_p99_us", p99, "us");
  PutE2e(res, "answered_fraction",
         t.attempted > 0 ? completed / static_cast<double>(t.attempted) : 0.0,
         "fraction");
  PutLayer(res, "latency_samples", static_cast<double>(scaled.size()), "count");
  PutLayer(res, "failed_fraction",
           t.attempted > 0 ? static_cast<double>(t.failed) / static_cast<double>(t.attempted)
                           : 0.0,
           "fraction");
  PutLayer(res, "latency.blocked_share",
           scaled.empty() ? 0.0 : static_cast<double>(t.blocked) / static_cast<double>(scaled.size()),
           "fraction");
  PutLayer(res, "raw.latency_p50_us", Quantile(t.latencies_us, 0.50), "us");
  PutLayer(res, "raw.latency_p99_us", Quantile(t.latencies_us, 0.99), "us");
  PutLayer(res, "raw.requests_per_s", raw_s > 0.0 ? completed / raw_s : 0.0, "1/s");
  PutLayer(res, "host.probe_us", t.speed.MedianProbeUs(), "us");
  char line[280];
  std::snprintf(line, sizeof(line),
                "latency: %zu samples (%lld beyond p99, %lld waited) in %zu blocks; "
                "at nominal host speed p50 %.2f us, p99 %.2f us, %.1f requests/s; raw "
                "p50 %.2f us, p99 %.2f us over %.2f s (probe median %.1f us)",
                scaled.size(), static_cast<long long>(beyond),
                static_cast<long long>(t.blocked), t.speed.blocks(),
                Quantile(scaled, 0.50), p99, scaled_s > 0 ? completed / scaled_s : 0.0,
                Quantile(t.latencies_us, 0.50), Quantile(t.latencies_us, 0.99), raw_s,
                t.speed.MedianProbeUs());
  res->report.push_back(line);
  if (beyond < 10) {
    res->Fail("fewer than 10 latency samples beyond p99 (" +
              std::to_string(beyond) + "): the run is too short");
  }
  res->attempted += t.attempted;
  res->failed += t.failed;
}

void ReportQuality(WorkloadResult* res, const std::vector<double>& qerrors,
                   const std::vector<double>& regrets) {
  const double regret = Mean(regrets);
  PutE2e(res, "qerror_p50", Quantile(qerrors, 0.50), "x");
  PutE2e(res, "qerror_p95", Quantile(qerrors, 0.95), "x");
  PutE2e(res, "plan_cost_ratio_mean", 1.0 + regret, "x");
  PutLayer(res, "regret_mean", regret, "x");
  PutLayer(res, "quality.estimates", static_cast<double>(qerrors.size()), "count");
  PutLayer(res, "quality.plans", static_cast<double>(regrets.size()), "count");
  for (double q : qerrors) {
    if (!std::isfinite(q)) {
      res->Fail("an estimate in the quality sample is not finite and > 0");
      break;
    }
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "quality: q-error p50 %.4f p90 %.4f p95 %.4f p99 %.4f over %zu "
                "estimates; regret mean %.4f over %zu choices",
                Quantile(qerrors, 0.5), Quantile(qerrors, 0.9), Quantile(qerrors, 0.95),
                Quantile(qerrors, 0.99), qerrors.size(),
                regret, regrets.size());
  res->report.push_back(line);
}

/// Per-layer metrics of the traced phase, from the recorder's self-time
/// table and the public counters.
struct LayerInputs {
  const SpanRecorder* rec = nullptr;
  const MirrorCounts* counts = nullptr;
  int64_t requests = 0;
  MetricsSnapshot before;
  MetricsSnapshot after;
  serving::CacheStats cache_before;
  serving::CacheStats cache_after;
  serving::AdmissionStats admission_before;
  serving::AdmissionStats admission_after;
};

void ReportLayers(WorkloadResult* res, const LayerInputs& in) {
  const SpanRecorder& rec = *in.rec;
  const int64_t n = in.requests;
  auto us = [&](const char* layer) { return PerRequest(rec.SelfNs(layer), n) * 1e-3; };
  const double dp_self = us("federation.dp");
  const double local_us = us("engine.local_cost");
  const double grid_us = us("federation.querygrid");
  const MirrorCounts& c = *in.counts;
  PutLayer(res, "federation.search_us",
           PerRequest(rec.InclusiveNs("federation.dp"), n) * 1e-3, "us");
  PutLayer(res, "federation.dp_self_us", dp_self, "us");
  PutLayer(res, "federation.cost_calls", PerRequest(static_cast<double>(c.cost_calls), n), "count");
  PutLayer(res, "federation.cost_batch_size",
           c.cost_calls > 0 ? static_cast<double>(c.cost_requests) / static_cast<double>(c.cost_calls) : 0.0,
           "count");
  PutLayer(res, "federation.candidates_costed", PerRequest(static_cast<double>(c.candidates_costed), n), "count");
  PutLayer(res, "federation.dp_entries", PerRequest(static_cast<double>(c.dp_entries), n), "count");
  PutLayer(res, "federation.pruned", PerRequest(static_cast<double>(c.pruned), n), "count");
  PutLayer(res, "federation.catalog_us", us("federation.catalog"), "us");
  PutLayer(res, "federation.querygrid_us", grid_us, "us");
  PutLayer(res, "federation.querygrid_calls", PerRequest(static_cast<double>(c.querygrid_calls), n), "count");
  PutLayer(res, "engine.local_cost_us", local_us, "us");
  PutLayer(res, "engine.local_cost_calls", PerRequest(static_cast<double>(c.local_calls), n), "count");
  const int64_t serving_calls = rec.SpanCount("serving.batch");
  PutLayer(res, "serving.batch_us",
           serving_calls > 0 ? rec.SelfNs("serving.batch") * 1e-3 / static_cast<double>(serving_calls) : 0.0,
           "us");
  PutLayer(res, "serving.calls", PerRequest(static_cast<double>(serving_calls), n), "count");
  {
    const serving::AdmissionStats& a = in.admission_after;
    const serving::AdmissionStats& b = in.admission_before;
    PutLayer(res, "serving.admission.admitted", PerRequest(static_cast<double>(a.admitted - b.admitted), n), "count");
    PutLayer(res, "serving.admission.degraded", PerRequest(static_cast<double>(a.degraded - b.degraded), n), "count");
    PutLayer(res, "serving.admission.shed",
             PerRequest(static_cast<double>((a.shed_load - b.shed_load) + (a.shed_deadline - b.shed_deadline)), n),
             "count");
  }
  const serving::CacheStats& ca = in.cache_after;
  const serving::CacheStats& cb = in.cache_before;
  const int64_t hits = ca.hits - cb.hits;
  const int64_t misses = ca.misses - cb.misses;
  PutLayer(res, "serving.requests_per_call",
           serving_calls > 0 ? static_cast<double>(c.remote_requests) / static_cast<double>(serving_calls) : 0.0,
           "count");
  PutLayer(res, "serving.us_per_miss",
           misses > 0 ? rec.SelfNs("serving.batch") * 1e-3 / static_cast<double>(misses) : 0.0, "us");
  PutLayer(res, "serving.cache.hit_rate",
           hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0,
           "fraction");
  PutLayer(res, "serving.cache.evictions", PerRequest(static_cast<double>(ca.evictions - cb.evictions), n), "count");
  PutLayer(res, "serving.cache.stale_epoch", PerRequest(static_cast<double>(ca.stale_epoch - cb.stale_epoch), n), "count");
  PutLayer(res, "serving.cache.entries", static_cast<double>(ca.entries), "count");
  PutLayer(res, "serving.cache.locked_gets", PerRequest(static_cast<double>(ca.locked_gets - cb.locked_gets), n), "count");
  for (const char* name : {"estimate.approach.logical_op", "estimate.approach.sub_op",
                           "estimate.remedy.activations", "estimate.subop.eliminated",
                           "estimate.degraded"}) {
    PutLayer(res, name, PerRequest(Counter(in.after, name) - Counter(in.before, name), n), "count");
  }
  PutLayer(res, "client_self_us", us("client"), "us");
}

// ---------------------------------------------------------------------------
// Onboarding.

struct Onboarded {
  std::unique_ptr<Deployment> deployment;
  std::vector<double> setup_s;      ///< at nominal host speed
  std::vector<double> raw_setup_s;  ///< wall time
  std::vector<SetupTimes> times;    ///< at nominal host speed
  int waited = 0;                   ///< onboardings that waited (FinishRequest)
};

/// Median time of three runs of the dense probe, in nanoseconds.
double DenseProbeNs(DenseProbe* probe) {
  std::vector<double> ns;
  for (int i = 0; i < 3; ++i) ns.push_back(static_cast<double>(probe->Run()));
  return Quantile(ns, 0.5);
}

/// The dense probe's time on an uncontended 2.1 GHz Xeon vCPU (GCC 12, -O3).
constexpr double kNominalDenseProbeNs = 1.3e6;

/// Onboards kSetupRepeats times (keeping the last deployment); `warmup`
/// runs inside the timed setup and returns a fingerprint that must agree
/// across the repeats (onboarding is deterministic). Each onboarding is
/// timed like a request (see FinishRequest: preemption is left out, any
/// wait is kept) and scaled to nominal host speed by the dense probe run
/// just before and just after it.
Result<Onboarded> Onboard(const std::function<Result<std::string>(Deployment&)>& warmup,
                          WorkloadResult* res) {
  Onboarded out;
  std::string first;
  DenseProbe probe;
  for (int k = 0; k < kSetupRepeats; ++k) {
    out.deployment.reset();
    SetupTimes times;
    const double before_ns = DenseProbeNs(&probe);
    const RequestStart start;
    ISPHERE_ASSIGN_OR_RETURN(out.deployment, Deployment::Create({}, &times));
    ISPHERE_ASSIGN_OR_RETURN(std::string fingerprint, warmup(*out.deployment));
    const RequestTime t = FinishRequest(start);
    const double factor = kNominalDenseProbeNs / (0.5 * (before_ns + DenseProbeNs(&probe)));
    out.setup_s.push_back(static_cast<double>(t.latency_ns) * 1e-9 * factor);
    out.raw_setup_s.push_back(static_cast<double>(t.wall_ns) * 1e-9);
    out.waited += t.blocked ? 1 : 0;
    times.calibrate_s *= factor;
    times.collect_s *= factor;
    times.train_s *= factor;
    out.times.push_back(times);
    if (k == 0) {
      first = fingerprint;
    } else if (fingerprint != first) {
      res->Fail("onboarding is not deterministic: repeat " + std::to_string(k) +
                " disagrees with the first");
    }
  }
  return out;
}

void ReportSetup(WorkloadResult* res, const Onboarded& o) {
  std::vector<double> cal, col, train;
  for (const SetupTimes& t : o.times) {
    cal.push_back(t.calibrate_s);
    col.push_back(t.collect_s);
    train.push_back(t.train_s);
  }
  PutE2e(res, "setup_s", Quantile(o.setup_s, 0.5), "s");
  PutLayer(res, "raw.setup_s", Quantile(o.raw_setup_s, 0.5), "s");
  PutLayer(res, "setup.calibrate_s", Quantile(cal, 0.5), "s");
  PutLayer(res, "setup.collect_s", Quantile(col, 0.5), "s");
  PutLayer(res, "setup.train_s", Quantile(train, 0.5), "s");
  char line[200];
  std::snprintf(line, sizeof(line),
                "setup: median %.3f s at nominal host speed over %d onboardings "
                "(calibrate %.3f, collect %.3f, train %.3f); raw %.3f s; %d waited",
                Quantile(o.setup_s, 0.5), kSetupRepeats, Quantile(cal, 0.5),
                Quantile(col, 0.5), Quantile(train, 0.5), Quantile(o.raw_setup_s, 0.5),
                o.waited);
  res->report.push_back(line);
}

/// Layers of feedback-drift's write path: they run in each iteration but
/// outside the timed request (planning), so reconciliation leaves them out.
bool OutsideRequest(const std::string& layer) {
  return layer == "iteration" || layer.rfind("lifecycle.", 0) == 0 ||
         layer.rfind("remote.", 0) == 0;
}

/// The traced phase's self-time table, and the reconciliation of the
/// request's named layers (federation, engine, serving) with the untraced
/// latency. The `client` root span is left out of the sum: self times of a
/// span tree always add up to its root's inclusive time, so counting the
/// root would make the check hold by construction. What the named layers
/// do not cover (the client's own work, and whatever the library does
/// outside the mirrored boundaries) is `client_self_us` and makes the sum
/// fall short. Self times are raw span durations; they are scaled by the
/// traced phase's mean host-speed factor before they are compared with
/// the untraced phase's latency at nominal speed.
void ReportSelfTimes(WorkloadResult* res, const SpanRecorder& rec,
                     const Timed& traced, double untraced_mean_us,
                     bool must_reconcile) {
  const int64_t requests = traced.attempted;
  const double traced_mean_us = traced.ScaledMean();
  const double raw_mean_us = Mean(traced.latencies_us);
  const double scale = raw_mean_us > 0.0 ? traced_mean_us / raw_mean_us : 1.0;
  double sum_us = 0.0;
  res->report.push_back("self time per request, by layer (traced phase):");
  for (const auto& [layer, totals] : rec.layers()) {
    const double self_us = PerRequest(totals.self_ns, requests) * 1e-3;
    if (layer != "client" && !OutsideRequest(layer)) sum_us += self_us;
    char line[160];
    std::snprintf(line, sizeof(line), "  %-26s %10.3f us  %8.2f spans/request",
                  layer.c_str(), self_us,
                  PerRequest(static_cast<double>(totals.spans), requests));
    res->report.push_back(line);
  }
  const double overhead = untraced_mean_us > 0 ? traced_mean_us / untraced_mean_us : 0.0;
  const double reconcile = untraced_mean_us > 0 ? sum_us * scale / untraced_mean_us : 0.0;
  char line[220];
  std::snprintf(line, sizeof(line),
                "  named layers (all but client) %.3f us raw, %.3f us at nominal speed, "
                "vs untraced mean latency %.3f us (ratio %.4f); trace overhead %.4f",
                sum_us, sum_us * scale, untraced_mean_us, reconcile, overhead);
  res->report.push_back(line);
  PutLayer(res, "trace_overhead", overhead, "x");
  PutLayer(res, "trace.reconcile_ratio", reconcile, "x");
  if (must_reconcile && std::abs(reconcile - 1.0) > 0.10) {
    char why[200];
    std::snprintf(why, sizeof(why),
                  "named layer self times (%.3f us) do not reconcile with the "
                  "untraced latency (%.3f us) within 10%%",
                  sum_us * scale, untraced_mean_us);
    res->Fail(why);
  }
  if (!rec.last_request().empty()) {
    res->report.push_back("sample trace (last traced request; start offset, duration, parent):");
    const SpanRecorder::Span& first = rec.last_request().front();
    int shown = 0;
    for (const SpanRecorder::Span& s : rec.last_request()) {
      if (++shown > 24) {
        res->report.push_back("  ...");
        break;
      }
      char l[160];
      std::snprintf(l, sizeof(l), "  [%lld] %-24s +%9.3f us %9.3f us parent=%d",
                    static_cast<long long>(s.request), s.name,
                    rec.OffsetNs(first, s) * 1e-3, rec.DurationNs(s) * 1e-3, s.parent);
      res->report.push_back(l);
    }
  }
}

/// Zero-valued write-path metrics for the workloads that have no write
/// path, so every traced result carries the full per-layer set.
void FillAbsentLayers(WorkloadResult* res) {
  static const char* const kAll[][2] = {
      {"remote.execute_us", "us"}, {"remote.executions", "count"},
      {"lifecycle.record_us", "us"}, {"lifecycle.tick_us", "us"},
      {"lifecycle.retrain_wait_ms", "ms"}, {"lifecycle.drift_detected", "count"},
      {"lifecycle.retrains_completed", "count"}, {"lifecycle.swaps", "count"},
      {"lifecycle.shadow_rejected", "count"}, {"lifecycle.ingest_dropped", "count"},
  };
  for (const auto& m : kAll) {
    if (res->per_layer.count(m[0]) == 0) PutLayer(res, m[0], 0.0, m[1]);
  }
}

/// estimate-cold quality over the fixed evaluation set (kColdQualitySeed):
/// q-error of each estimate on its own engine, and the regret of running
/// the operator on whichever engine has the lower estimate.
/// `traffic` plans the evaluation set; `estimator` is judged.
Status ColdQuality(Deployment& traffic, const core::CostEstimator& estimator,
                   std::vector<double>* qerrors, std::vector<double>* regrets) {
  ISPHERE_ASSIGN_OR_RETURN(ColdInputs in, MakeColdInputs(traffic, kColdQualitySeed));
  ExecutionOracle oracle(kColdQualitySeed, traffic.sphere().local_model());
  for (const serving::EstimateRequest& r : in.universe) {
    ISPHERE_ASSIGN_OR_RETURN(core::HybridEstimate est, estimator.Estimate(r.system, r.op));
    ISPHERE_ASSIGN_OR_RETURN(double actual, oracle.Actual(r.system, r.op));
    qerrors->push_back(QError(est.seconds, actual));
    auto hive = estimator.Estimate("hive", r.op);
    auto spark = estimator.Estimate("spark", r.op);
    if (!hive.ok() || !spark.ok()) continue;
    ISPHERE_ASSIGN_OR_RETURN(double hive_actual, oracle.Actual("hive", r.op));
    ISPHERE_ASSIGN_OR_RETURN(double spark_actual, oracle.Actual("spark", r.op));
    const double chosen =
        hive.value().seconds <= spark.value().seconds ? hive_actual : spark_actual;
    regrets->push_back(chosen / std::min(hive_actual, spark_actual) - 1.0);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// plan-hot

Result<std::vector<traffic::TrafficEvent>> PlanHotTraffic(uint64_t seed) {
  traffic::TrafficOptions t;
  t.tenants = kTenants;
  t.duration_seconds = kPlanHotTraceSeconds;
  t.base_rate = kPlanHotRate;
  t.zipf_exponent = 1.1;
  t.diurnal_amplitude = 0.2;
  t.diurnal_period_seconds = 600.0;
  t.burst_factor = 1.0;
  t.background_fraction = 0.0;
  t.seed = seed * 13 + 7;
  return traffic::GenerateTraffic(t, kPlanHotPool);
}

/// The pool: popularity rank i gets ShapeAt(i) (3-6 relations, chain or
/// star, with or without GROUP BY), so every seed weighs the same
/// structures equally. The quality sample continues the same sequence.
std::vector<fed::QuerySpec> PlanHotSpecs(const Deployment& d, uint64_t seed,
                                         int count) {
  Rng rng(seed * 17 + 11);
  std::vector<fed::QuerySpec> specs;
  for (int i = 0; i < count; ++i) {
    specs.push_back(RandomSpec(&rng, &rng, d, ShapeAt(i, 3, 4), 0));
  }
  return specs;
}

/// Plans the pool once through PlanQuery (the warm-up that fills the cache).
Result<std::vector<fed::QueryPlan>> PlanPool(Deployment& d,
                                             const std::vector<fed::QuerySpec>& pool) {
  std::vector<fed::QueryPlan> plans;
  for (const fed::QuerySpec& spec : pool) {
    ISPHERE_ASSIGN_OR_RETURN(fed::QueryPlan plan, d.sphere().PlanQuery(spec));
    plans.push_back(std::move(plan));
  }
  return plans;
}

/// plan-hot quality: plans each spec through the PlanQuery mirror on a
/// cache-less service (bit-identical plans, as the checks pin, without
/// touching the workload's cache or admission state), then takes the
/// q-error of every remote estimate behind the completed candidates and
/// the regret of the choice. Plans are judged one at a time, so the sample
/// does not sit in memory.
Status PlanSampleQuality(Deployment& d, const std::vector<fed::QuerySpec>& specs,
                         ExecutionOracle* oracle, std::vector<double>* qerrors,
                         std::vector<double>* regrets) {
  serving::ServiceOptions nocache = BenchServiceOptions();
  nocache.cache.capacity = 0;
  serving::EstimationService cacheless(&d.sphere().cost_estimator(), nocache);
  MirrorCounts scratch;
  for (const fed::QuerySpec& spec : specs) {
    ISPHERE_ASSIGN_OR_RETURN(
        fed::QueryPlan plan,
        MirrorPlan(d.sphere(), ViaService(cacheless), spec, {}, nullptr, &scratch));
    ISPHERE_RETURN_NOT_OK(oracle->PlanQErrors(plan, qerrors));
    ISPHERE_ASSIGN_OR_RETURN(double regret, oracle->Regret(plan));
    regrets->push_back(regret);
  }
  return Status::OK();
}

Status RunPlanHot(const RunOptions& o, WorkloadResult* res) {
  ISPHERE_ASSIGN_OR_RETURN(std::vector<traffic::TrafficEvent> events,
                           PlanHotTraffic(o.seed));
  std::vector<fed::QuerySpec> pool;
  std::vector<fed::QueryPlan> reference;
  ISPHERE_ASSIGN_OR_RETURN(
      Onboarded onboarded,
      Onboard(
          [&](Deployment& d) -> Result<std::string> {
            pool = PlanHotSpecs(d, o.seed, kPlanHotPool);
            ISPHERE_ASSIGN_OR_RETURN(reference, PlanPool(d, pool));
            std::string fp;
            for (const fed::QueryPlan& p : reference) fp += PlanFingerprint(p);
            return fp;
          },
          res));
  ReportSetup(res, onboarded);
  Deployment& d = *onboarded.deployment;
  const std::vector<std::string> tenants = TenantNames();

  std::vector<double> ref_total;
  for (const fed::QueryPlan& p : reference) {
    if (!EstimatesPositive(p)) res->Fail("a pool plan holds a non-positive estimate");
    ref_total.push_back(p.candidates.empty() ? 0.0 : p.candidates[0].total_seconds);
  }
  const serving::CacheStats warm = d.service().cache_stats();
  {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "plan-hot: pool of %d specs (3-6 relations), %zu arrivals "
                  "over %d tenants, %lld distinct remote cost keys cached",
                  kPlanHotPool, events.size(), kTenants,
                  static_cast<long long>(warm.entries));
    res->report.push_back(line);
  }
  if (warm.evictions != 0) res->Fail("the plan-hot pool does not fit the cache");

  // One request of the stream: a PlanQuery behind the admission controller,
  // or its traced mirror.
  MirrorCounts counts;
  SpanRecorder rec;
  int64_t mismatches = 0;
  auto run = [&](double seconds, bool traced, size_t* cursor, Timed* t) {
    const RemoteBatchFn remote = ViaAdmission(d.admission());
    const int64_t budget = static_cast<int64_t>(seconds * 1e9);
    const int64_t start = NowNs();
    for (;;) {
      t->speed.Before(t->latencies_us.size());
      const size_t i = (*cursor)++;
      const traffic::TrafficEvent& ev = events[i % events.size()];
      core::EstimateContext ctx;
      ctx.now = ev.time + kPlanHotTraceSeconds * static_cast<double>(i / events.size());
      ctx.tenant = tenants[static_cast<size_t>(ev.tenant)];
      const fed::QuerySpec& spec = pool[static_cast<size_t>(ev.item)];
      const RequestStart request;
      Result<fed::QueryPlan> plan = Status::Internal("not planned");
      if (traced) {
        ScopedSpan root(&rec, "client");
        plan = MirrorPlan(d.sphere(), remote, spec, ctx, &rec, &counts);
      } else {
        plan = d.sphere().PlanQuery(spec, ctx);
      }
      t->Record(request);
      if (traced) rec.EndRequest();
      ++t->attempted;
      if (!plan.ok()) {
        ++t->failed;
      } else if (plan.value().candidates.empty() ||
                 plan.value().candidates[0].total_seconds !=
                     ref_total[static_cast<size_t>(ev.item)]) {
        ++mismatches;
      }
      if (NowNs() - start >= budget) break;
    }
    t->speed.Finish(t->latencies_us.size());
  };

  size_t cursor = 0;
  const double untraced_seconds = o.trace ? o.seconds / 2 : o.seconds;
  Timed untraced;
  run(untraced_seconds, false, &cursor, &untraced);
  if (o.trace) {
    LayerInputs li;
    li.before = MetricsRegistry::Global().Snapshot();
    li.cache_before = d.service().cache_stats();
    li.admission_before = d.admission().Stats();
    Timed traced;
    run(o.seconds / 2, true, &cursor, &traced);
    li.after = MetricsRegistry::Global().Snapshot();
    li.cache_after = d.service().cache_stats();
    li.admission_after = d.admission().Stats();
    li.rec = &rec;
    li.counts = &counts;
    li.requests = traced.attempted;
    ReportLayers(res, li);
    ReportSelfTimes(res, rec, traced, untraced.ScaledMean(), true);
    res->attempted += traced.attempted;
    res->failed += traced.failed;
  }
  ReportLatency(res, untraced);
  if (mismatches != 0) {
    res->Fail(std::to_string(mismatches) +
              " cached plans differ from the warm-up plan of their spec");
  }

  // Correctness: the traced mirror and a fresh cache-less service give
  // bit-identical plans to PlanQuery's.
  serving::ServiceOptions nocache = BenchServiceOptions();
  nocache.cache.capacity = 0;
  serving::EstimationService cacheless(&d.sphere().cost_estimator(), nocache);
  for (size_t i = 0; i < pool.size(); ++i) {
    MirrorCounts scratch;
    SpanRecorder check_rec;
    Result<fed::QueryPlan> traced = Status::Internal("not planned");
    {
      ScopedSpan root(&check_rec, "client");
      traced = MirrorPlan(d.sphere(), ViaService(d.service()), pool[i], {},
                          &check_rec, &scratch);
    }
    const std::string want = PlanFingerprint(reference[i]);
    if (!traced.ok() || PlanFingerprint(traced.value()) != want) {
      res->Fail("traced plan of pool spec " + std::to_string(i) +
                " differs from PlanQuery's");
    }
    if (static_cast<int>(i) < kCachelessSample) {
      Result<fed::QueryPlan> fresh = MirrorPlan(d.sphere(), ViaService(cacheless),
                                                pool[i], {}, nullptr, &scratch);
      if (!fresh.ok() || PlanFingerprint(fresh.value()) != want) {
        res->Fail("cached plan of pool spec " + std::to_string(i) +
                  " differs from a cache-less service's");
      }
    }
  }

  // Quality of the pool's plans, outside the timed loop.
  ExecutionOracle oracle(o.seed, d.sphere().local_model());
  std::vector<double> qerrors;
  std::vector<double> regrets;
  ISPHERE_RETURN_NOT_OK(PlanSampleQuality(d, PlanHotSpecs(d, o.seed, kPlanHotQuality),
                                          &oracle, &qerrors, &regrets));
  ReportQuality(res, qerrors, regrets);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// estimate-cold

Status RunEstimateCold(const RunOptions& o, WorkloadResult* res) {
  ISPHERE_ASSIGN_OR_RETURN(
      Onboarded onboarded,
      Onboard(
          [&](Deployment& d) -> Result<std::string> {
            // Warm the code paths on the first cold specs; the cache is
            // cleared again before the timed loop.
            std::string fp;
            for (const fed::QuerySpec& spec : ColdSpecs(d, o.seed, 8)) {
              ISPHERE_ASSIGN_OR_RETURN(fed::QueryPlan p, d.sphere().PlanQuery(spec));
              fp += PlanFingerprint(p);
            }
            d.service().InvalidateCache();
            return fp;
          },
          res));
  ReportSetup(res, onboarded);
  Deployment& d = *onboarded.deployment;
  ISPHERE_ASSIGN_OR_RETURN(ColdInputs in, MakeColdInputs(d, o.seed));
  {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "estimate-cold: planner traffic of %d fresh specs: %zu batches of "
                  "%zu-%zu requests (mean %.1f), %lld requests over %zu distinct "
                  "operators (repeat share %.3f, within a batch %.3f; %.3f beyond "
                  "the trained range), cache capacity %lld",
                  kColdSpecs, in.batches.size(), in.min_batch, in.max_batch,
                  static_cast<double>(in.requests) / static_cast<double>(in.batches.size()),
                  static_cast<long long>(in.requests), in.universe.size(),
                  1.0 - static_cast<double>(in.universe.size()) / static_cast<double>(in.requests),
                  static_cast<double>(in.batch_repeats) / static_cast<double>(in.requests),
                  static_cast<double>(in.beyond_trained) / static_cast<double>(in.requests),
                  static_cast<long long>(BenchServiceOptions().cache.capacity));
    res->report.push_back(line);
  }

  SpanRecorder rec;
  MirrorCounts counts;
  int64_t non_positive = 0;
  auto run = [&](double seconds, bool traced, size_t* cursor, Timed* t) {
    const int64_t budget = static_cast<int64_t>(seconds * 1e9);
    const int64_t start = NowNs();
    for (;;) {
      t->speed.Before(t->latencies_us.size());
      const auto& batch = in.batches[(*cursor)++ % in.batches.size()];
      const RequestStart request;
      std::vector<Result<core::HybridEstimate>> results;
      {
        ScopedSpan root(traced ? &rec : nullptr, "client");
        ScopedSpan span(traced ? &rec : nullptr, "serving.batch");
        results = d.service().EstimateBatch(batch);
      }
      t->Record(request);
      if (traced) {
        rec.EndRequest();
        counts.remote_requests += static_cast<int64_t>(batch.size());
      }
      bool failed = results.size() != batch.size();
      for (const auto& r : results) {
        if (!r.ok()) {
          failed = true;
        } else if (!(r.value().seconds > 0.0) || !std::isfinite(r.value().seconds)) {
          ++non_positive;
        }
      }
      t->failed += failed ? 1 : 0;
      ++t->attempted;
      if (NowNs() - start >= budget) break;
    }
    t->speed.Finish(t->latencies_us.size());
  };

  size_t cursor = 0;
  const double untraced_seconds = o.trace ? o.seconds / 2 : o.seconds;
  Timed untraced;
  run(untraced_seconds, false, &cursor, &untraced);
  if (o.trace) {
    LayerInputs li;
    li.before = MetricsRegistry::Global().Snapshot();
    li.cache_before = d.service().cache_stats();
    li.admission_before = d.admission().Stats();
    Timed traced;
    run(o.seconds / 2, true, &cursor, &traced);
    li.after = MetricsRegistry::Global().Snapshot();
    li.cache_after = d.service().cache_stats();
    li.admission_after = d.admission().Stats();
    li.rec = &rec;
    li.counts = &counts;
    li.requests = traced.attempted;
    ReportLayers(res, li);
    ReportSelfTimes(res, rec, traced, untraced.ScaledMean(), true);
    res->attempted += traced.attempted;
    res->failed += traced.failed;
  }
  ReportLatency(res, untraced);
  if (non_positive != 0) {
    res->Fail(std::to_string(non_positive) + " estimates were not finite and > 0");
  }

  // Correctness: cached answers equal a fresh cache-less service's.
  serving::ServiceOptions nocache = BenchServiceOptions();
  nocache.cache.capacity = 0;
  serving::EstimationService cacheless(&d.sphere().cost_estimator(), nocache);
  const size_t checked = std::min<size_t>(32, in.batches.size());
  for (size_t b = 0; b < checked; ++b) {
    const auto& batch = in.batches[b];
    const auto cached = d.service().EstimateBatch(batch);
    const auto fresh = cacheless.EstimateBatch(batch);
    for (size_t j = 0; j < batch.size(); ++j) {
      if (!cached[j].ok() || !fresh[j].ok() ||
          cached[j].value().seconds != fresh[j].value().seconds) {
        res->Fail("a cached estimate differs from a cache-less service's");
        b = checked;
        break;
      }
    }
  }

  // Quality on the fixed evaluation set, outside the timed loop.
  std::vector<double> qerrors;
  std::vector<double> regrets;
  ISPHERE_RETURN_NOT_OK(ColdQuality(d, d.sphere().cost_estimator(), &qerrors, &regrets));
  ReportQuality(res, qerrors, regrets);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// feedback-drift

/// Stream `id` of the fixed set. Mostly new specs: three requests in ten
/// re-plan one of the last kDriftRepeatWindow specs (a dashboard refresh),
/// which is what lets a model swap's epoch bump show up as stale cache
/// entries.
std::vector<fed::QuerySpec> DriftStream(const Deployment& d, int id) {
  Rng rng(static_cast<uint64_t>(id) * 7919 + 23);
  std::vector<fed::QuerySpec> stream;
  const int per_step = kDriftEpisodeRequests / kGrowthSteps;
  for (int i = 0; i < kDriftEpisodeRequests; ++i) {
    const int step = i / per_step;
    const int window = std::min(i % per_step, kDriftRepeatWindow);
    if (window > 0 && i % 10 >= 7) {
      stream.push_back(stream[static_cast<size_t>(i - 1 - rng.UniformInt(0, window - 1))]);
    } else {
      stream.push_back(RandomSpec(&rng, &rng, d, ShapeAt(i, 3, 3), step));
    }
  }
  return stream;
}

int DriftStreamOf(uint64_t seed, int episode) {
  return static_cast<int>((seed + static_cast<uint64_t>(episode)) % kDriftStreams);
}

lifecycle::LifecycleOptions DriftLifecycleOptions(const Deployment& d) {
  lifecycle::LifecycleOptions opts;
  opts.drift.window = 32;
  opts.drift.min_samples = 16;
  opts.drift.threshold = 0.25;
  opts.retrain_window = 128;
  opts.shadow_fraction = 0.25;
  opts.admission = &d.admission();
  return opts;
}

struct Episode {
  std::vector<double> chosen_totals;
  std::vector<double> qerrors;
  std::vector<fed::QueryPlan> plans;
  lifecycle::LifecycleStats stats;
  int64_t executions = 0;
  int64_t non_positive = 0;
};

/// One episode: restore the onboarded models, then plan, execute, record
/// and tick through the whole stream, appending each request's planning
/// latency to `timed` (whose blocks span the whole iteration, so
/// requests_per_s includes the write path). Deterministic in the seed: the
/// client waits out every retrain before its next request.
Result<Episode> RunEpisode(Deployment& d, const std::vector<fed::QuerySpec>& stream,
                           intellisphere::ThreadPool* pool, SpanRecorder* rec,
                           MirrorCounts* counts, bool keep_plans, Timed* timed) {
  ISPHERE_RETURN_NOT_OK(d.RestoreHiveProfile());
  ISPHERE_RETURN_NOT_OK(d.ResetServing());
  Episode ep;
  lifecycle::LifecycleManager manager(&d.sphere().cost_estimator(), pool,
                                      DriftLifecycleOptions(d));
  // The executing engines are part of the fixed evaluation set (see
  // kDriftStreams): their noise does not follow the run seed.
  std::map<std::string, std::unique_ptr<remote::RemoteSystem>> engines;
  engines["hive"] = remote::HiveEngine::CreateDefault(
      "hive", OracleEngineSeed(kOnboardingSeed, "hive") + 1);
  engines["spark"] = remote::SparkEngine::CreateDefault(
      "spark", OracleEngineSeed(kOnboardingSeed, "spark") + 1);
  const std::vector<std::string> tenants = TenantNames();
  const RemoteBatchFn remote = ViaAdmission(d.admission());

  for (size_t i = 0; i < stream.size(); ++i) {
    timed->speed.Before(timed->latencies_us.size());
    const double now = static_cast<double>(i);
    core::EstimateContext ctx;
    ctx.now = now;
    ctx.tenant = tenants[i % tenants.size()];
    {
      ScopedSpan iteration(rec, "iteration");
      const RequestStart request;
      Result<fed::QueryPlan> plan = Status::Internal("not planned");
      if (rec != nullptr) {
        ScopedSpan client(rec, "client");
        plan = MirrorPlan(d.sphere(), remote, stream[i], ctx, rec, counts);
      } else {
        plan = d.sphere().PlanQuery(stream[i], ctx);
      }
      timed->Record(request);
      ++timed->attempted;
      if (!plan.ok() || plan.value().candidates.empty()) {
        ++timed->failed;
        ep.chosen_totals.push_back(-1.0);
      } else {
        const fed::QueryPlan& p = plan.value();
        if (!EstimatesPositive(p)) ++ep.non_positive;
        ep.chosen_totals.push_back(p.candidates[0].total_seconds);
        std::vector<int> stack = {p.candidates[0].root};
        while (!stack.empty()) {
          const fed::QueryPlanNode& node = p.nodes[static_cast<size_t>(stack.back())];
          stack.pop_back();
          for (int child : node.children) stack.push_back(child);
          if (node.kind == fed::QueryPlanNode::Kind::kTable ||
              node.system == fed::kTeradataSystemName) {
            continue;
          }
          Result<remote::QueryResult> executed = Status::Internal("not executed");
          {
            ScopedSpan span(rec, "remote.execute");
            executed = engines.at(node.system)->Execute(node.op);
          }
          ISPHERE_RETURN_NOT_OK(executed.status());
          ++ep.executions;
          const double actual = executed.value().elapsed_seconds;
          ep.qerrors.push_back(QError(node.operator_seconds, actual));
          ScopedSpan span(rec, "lifecycle.record");
          manager.Record(node.system, node.op, node.operator_seconds, actual, now);
        }
        if (keep_plans) ep.plans.push_back(std::move(plan).value());
      }
      {
        ScopedSpan span(rec, "lifecycle.tick");
        ISPHERE_RETURN_NOT_OK(manager.Tick(now));
      }
      ScopedSpan span(rec, "lifecycle.retrain_wait");
      while (manager.Stats().in_flight > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        ISPHERE_RETURN_NOT_OK(manager.Tick(now));
      }
    }
    if (rec != nullptr) rec->EndRequest();
  }
  timed->speed.Finish(timed->latencies_us.size());
  ep.stats = manager.Stats();
  return ep;
}

Status RunFeedbackDrift(const RunOptions& o, WorkloadResult* res) {
  ISPHERE_ASSIGN_OR_RETURN(
      Onboarded onboarded,
      Onboard(
          [&](Deployment& d) -> Result<std::string> {
            // Warm-up: plan the first requests of the first stream.
            const std::vector<fed::QuerySpec> stream = DriftStream(d, DriftStreamOf(o.seed, 0));
            std::string fp;
            for (int i = 0; i < 8; ++i) {
              ISPHERE_ASSIGN_OR_RETURN(fed::QueryPlan p,
                                       d.sphere().PlanQuery(stream[static_cast<size_t>(i)]));
              fp += PlanFingerprint(p);
            }
            return fp;
          },
          res));
  ReportSetup(res, onboarded);
  Deployment& d = *onboarded.deployment;
  intellisphere::ThreadPool pool(1);

  // Episodes cycle through the fixed streams (see kDriftStreams), so a run
  // averages over many streams; the first kDriftStreams episodes are the
  // quality sample.
  const double untraced_seconds = o.trace ? o.seconds / 2 : o.seconds;
  Timed untraced;
  std::vector<std::vector<double>> chosen;  // per episode, untraced
  std::vector<double> qerrors;
  std::vector<double> regrets;
  ExecutionOracle oracle(o.seed, d.sphere().local_model());
  Episode sum;
  int64_t non_positive = 0;
  // The stream the latest episode played: the cache-less check below
  // re-plans its tail against the cache that episode left behind.
  int last_stream = 0;
  const int64_t start = NowNs();
  int episodes = 0;
  while (episodes % kDriftStreams != 0 || SecondsSince(start) < untraced_seconds) {
    const bool quality = episodes < kDriftStreams;
    last_stream = DriftStreamOf(o.seed, episodes);
    ISPHERE_ASSIGN_OR_RETURN(
        Episode ep, RunEpisode(d, DriftStream(d, last_stream), &pool, nullptr,
                               nullptr, quality, &untraced));
    non_positive += ep.non_positive;
    sum.executions += ep.executions;
    sum.stats.drift_detected += ep.stats.drift_detected;
    sum.stats.retrains_completed += ep.stats.retrains_completed;
    sum.stats.swaps_applied += ep.stats.swaps_applied;
    if (quality) {
      qerrors.insert(qerrors.end(), ep.qerrors.begin(), ep.qerrors.end());
      for (const fed::QueryPlan& plan : ep.plans) {
        ISPHERE_ASSIGN_OR_RETURN(double regret, oracle.Regret(plan));
        regrets.push_back(regret);
      }
    }
    chosen.push_back(std::move(ep.chosen_totals));
    ++episodes;
  }
  {
    const double n = static_cast<double>(episodes);
    char line[240];
    std::snprintf(line, sizeof(line),
                  "feedback-drift: %d requests per episode (tables double every "
                  "%d), %d untraced episodes; per episode %.1f executions, "
                  "%.2f drift, %.2f retrains, %.2f swaps",
                  kDriftEpisodeRequests, kDriftEpisodeRequests / kGrowthSteps,
                  episodes, static_cast<double>(sum.executions) / n,
                  static_cast<double>(sum.stats.drift_detected) / n,
                  static_cast<double>(sum.stats.retrains_completed) / n,
                  static_cast<double>(sum.stats.swaps_applied) / n);
    res->report.push_back(line);
  }
  if (sum.stats.swaps_applied == 0) {
    res->Fail("no model swap landed: the drift workload did not exercise the lifecycle");
  }
  if (!o.trace) {
    // Determinism: replaying the first episode chooses the same plans.
    Timed scratch;
    last_stream = DriftStreamOf(o.seed, 0);
    ISPHERE_ASSIGN_OR_RETURN(Episode again, RunEpisode(d, DriftStream(d, last_stream), &pool,
                                                       nullptr, nullptr, false, &scratch));
    if (again.chosen_totals != chosen.front()) {
      res->Fail("replaying episode 0 chose different plans: the workload is not deterministic");
    }
  }

  if (o.trace) {
    SpanRecorder rec;
    MirrorCounts counts;
    LayerInputs li;
    li.before = MetricsRegistry::Global().Snapshot();
    Timed traced;
    int traced_episodes = 0;
    lifecycle::LifecycleStats life;
    int64_t executions = 0;
    serving::CacheStats cache_sum;
    serving::AdmissionStats admission_sum;
    const int64_t tstart = NowNs();
    while (traced_episodes % kDriftStreams != 0 || SecondsSince(tstart) < o.seconds / 2) {
      last_stream = DriftStreamOf(o.seed, traced_episodes);
      ISPHERE_ASSIGN_OR_RETURN(
          Episode ep, RunEpisode(d, DriftStream(d, last_stream), &pool, &rec,
                                 &counts, false, &traced));
      if (static_cast<size_t>(traced_episodes) < chosen.size() &&
          ep.chosen_totals != chosen[static_cast<size_t>(traced_episodes)]) {
        res->Fail("traced episode " + std::to_string(traced_episodes) +
                  " chose different plans than the untraced run");
      }
      executions += ep.executions;
      life.drift_detected += ep.stats.drift_detected;
      life.retrains_completed += ep.stats.retrains_completed;
      life.swaps_applied += ep.stats.swaps_applied;
      life.shadow_rejected += ep.stats.shadow_rejected;
      life.ingest.dropped += ep.stats.ingest.dropped;
      const serving::CacheStats c = d.service().cache_stats();
      cache_sum.hits += c.hits;
      cache_sum.misses += c.misses;
      cache_sum.evictions += c.evictions;
      cache_sum.stale_epoch += c.stale_epoch;
      cache_sum.locked_gets += c.locked_gets;
      cache_sum.entries = c.entries;
      const serving::AdmissionStats a = d.admission().Stats();
      admission_sum.admitted += a.admitted;
      admission_sum.degraded += a.degraded;
      admission_sum.shed_load += a.shed_load;
      admission_sum.shed_deadline += a.shed_deadline;
      ++traced_episodes;
    }
    li.after = MetricsRegistry::Global().Snapshot();
    li.cache_after = cache_sum;
    li.admission_after = admission_sum;
    li.rec = &rec;
    li.counts = &counts;
    li.requests = traced.attempted;
    ReportLayers(res, li);
    const int64_t n = traced.attempted;
    PutLayer(res, "remote.execute_us", PerRequest(rec.SelfNs("remote.execute"), n) * 1e-3, "us");
    PutLayer(res, "remote.executions", PerRequest(static_cast<double>(executions), n), "count");
    PutLayer(res, "lifecycle.record_us", PerRequest(rec.SelfNs("lifecycle.record"), n) * 1e-3, "us");
    PutLayer(res, "lifecycle.tick_us", PerRequest(rec.SelfNs("lifecycle.tick"), n) * 1e-3, "us");
    PutLayer(res, "lifecycle.retrain_wait_ms",
             PerRequest(rec.SelfNs("lifecycle.retrain_wait"), n) * 1e-6, "ms");
    const double eps = static_cast<double>(traced_episodes);
    PutLayer(res, "lifecycle.drift_detected", static_cast<double>(life.drift_detected) / eps, "count");
    PutLayer(res, "lifecycle.retrains_completed", static_cast<double>(life.retrains_completed) / eps, "count");
    PutLayer(res, "lifecycle.swaps", static_cast<double>(life.swaps_applied) / eps, "count");
    PutLayer(res, "lifecycle.shadow_rejected", static_cast<double>(life.shadow_rejected) / eps, "count");
    PutLayer(res, "lifecycle.ingest_dropped", static_cast<double>(life.ingest.dropped) / eps, "count");
    ReportSelfTimes(res, rec, traced, untraced.ScaledMean(), false);
    res->attempted += traced.attempted;
    res->failed += traced.failed;
  }
  ReportLatency(res, untraced);
  if (non_positive != 0) {
    res->Fail(std::to_string(non_positive) + " plans held a non-positive estimate");
  }

  // Correctness: with the final episode's models and cache in place, the
  // cached plans of specs spread over that episode's stream equal a fresh
  // cache-less service's. The late specs' entries are current (hits); the
  // earlier ones' entries predate the episode's last swap and now carry a
  // stale epoch, or were evicted.
  const std::vector<fed::QuerySpec> stream = DriftStream(d, last_stream);
  serving::ServiceOptions nocache = BenchServiceOptions();
  nocache.cache.capacity = 0;
  serving::EstimationService cacheless(&d.sphere().cost_estimator(), nocache);
  const serving::CacheStats check_before = d.service().cache_stats();
  for (int i = 0; i < kDriftCheckSample; ++i) {
    const fed::QuerySpec& spec =
        stream[stream.size() - 1 - static_cast<size_t>(i) * stream.size() / kDriftCheckSample];
    core::EstimateContext ctx;
    ctx.now = static_cast<double>(stream.size());
    MirrorCounts scratch;
    auto cached = d.sphere().PlanQuery(spec, ctx);
    auto fresh = MirrorPlan(d.sphere(), ViaService(cacheless), spec, ctx, nullptr, &scratch);
    if (!cached.ok() || !fresh.ok() ||
        PlanFingerprint(cached.value()) != PlanFingerprint(fresh.value())) {
      res->Fail("a cached drift plan differs from a cache-less service's");
      break;
    }
  }
  {
    const serving::CacheStats after = d.service().cache_stats();
    char line[200];
    std::snprintf(line, sizeof(line),
                  "cache-less check: %d specs spread over stream %d; %lld hits, "
                  "%lld stale-epoch entries, %lld misses",
                  kDriftCheckSample, last_stream,
                  static_cast<long long>(after.hits - check_before.hits),
                  static_cast<long long>(after.stale_epoch - check_before.stale_epoch),
                  static_cast<long long>(after.misses - check_before.misses));
    res->report.push_back(line);
  }

  // Quality: q-error of the quality episodes' executed pairs (execution is
  // part of the workload) and the regret of their plans.
  ReportQuality(res, qerrors, regrets);
  return Status::OK();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"plan-hot", "estimate-cold",
                                                  "feedback-drift"};
  return kNames;
}

WorkloadResult RunWorkload(const RunOptions& options) {
  WorkloadResult res;
  Status status = Status::OK();
  if (options.workload == "plan-hot") {
    status = RunPlanHot(options, &res);
  } else if (options.workload == "estimate-cold") {
    status = RunEstimateCold(options, &res);
  } else if (options.workload == "feedback-drift") {
    status = RunFeedbackDrift(options, &res);
  } else {
    status = Status::InvalidArgument("unknown workload '" + options.workload + "'");
  }
  if (!status.ok()) res.Fail(status.ToString());
  PutE2e(&res, "peak_rss_mb", PeakRssMb(), "MB");
  if (options.trace) FillAbsentLayers(&res);
  if (res.attempted == 0) {
    // Nothing ran: report the run itself as the one failed attempt.
    res.attempted = 1;
    res.failed = 1;
  }
  return res;
}

Result<QualityReport> MeasureQuality(const std::string& workload, uint64_t seed,
                                     bool miscalibrated_hive) {
  SetupTimes times;
  DeploymentOptions opts;
  opts.miscalibrated_hive = miscalibrated_hive;
  ISPHERE_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d, Deployment::Create(opts, &times));
  ExecutionOracle oracle(seed, d->sphere().local_model());
  std::vector<double> qerrors;
  std::vector<double> regrets;
  if (workload == "plan-hot") {
    ISPHERE_RETURN_NOT_OK(PlanSampleQuality(*d, PlanHotSpecs(*d, seed, kPlanHotQuality),
                                            &oracle, &qerrors, &regrets));
  } else if (workload == "estimate-cold") {
    // The evaluation set is the real profile's planner traffic in both
    // cases, so the two profiles are judged on the same operators.
    std::unique_ptr<Deployment> real;
    if (miscalibrated_hive) {
      ISPHERE_ASSIGN_OR_RETURN(real, Deployment::Create({}, &times));
    }
    ISPHERE_RETURN_NOT_OK(ColdQuality(real != nullptr ? *real : *d,
                                      d->sphere().cost_estimator(), &qerrors, &regrets));
  } else {
    return Status::InvalidArgument("no quality-only mode for '" + workload + "'");
  }
  QualityReport report;
  report.qerror_p50 = Quantile(qerrors, 0.5);
  report.qerror_p95 = Quantile(qerrors, 0.95);
  report.regret_mean = Mean(regrets);
  report.estimates = static_cast<int64_t>(qerrors.size());
  report.plans = static_cast<int64_t>(regrets.size());
  return report;
}

}  // namespace repobench
