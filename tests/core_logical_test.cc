// Unit tests for logical-operator costing: the Figure-3 estimation
// flowchart, the online remedy phase, offline tuning, and alpha adjustment.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <thread>

#include "core/logical_op.h"
#include "core/trainer.h"
#include "ml/linear_regression.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "util/metrics.h"
#include "util/properties.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace intellisphere::core {
namespace {

// A synthetic 2-D cost surface: near-linear in x1 with a mild interaction,
// trained on a grid like the paper's training sets.
ml::Dataset SurfaceGrid(double x1_max) {
  ml::Dataset d;
  for (double x1 = 1; x1 <= x1_max; x1 += 1) {
    for (double x2 = 10; x2 <= 100; x2 += 10) {
      d.Add({x1, x2}, 5.0 * x1 + 0.2 * x2 + 0.01 * x1 * x2);
    }
  }
  return d;
}

LogicalOpOptions FastOptions() {
  LogicalOpOptions opts;
  opts.mlp.iterations = 5000;
  opts.tuning_iterations = 3000;
  return opts;
}

TEST(LogicalOpModelTest, InRangeEstimatesUseNetworkOnly) {
  auto model = LogicalOpModel::Train(rel::OperatorType::kJoin,
                                     SurfaceGrid(8), {"x1", "x2"},
                                     FastOptions())
                   .value();
  auto est = model.Estimate({4, 50}).value();
  EXPECT_FALSE(est.used_remedy);
  EXPECT_TRUE(est.pivot_dims.empty());
  double truth = 5.0 * 4 + 0.2 * 50 + 0.01 * 4 * 50;
  EXPECT_NEAR(est.seconds, truth, 0.25 * truth);
}

TEST(LogicalOpModelTest, WayOffInputTriggersRemedy) {
  auto model = LogicalOpModel::Train(rel::OperatorType::kJoin,
                                     SurfaceGrid(8), {"x1", "x2"},
                                     FastOptions())
                   .value();
  auto est = model.Estimate({20, 50}).value();  // x1 trained to 8, step 1
  EXPECT_TRUE(est.used_remedy);
  ASSERT_EQ(est.pivot_dims.size(), 1u);
  EXPECT_EQ(est.pivot_dims[0], 0u);
  EXPECT_GT(est.remedy_seconds, 0.0);
  // The combined estimate is the alpha blend of the two components.
  EXPECT_NEAR(est.seconds,
              0.5 * est.nn_seconds + 0.5 * est.remedy_seconds, 1e-9);
}

TEST(LogicalOpModelTest, RemedyBeatsRawNetworkOutOfRange) {
  // The paper's Figure 14: the NN saturates at 20x10^6 records while the
  // pivot regression extrapolates.
  auto model = LogicalOpModel::Train(rel::OperatorType::kJoin,
                                     SurfaceGrid(8), {"x1", "x2"},
                                     FastOptions())
                   .value();
  double err_nn = 0.0, err_combined = 0.0;
  int n = 0;
  for (double x2 = 20; x2 <= 80; x2 += 20) {
    double truth = 5.0 * 20 + 0.2 * x2 + 0.01 * 20 * x2;
    auto est = model.Estimate({20, x2}).value();
    ASSERT_TRUE(est.used_remedy);
    err_nn += std::abs(est.nn_seconds - truth);
    err_combined += std::abs(est.seconds - truth);
    ++n;
  }
  EXPECT_LT(err_combined, err_nn);
}

TEST(LogicalOpModelTest, TwoPivotRemedy) {
  auto model = LogicalOpModel::Train(rel::OperatorType::kJoin,
                                     SurfaceGrid(8), {"x1", "x2"},
                                     FastOptions())
                   .value();
  auto est = model.Estimate({20, 500}).value();  // both dims way off
  EXPECT_TRUE(est.used_remedy);
  EXPECT_EQ(est.pivot_dims.size(), 2u);
  double truth = 5.0 * 20 + 0.2 * 500 + 0.01 * 20 * 500;
  // The two-dimensional pivot regression still lands the right order of
  // magnitude where the saturated NN cannot.
  EXPECT_LT(std::abs(est.remedy_seconds - truth),
            std::abs(est.nn_seconds - truth));
}

TEST(LogicalOpModelTest, OfflineTuningLearnsNewRange) {
  auto model = LogicalOpModel::Train(rel::OperatorType::kJoin,
                                     SurfaceGrid(8), {"x1", "x2"},
                                     FastOptions())
                   .value();
  auto truth = [](double x1, double x2) {
    return 5.0 * x1 + 0.2 * x2 + 0.01 * x1 * x2;
  };
  double before = std::abs(model.Estimate({20, 50}).value().nn_seconds -
                           truth(20, 50));
  // Log executions at the new scale (the paper's 70% batch), then tune.
  for (double x1 = 9; x1 <= 20; x1 += 1) {
    for (double x2 = 10; x2 <= 100; x2 += 30) {
      ASSERT_TRUE(model.LogExecution({x1, x2}, truth(x1, x2)).ok());
    }
  }
  EXPECT_GT(model.log_size(), 0u);
  ASSERT_TRUE(model.OfflineTune().ok());
  EXPECT_EQ(model.log_size(), 0u);
  double after = std::abs(model.Estimate({20, 50}).value().nn_seconds -
                          truth(20, 50));
  EXPECT_LT(after, before);
  // Contiguous log values expanded the trained range: 20 is in range now.
  EXPECT_TRUE(model.Estimate({20, 50}).value().pivot_dims.empty());
}

TEST(LogicalOpModelTest, OfflineTuneRequiresLog) {
  auto model = LogicalOpModel::Train(rel::OperatorType::kJoin,
                                     SurfaceGrid(4), {"x1", "x2"},
                                     FastOptions())
                   .value();
  EXPECT_EQ(model.OfflineTune().code(), StatusCode::kFailedPrecondition);
}

TEST(LogicalOpModelTest, AlphaAdjustmentReducesError) {
  auto model = LogicalOpModel::Train(rel::OperatorType::kJoin,
                                     SurfaceGrid(8), {"x1", "x2"},
                                     FastOptions())
                   .value();
  EXPECT_DOUBLE_EQ(model.alpha(), 0.5);
  auto truth = [](double x1, double x2) {
    return 5.0 * x1 + 0.2 * x2 + 0.01 * x1 * x2;
  };
  // Execute an out-of-range batch (Table 1's protocol).
  std::vector<std::vector<double>> batch;
  for (double x2 = 10; x2 <= 100; x2 += 10) batch.push_back({16, x2});
  double rmse_before = 0.0;
  for (const auto& f : batch) {
    double est = model.Estimate(f).value().seconds;
    rmse_before += (est - truth(f[0], f[1])) * (est - truth(f[0], f[1]));
    ASSERT_TRUE(model.LogExecution(f, truth(f[0], f[1])).ok());
  }
  double alpha = model.AdjustAlpha().value();
  EXPECT_GE(alpha, 0.05);
  EXPECT_LE(alpha, 0.95);
  double rmse_after = 0.0;
  for (const auto& f : batch) {
    double est = model.Estimate(f).value().seconds;
    rmse_after += (est - truth(f[0], f[1])) * (est - truth(f[0], f[1]));
  }
  EXPECT_LE(rmse_after, rmse_before + 1e-9);
}

TEST(LogicalOpModelTest, AlphaAdjustmentNeedsRemedyLog) {
  auto model = LogicalOpModel::Train(rel::OperatorType::kJoin,
                                     SurfaceGrid(8), {"x1", "x2"},
                                     FastOptions())
                   .value();
  ASSERT_TRUE(model.LogExecution({4, 50}, 25.0).ok());  // in range
  EXPECT_EQ(model.AdjustAlpha().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(LogicalOpModelTest, TopologySearchPicksWithinPaperBounds) {
  LogicalOpOptions opts = FastOptions();
  opts.run_topology_search = true;
  opts.search.search_iterations = 400;
  opts.search.layer1_step = 2;
  opts.mlp.iterations = 1500;
  auto model = LogicalOpModel::Train(rel::OperatorType::kAggregation,
                                     SurfaceGrid(8), {"x1", "x2"}, opts)
                   .value();
  auto [h1, h2] = model.topology();
  EXPECT_GE(h1, 2);
  EXPECT_LE(h1, 4);  // between d and 2d for d = 2
  EXPECT_GE(h2, 3);
}

TEST(LogicalOpModelTest, EstimatesAreFloored) {
  auto model = LogicalOpModel::Train(rel::OperatorType::kJoin,
                                     SurfaceGrid(4), {"x1", "x2"},
                                     FastOptions())
                   .value();
  // Far below the trained range, the raw components could go negative; the
  // estimate never does.
  auto est = model.Estimate({-50, -500}).value();
  EXPECT_GT(est.seconds, 0.0);
}

TEST(LogicalOpModelTest, RejectsBadLogEntries) {
  auto model = LogicalOpModel::Train(rel::OperatorType::kJoin,
                                     SurfaceGrid(4), {"x1", "x2"},
                                     FastOptions())
                   .value();
  EXPECT_FALSE(model.LogExecution({1, 10}, -1.0).ok());
  EXPECT_FALSE(model.LogExecution({1}, 1.0).ok());  // width mismatch
}

TEST(LogicalOpEndToEndTest, AggregationModelOnSimulatedHive) {
  // Small-scale version of the Figure-11 pipeline: generate the workload,
  // execute on the simulated cluster, train, and check in-range accuracy.
  auto hive = remote::HiveEngine::CreateDefault("hive", 42);
  rel::AggWorkloadOptions wopts;
  wopts.record_counts = {100000, 200000, 400000, 800000};
  wopts.record_sizes = {100, 250, 500};
  wopts.num_aggregates = {1, 3, 5};
  auto queries = rel::GenerateAggWorkload(wopts).value();
  auto run = CollectAggTraining(hive.get(), queries).value();
  LogicalOpOptions opts = FastOptions();
  opts.mlp.iterations = 8000;
  auto model = LogicalOpModel::Train(rel::OperatorType::kAggregation,
                                     run.data, AggDimensionNames(), opts)
                   .value();
  std::vector<double> actual, predicted;
  for (size_t i = 0; i < run.data.size(); i += 5) {
    actual.push_back(run.data.y[i]);
    predicted.push_back(model.Estimate(run.data.x[i]).value().seconds);
  }
  EXPECT_GT(RSquared(actual, predicted).value(), 0.9);
}

// ---------------------------------------------------------------------------
// Bit-identity oracle for the pivot-set index. The reference below is the
// map-based QueryTime-Remedy() the index replaced, kept verbatim apart from
// taking the retained rows and metadata as arguments. The model must
// reproduce it byte for byte.

std::vector<double> RefPivotValues(const std::vector<double>& features,
                                   const std::vector<size_t>& pivots) {
  std::vector<double> v;
  v.reserve(pivots.size());
  for (size_t p : pivots) v.push_back(features[p]);
  return v;
}

double RefNonPivotDistance(const TrainingMetadata& metadata,
                           const std::vector<double>& a,
                           const std::vector<double>& b,
                           const std::vector<size_t>& pivots) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::find(pivots.begin(), pivots.end(), i) != pivots.end()) continue;
    const DimensionMeta& m = metadata.dimension(i);
    double span = m.max - m.min;
    if (span <= 0.0) span = 1.0;
    double delta = (a[i] - b[i]) / span;
    d += delta * delta;
  }
  return d;
}

Result<double> RefPivotRegressionEstimate(const ml::Dataset& data,
                                          const TrainingMetadata& metadata,
                                          int remedy_neighbors,
                                          const std::vector<double>& features,
                                          const std::vector<size_t>& pivots) {
  if (data.size() == 0) {
    return Status::FailedPrecondition("no retained training data for remedy");
  }
  std::map<std::vector<double>, size_t> best_per_tuple;
  for (size_t r = 0; r < data.size(); ++r) {
    std::vector<double> tuple = RefPivotValues(data.x[r], pivots);
    auto it = best_per_tuple.find(tuple);
    if (it == best_per_tuple.end()) {
      best_per_tuple.emplace(std::move(tuple), r);
    } else if (RefNonPivotDistance(metadata, features, data.x[r], pivots) <
               RefNonPivotDistance(metadata, features, data.x[it->second],
                                   pivots)) {
      it->second = r;
    }
  }
  std::vector<double> qp = RefPivotValues(features, pivots);
  std::vector<std::pair<double, size_t>> ranked;
  ranked.reserve(best_per_tuple.size());
  for (const auto& [tuple, row] : best_per_tuple) {
    double d = 0.0;
    for (size_t i = 0; i < tuple.size(); ++i) {
      const DimensionMeta& m = metadata.dimension(pivots[i]);
      double span = m.max - m.min;
      if (span <= 0.0) span = 1.0;
      double delta = (tuple[i] - qp[i]) / span;
      d += delta * delta;
    }
    ranked.emplace_back(d, row);
  }
  std::sort(ranked.begin(), ranked.end());
  size_t k = std::max<size_t>(pivots.size() + 2,
                              static_cast<size_t>(remedy_neighbors));
  if (ranked.size() > k) ranked.resize(k);

  ml::Dataset pivot_data;
  for (const auto& [d, row] : ranked) {
    pivot_data.Add(RefPivotValues(data.x[row], pivots), data.y[row]);
  }
  auto lr = ml::LinearRegression::Fit(pivot_data);
  if (!lr.ok()) {
    return pivot_data.y.empty() ? Status::Internal("no remedy neighbors")
                                : Result<double>(pivot_data.y[0]);
  }
  return lr.value().Predict(qp);
}

// The Figure-3 flowchart over the reference remedy; the network term comes
// from the model itself (the index does not touch it).
LogicalOpEstimate RefEstimate(const LogicalOpModel& model,
                              const ml::Dataset& data,
                              const std::vector<double>& features) {
  constexpr double kMin = 1e-3;
  LogicalOpEstimate est;
  est.pivot_dims = model.metadata()
                       .PivotDimensions(features, model.options().beta)
                       .value();
  est.nn_seconds = std::max(kMin, model.network().Predict(features).value());
  if (est.pivot_dims.empty()) {
    est.seconds = est.nn_seconds;
    return est;
  }
  est.used_remedy = true;
  est.alpha = model.alpha();
  est.remedy_seconds = std::max(
      kMin, RefPivotRegressionEstimate(data, model.metadata(),
                                       model.options().remedy_neighbors,
                                       features, est.pivot_dims)
                .value());
  est.seconds = std::max(kMin, est.alpha * est.nn_seconds +
                                   (1.0 - est.alpha) * est.remedy_seconds);
  return est;
}

bool SameBytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameEstimate(const LogicalOpEstimate& a, const LogicalOpEstimate& b) {
  return SameBytes(a.seconds, b.seconds) &&
         SameBytes(a.nn_seconds, b.nn_seconds) &&
         SameBytes(a.remedy_seconds, b.remedy_seconds) &&
         SameBytes(a.alpha, b.alpha) && a.used_remedy == b.used_remedy &&
         a.pivot_dims == b.pivot_dims;
}

// Estimate and EstimateBatch on every query, byte-compared with the
// reference over `data` (the model's retained rows). Runs each query twice
// so the second pass reads the published index.
void ExpectMatchesReference(const LogicalOpModel& model,
                            const ml::Dataset& data,
                            const std::vector<std::vector<double>>& queries,
                            const std::string& phase) {
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const LogicalOpEstimate ref = RefEstimate(model, data, queries[q]);
      const LogicalOpEstimate got = model.Estimate(queries[q]).value();
      EXPECT_TRUE(SameEstimate(got, ref))
          << phase << " query " << q << ": " << got.seconds << " vs "
          << ref.seconds << " (remedy " << got.remedy_seconds << " vs "
          << ref.remedy_seconds << ")";
    }
  }
  std::vector<LogicalOpEstimate> batch;
  ASSERT_TRUE(model.EstimateBatch(queries, &batch).ok());
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_TRUE(SameEstimate(batch[q], RefEstimate(model, data, queries[q])))
        << phase << " batch query " << q;
  }
}

// One seeded oracle case: a small training set mixing grid-valued,
// continuous and signed-zero dimensions with duplicate rows, and queries
// with 1-3 way-off dimensions.
struct OracleCase {
  ml::Dataset data;
  LogicalOpOptions opts;
  std::vector<std::string> names;
};

OracleCase MakeOracleCase(Rng* rng, uint64_t seed) {
  OracleCase c;
  const size_t dims = static_cast<size_t>(rng->UniformInt(2, 5));
  // Per dimension: 0 = integer grid, 1 = continuous, 2 = grid with both
  // -0.0 and 0.0.
  std::vector<int> kind(dims);
  std::vector<int64_t> grid(dims);
  for (size_t i = 0; i < dims; ++i) {
    kind[i] = static_cast<int>(rng->UniformInt(0, 2));
    grid[i] = rng->UniformInt(2, 6);
    c.names.push_back("d" + std::to_string(i));
  }
  const int64_t rows = rng->UniformInt(4, 48);
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<double> x(dims);
    if (r > 0 && rng->Uniform(0, 1) < 0.2) {
      x = c.data.x[static_cast<size_t>(rng->UniformInt(0, r - 1))];
    } else {
      for (size_t i = 0; i < dims; ++i) {
        const double g = static_cast<double>(rng->UniformInt(0, grid[i] - 1));
        if (kind[i] == 1) {
          x[i] = rng->Uniform(0, 10);
        } else if (kind[i] == 2 && g == 0.0) {
          x[i] = rng->Uniform(0, 1) < 0.5 ? -0.0 : 0.0;
        } else {
          x[i] = 2.0 * g;
        }
      }
    }
    double y = 1.0 + rng->Uniform(0, 5);
    for (double v : x) y += std::abs(v);
    c.data.Add(std::move(x), y);
  }
  c.opts.mlp.hidden1 = 3;
  c.opts.mlp.hidden2 = 2;
  c.opts.mlp.iterations = 20;
  c.opts.mlp.seed = seed;
  c.opts.tuning_iterations = 5;
  c.opts.remedy_neighbors = static_cast<int>(rng->UniformInt(1, 8));
  return c;
}

// Queries with 1-3 way-off dimensions. In-range dimensions sit on a
// training value or halfway between two grid values, so rows of one group
// tie on their non-pivot distance.
std::vector<std::vector<double>> MakeOracleQueries(
    Rng* rng, const LogicalOpModel& model) {
  const TrainingMetadata& meta = model.metadata();
  const size_t dims = meta.num_dimensions();
  const double beta = model.options().beta;
  std::vector<std::vector<double>> queries;
  for (int q = 0; q < 6; ++q) {
    std::vector<size_t> order(dims);
    for (size_t i = 0; i < dims; ++i) order[i] = i;
    for (size_t i = dims; i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<size_t>(rng->UniformInt(0, i - 1))]);
    }
    const size_t num_pivots = static_cast<size_t>(
        rng->UniformInt(1, static_cast<int64_t>(std::min<size_t>(3, dims))));
    std::vector<double> x(dims);
    for (size_t i = 0; i < dims; ++i) {
      const DimensionMeta& m = meta.dimension(i);
      x[i] = std::floor(rng->Uniform(m.min, m.max) / 2.0) * 2.0 + 1.0;
      x[i] = std::clamp(x[i], m.min, m.max);
    }
    for (size_t j = 0; j < num_pivots; ++j) {
      const DimensionMeta& m = meta.dimension(order[j]);
      const double off = (beta + 1.0) * m.step_size +
                         rng->Uniform(0.5, 3.0) * std::max(1.0, m.max - m.min);
      x[order[j]] = rng->Uniform(0, 1) < 0.7 ? m.max + off : m.min - off;
    }
    queries.push_back(std::move(x));
  }
  return queries;
}

TEST(PivotIndexOracleTest, EstimatesBitIdenticalToMapBasedRemedy) {
  constexpr uint64_t kCases = 240;
  for (uint64_t seed = 1; seed <= kCases; ++seed) {
    SCOPED_TRACE("case seed " + std::to_string(seed));
    Rng rng(seed);
    OracleCase c = MakeOracleCase(&rng, seed);
    LogicalOpModel model =
        LogicalOpModel::Train(rel::OperatorType::kJoin, c.data, c.names, c.opts)
            .value();
    std::vector<std::vector<double>> queries = MakeOracleQueries(&rng, model);
    if (seed % 3 == 0) {
      // Shrink a dimension's trained range to its lowest value, so a query
      // halfway between two higher grid values is way off with pivot tuples
      // equidistant on both sides of it.
      DimensionMeta& m = model.metadata_mutable().dimension(0);
      m.max = m.min;
      m.step_size = 0.1;
      std::vector<double> x = queries[0];
      x[0] = m.min + 3.0;
      queries.push_back(std::move(x));
    }
    ExpectMatchesReference(model, c.data, queries, "trained");

    const LogicalOpModel copy = model;  // shares the published snapshots
    ExpectMatchesReference(copy, c.data, queries, "copy");

    Properties props;
    model.Save("m.", &props);
    const LogicalOpModel loaded = LogicalOpModel::Load("m.", props).value();
    ExpectMatchesReference(loaded, c.data, queries, "loaded");

    // OfflineTune appends the logged rows; a stale index would still
    // return the pre-tune neighbourhood.
    ml::Dataset tuned = c.data;
    for (size_t q = 0; q < queries.size(); q += 2) {
      const double actual = 1.0 + rng.Uniform(0, 50);
      ASSERT_TRUE(model.LogExecution(queries[q], actual).ok());
      tuned.Add(queries[q], actual);
    }
    ASSERT_TRUE(model.OfflineTune().ok());
    ExpectMatchesReference(model, tuned, queries, "tuned");
    // The pre-tune copy keeps its own rows and index.
    ExpectMatchesReference(copy, c.data, queries, "copy after tune");
    if (HasFailure()) return;
  }
}

// Pool workers race the first-use index builds of several pivot sets on one
// shared const model; every answer must equal the single-threaded one.
TEST(PivotIndexConcurrencyTest, RacingFirstUseBuildsMatchSingleThreaded) {
  ml::Dataset data;
  for (double a = 1; a <= 6; a += 1) {
    for (double b = 10; b <= 50; b += 10) {
      for (double c = 1; c <= 3; c += 1) {
        for (double d : {0.5, 1.0}) {
          data.Add({a, b, c, d}, 2.0 * a + 0.1 * b + c * d);
        }
      }
    }
  }
  LogicalOpOptions opts;
  opts.mlp.hidden1 = 4;
  opts.mlp.hidden2 = 3;
  opts.mlp.iterations = 200;
  const LogicalOpModel trained =
      LogicalOpModel::Train(rel::OperatorType::kJoin, data,
                            {"a", "b", "c", "d"}, opts)
          .value();
  // Way-off dimensions {0}, {1}, {2}, {0,1}, {1,3}, {0,2,3}, {0,1,2,3},
  // several queries each.
  std::vector<std::vector<double>> queries;
  for (double s : {1.0, 2.0, 3.0}) {
    queries.push_back({20 * s, 30, 2, 1});
    queries.push_back({3, 200 * s, 2, 0.5});
    queries.push_back({3, 30, 10 * s, 1});
    queries.push_back({20 * s, 200, 2, 0.5});
    queries.push_back({3, 200 * s, 1, 5 * s});
    queries.push_back({-20 * s, 30, 10, 5});
    queries.push_back({20 * s, 200, -10, 5 * s});
  }
  std::vector<LogicalOpEstimate> expected;
  {
    const LogicalOpModel single = trained;  // an empty index of its own
    for (const auto& q : queries) expected.push_back(single.Estimate(q).value());
  }

  constexpr int kWorkers = 8;
  ThreadPool pool(kWorkers);
  for (int episode = 0; episode < 10; ++episode) {
    const LogicalOpModel shared = trained;  // every index built on first use
    std::atomic<int> ready{0};
    std::vector<std::future<int>> mismatches;
    for (int w = 0; w < kWorkers; ++w) {
      mismatches.push_back(pool.Submit([&, w] {
        ready.fetch_add(1);
        while (ready.load() < kWorkers) std::this_thread::yield();
        int bad = 0;
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t q = (i + static_cast<size_t>(w) * 3) % queries.size();
          if (!SameEstimate(shared.Estimate(queries[q]).value(),
                            expected[q])) {
            ++bad;
          }
        }
        std::vector<LogicalOpEstimate> batch;
        if (!shared.EstimateBatch(queries, &batch).ok()) return bad + 1;
        for (size_t q = 0; q < queries.size(); ++q) {
          if (!SameEstimate(batch[q], expected[q])) ++bad;
        }
        return bad;
      }));
    }
    for (auto& f : mismatches) EXPECT_EQ(f.get(), 0) << "episode " << episode;
  }
}

}  // namespace
}  // namespace intellisphere::core
