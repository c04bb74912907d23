// Logical-operator costing (Section 3): a neural-network cost model per
// logical operator trained from queries executed on the (blackbox) remote
// system, plus the paper's two quality phases:
//
//  * Online remedy (Figures 3 and 4): when one or more input parameters are
//    way off the trained range (pivot dimensions), build an on-the-fly
//    regression over the pivot dimension(s) from the closest training
//    points and combine its extrapolation c2 with the network's estimate c1
//    as alpha*c1 + (1-alpha)*c2. Alpha starts at 0.5 and is auto-adjusted
//    from observed executions (Table 1).
//
//  * Offline tuning: every remotely executed operator's actual cost is
//    logged; periodically the log is fed back into the network
//    (ContinueTraining) and the range metadata absorbs new values under the
//    continuity rule.

#ifndef INTELLISPHERE_CORE_LOGICAL_OP_H_
#define INTELLISPHERE_CORE_LOGICAL_OP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/training.h"
#include "ml/cross_validation.h"
#include "ml/dataset.h"
#include "ml/mlp.h"
#include "relational/query.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace intellisphere::core {

/// Tunables of the logical-op approach.
struct LogicalOpOptions {
  /// Out-of-range threshold multiplier (beta > 1, Section 3).
  double beta = 2.0;
  /// Distinct pivot-value groups used to fit the remedy regression.
  int remedy_neighbors = 8;
  /// Initial cost-combining weight on the network estimate.
  double initial_alpha = 0.5;
  /// Continuity slack (in step sizes) for offline range expansion.
  double continuity_factor = 2.0;
  /// Gradient steps per offline tuning pass.
  int tuning_iterations = 4000;
  /// Network hyperparameters (topology overridden by the search if run).
  ml::MlpConfig mlp;
  /// Run the paper's cross-validation topology search before training.
  bool run_topology_search = false;
  ml::TopologySearchOptions search;
};

/// One estimate, with the remedy diagnostics the benchmarks report.
struct LogicalOpEstimate {
  double seconds = 0.0;
  bool used_remedy = false;
  std::vector<size_t> pivot_dims;
  double nn_seconds = 0.0;       ///< c1
  double remedy_seconds = 0.0;   ///< c2 (meaningful when used_remedy)
  /// The combining weight alpha actually used: seconds = alpha*c1 +
  /// (1-alpha)*c2. 1 on the pure-network path (no remedy).
  double alpha = 1.0;
};

/// A trained logical-operator cost model (one per operator type).
class LogicalOpModel {
 public:
  /// Trains on a dataset of (feature vector -> observed elapsed seconds).
  /// `dim_names` labels the training dimensions (Figure 2's seven for join,
  /// four for aggregation).
  [[nodiscard]] static Result<LogicalOpModel> Train(rel::OperatorType type,
                                                    const ml::Dataset& data,
                                                    std::vector<std::string> dim_names,
                                                    const LogicalOpOptions& opts);

  /// The Figure-3 flowchart: in-range inputs go through the network;
  /// way-off inputs trigger QueryTime-Remedy().
  [[nodiscard]] Result<LogicalOpEstimate> Estimate(const std::vector<double>& features) const;

  /// Batched Estimate: lowers every row's network forward pass into one
  /// MlpRegressor::PredictBatch (one GEMM per layer for the whole batch);
  /// rows whose inputs are way off the trained range still take the scalar
  /// remedy regression afterwards. out[i] is bit-identical to
  /// Estimate(features[i]) — the batch is purely a performance transform.
  [[nodiscard]] Status EstimateBatch(
      const std::vector<std::vector<double>>& features,
      std::vector<LogicalOpEstimate>* out) const;

  /// Logging phase: records the actual cost of a remotely executed
  /// operator (with the estimates recomputed for alpha fitting).
  [[nodiscard]] Status LogExecution(const std::vector<double>& features,
                                    double actual_seconds);

  /// Offline tuning phase: feeds the accumulated log to the network,
  /// absorbs new ranges under the continuity rule, and clears the log.
  /// FailedPrecondition when the log is empty.
  [[nodiscard]] Status OfflineTune();

  /// Re-fits alpha to minimize the squared error of the combined estimate
  /// over all logged remedy executions (closed form, clamped to
  /// [0.05, 0.95]); returns the new alpha. Used after each query batch
  /// (Table 1). FailedPrecondition when no remedy executions are logged.
  [[nodiscard]] Result<double> AdjustAlpha();

  /// Serializes the full costing-profile payload for this operator: the
  /// network, the range metadata (including islands), alpha, the options,
  /// and the retained training points (required by the remedy's neighbor
  /// extraction). Everything goes under `prefix` in `props`.
  void Save(const std::string& prefix, Properties* props) const;
  [[nodiscard]] static Result<LogicalOpModel> Load(const std::string& prefix,
                                                   const Properties& props);

  rel::OperatorType type() const { return type_; }
  double alpha() const { return alpha_; }
  void set_alpha(double a) { alpha_ = a; }
  const TrainingMetadata& metadata() const { return metadata_; }
  /// Mutable metadata access for experimentation (e.g. ablating the
  /// continuity rule); production flows go through OfflineTune.
  TrainingMetadata& metadata_mutable() { return metadata_; }
  const ml::MlpRegressor& network() const { return mlp_; }
  const LogicalOpOptions& options() const { return opts_; }
  size_t log_size() const { return log_.size(); }
  /// Selected topology (after the optional search).
  std::pair<int, int> topology() const {
    return {mlp_.config().hidden1, mlp_.config().hidden2};
  }

 private:
  LogicalOpModel() = default;

  struct LogRecord {
    std::vector<double> features;
    double actual_seconds = 0.0;
    bool used_remedy = false;
    double nn_seconds = 0.0;
    double remedy_seconds = 0.0;
  };

  /// The retained rows of data_ grouped by pivot-value tuple, for one
  /// pivot set. Group g is rows[group_begin[g], group_begin[g + 1]): its
  /// rows in ascending index order, so the first one carries the group's
  /// tuple. Groups follow the tuples' lexicographic order, and tuples are
  /// equal exactly when std::map's operator< finds them equivalent (so
  /// -0.0 and 0.0 share a group).
  struct PivotSetIndex {
    std::vector<uint32_t> rows;
    std::vector<uint32_t> group_begin;  ///< G + 1 run boundaries
  };

  /// Derived pivot-set indexes over data_, keyed by the sorted pivot
  /// dimensions. Each is built on the first remedy call for its pivot set
  /// and published as an immutable snapshot, so concurrent readers of a
  /// const model share it. Dropped whenever data_ changes; never
  /// serialized. A copy shares the source's snapshots, which index the
  /// identical data_ it copies.
  class PivotIndexCache {
   public:
    PivotIndexCache() = default;
    PivotIndexCache(const PivotIndexCache& other) : sets_(other.Snapshot()) {}
    PivotIndexCache& operator=(const PivotIndexCache& other) EXCLUDES(mu_);

    /// The published index for `pivots`, or null before its first build.
    std::shared_ptr<const PivotSetIndex> Find(
        const std::vector<size_t>& pivots) const EXCLUDES(mu_);
    /// Publishes `built` unless a racing build got there first; returns
    /// the published index either way.
    std::shared_ptr<const PivotSetIndex> Publish(
        const std::vector<size_t>& pivots,
        std::shared_ptr<const PivotSetIndex> built) EXCLUDES(mu_);
    void Clear() EXCLUDES(mu_);

   private:
    using Map =
        std::map<std::vector<size_t>, std::shared_ptr<const PivotSetIndex>>;
    Map Snapshot() const EXCLUDES(mu_);

    mutable SharedMutex mu_;
    Map sets_ GUARDED_BY(mu_);
  };

  /// QueryTime-Remedy(): extracts the closest training points, fits a
  /// regression over the pivot dimensions, and extrapolates.
  [[nodiscard]] Result<double> PivotRegressionEstimate(
      const std::vector<double>& features,
      const std::vector<size_t>& pivots) const;

  /// The pivot-set index for `pivots`, built and published on first use.
  std::shared_ptr<const PivotSetIndex> IndexFor(
      const std::vector<size_t>& pivots) const;

  rel::OperatorType type_ = rel::OperatorType::kJoin;
  LogicalOpOptions opts_;
  ml::MlpRegressor mlp_;
  TrainingMetadata metadata_;
  ml::Dataset data_;  ///< retained training points for neighbor extraction
  double alpha_ = 0.5;
  std::vector<LogRecord> log_;
  mutable PivotIndexCache pivot_index_;  ///< derived from data_
};

}  // namespace intellisphere::core

#endif  // INTELLISPHERE_CORE_LOGICAL_OP_H_
