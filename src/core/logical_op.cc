#include "core/logical_op.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "ml/linear_regression.h"

namespace intellisphere::core {

namespace {

// Floor for any returned cost: a remote query can never be free.
constexpr double kMinCostSeconds = 1e-3;

std::vector<double> PivotValues(const std::vector<double>& features,
                                const std::vector<size_t>& pivots) {
  std::vector<double> v;
  v.reserve(pivots.size());
  for (size_t p : pivots) v.push_back(features[p]);
  return v;
}

// Normalization width of a dimension in the remedy's distances: its
// trained span, or 1 when the span is degenerate.
double Span(const DimensionMeta& m) {
  double span = m.max - m.min;
  return span <= 0.0 ? 1.0 : span;
}

}  // namespace

LogicalOpModel::PivotIndexCache& LogicalOpModel::PivotIndexCache::operator=(
    const PivotIndexCache& other) {
  Map copy = other.Snapshot();
  WriterMutexLock lock(&mu_);
  sets_ = std::move(copy);
  return *this;
}

std::shared_ptr<const LogicalOpModel::PivotSetIndex>
LogicalOpModel::PivotIndexCache::Find(
    const std::vector<size_t>& pivots) const {
  ReaderMutexLock lock(&mu_);
  auto it = sets_.find(pivots);
  return it == sets_.end() ? nullptr : it->second;
}

std::shared_ptr<const LogicalOpModel::PivotSetIndex>
LogicalOpModel::PivotIndexCache::Publish(
    const std::vector<size_t>& pivots,
    std::shared_ptr<const PivotSetIndex> built) {
  WriterMutexLock lock(&mu_);
  return sets_.try_emplace(pivots, std::move(built)).first->second;
}

void LogicalOpModel::PivotIndexCache::Clear() {
  WriterMutexLock lock(&mu_);
  sets_.clear();
}

LogicalOpModel::PivotIndexCache::Map
LogicalOpModel::PivotIndexCache::Snapshot() const {
  ReaderMutexLock lock(&mu_);
  return sets_;
}

Result<LogicalOpModel> LogicalOpModel::Train(rel::OperatorType type,
                                             const ml::Dataset& data,
                                             std::vector<std::string> dim_names,
                                             const LogicalOpOptions& opts) {
  ISPHERE_RETURN_NOT_OK(data.Validate());
  LogicalOpModel model;
  model.type_ = type;
  model.opts_ = opts;
  model.alpha_ = opts.initial_alpha;
  model.data_ = data;
  ISPHERE_ASSIGN_OR_RETURN(
      model.metadata_, TrainingMetadata::FromDataset(data, std::move(dim_names)));

  ml::MlpConfig cfg = opts.mlp;
  if (opts.run_topology_search) {
    ml::TopologySearchOptions search = opts.search;
    search.base = opts.mlp;
    ISPHERE_ASSIGN_OR_RETURN(ml::TopologySearchResult found,
                             ml::SearchTopology(data, search));
    cfg.hidden1 = found.best.hidden1;
    cfg.hidden2 = found.best.hidden2;
  }
  ISPHERE_ASSIGN_OR_RETURN(model.mlp_, ml::MlpRegressor::Train(data, cfg));
  return model;
}

Result<LogicalOpEstimate> LogicalOpModel::Estimate(
    const std::vector<double>& features) const {
  ISPHERE_ASSIGN_OR_RETURN(std::vector<size_t> pivots,
                           metadata_.PivotDimensions(features, opts_.beta));
  LogicalOpEstimate est;
  ISPHERE_ASSIGN_OR_RETURN(est.nn_seconds, mlp_.Predict(features));
  est.nn_seconds = std::max(kMinCostSeconds, est.nn_seconds);
  if (pivots.empty()) {
    est.seconds = est.nn_seconds;
    return est;
  }
  est.used_remedy = true;
  est.pivot_dims = pivots;
  est.alpha = alpha_;
  ISPHERE_ASSIGN_OR_RETURN(est.remedy_seconds,
                           PivotRegressionEstimate(features, pivots));
  est.remedy_seconds = std::max(kMinCostSeconds, est.remedy_seconds);
  est.seconds = std::max(kMinCostSeconds,
                         alpha_ * est.nn_seconds +
                             (1.0 - alpha_) * est.remedy_seconds);
  return est;
}

Status LogicalOpModel::EstimateBatch(
    const std::vector<std::vector<double>>& features,
    std::vector<LogicalOpEstimate>* out) const {
  out->assign(features.size(), LogicalOpEstimate{});
  if (features.empty()) return Status::OK();
  // Pivot detection first (cheap range checks), then one batched forward
  // pass for every row — including remedy rows, whose c1 term is the same
  // network estimate.
  std::vector<double> nn;
  ISPHERE_RETURN_NOT_OK(mlp_.PredictBatch(features, &nn));
  for (size_t r = 0; r < features.size(); ++r) {
    LogicalOpEstimate& est = (*out)[r];
    ISPHERE_ASSIGN_OR_RETURN(
        std::vector<size_t> pivots,
        metadata_.PivotDimensions(features[r], opts_.beta));
    est.nn_seconds = std::max(kMinCostSeconds, nn[r]);
    if (pivots.empty()) {
      est.seconds = est.nn_seconds;
      continue;
    }
    est.used_remedy = true;
    est.pivot_dims = std::move(pivots);
    est.alpha = alpha_;
    ISPHERE_ASSIGN_OR_RETURN(
        est.remedy_seconds,
        PivotRegressionEstimate(features[r], est.pivot_dims));
    est.remedy_seconds = std::max(kMinCostSeconds, est.remedy_seconds);
    est.seconds = std::max(kMinCostSeconds,
                           alpha_ * est.nn_seconds +
                               (1.0 - alpha_) * est.remedy_seconds);
  }
  return Status::OK();
}

std::shared_ptr<const LogicalOpModel::PivotSetIndex> LogicalOpModel::IndexFor(
    const std::vector<size_t>& pivots) const {
  if (auto found = pivot_index_.Find(pivots)) return found;
  // Group by pivot tuple through std::map itself, so the groups are
  // exactly the equivalence classes of its operator<. Rows arrive in
  // ascending order, so each group's first row is its lowest.
  std::map<std::vector<double>, std::vector<uint32_t>> groups;
  for (size_t r = 0; r < data_.size(); ++r) {
    groups[PivotValues(data_.x[r], pivots)].push_back(
        static_cast<uint32_t>(r));
  }
  auto index = std::make_shared<PivotSetIndex>();
  index->rows.reserve(data_.size());
  index->group_begin.reserve(groups.size() + 1);
  for (const auto& [tuple, rows] : groups) {
    index->group_begin.push_back(static_cast<uint32_t>(index->rows.size()));
    index->rows.insert(index->rows.end(), rows.begin(), rows.end());
  }
  index->group_begin.push_back(static_cast<uint32_t>(index->rows.size()));
  return pivot_index_.Publish(pivots, std::move(index));
}

Result<double> LogicalOpModel::PivotRegressionEstimate(
    const std::vector<double>& features,
    const std::vector<size_t>& pivots) const {
  if (data_.size() == 0) {
    return Status::FailedPrecondition("no retained training data for remedy");
  }
  if (data_.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("too many retained training rows");
  }
  const std::shared_ptr<const PivotSetIndex> index = IndexFor(pivots);
  const size_t dims = features.size();
  std::vector<double> span(dims);
  std::vector<char> is_pivot(dims, 0);
  for (size_t i = 0; i < dims; ++i) span[i] = Span(metadata_.dimension(i));
  for (size_t p : pivots) is_pivot[p] = 1;

  // Within each pivot-tuple group keep the row whose non-pivot dimensions
  // best match the query ("their values in the D_inRange dimensions are
  // matching or very close"); the lowest row wins ties. Then rank the
  // groups by their tuple's proximity to the query's pivot values
  // ("immediate successors and/or predecessors") and keep the closest k.
  std::vector<std::pair<double, size_t>> ranked;
  ranked.reserve(index->group_begin.size() - 1);
  for (size_t g = 0; g + 1 < index->group_begin.size(); ++g) {
    const uint32_t begin = index->group_begin[g];
    const uint32_t end = index->group_begin[g + 1];
    size_t best = 0;
    double best_d = 0.0;
    for (uint32_t j = begin; j < end; ++j) {
      const std::vector<double>& row = data_.x[index->rows[j]];
      double d = 0.0;
      for (size_t i = 0; i < dims; ++i) {
        if (is_pivot[i]) continue;
        double delta = (features[i] - row[i]) / span[i];
        d += delta * delta;
      }
      if (j == begin || d < best_d) {
        best = index->rows[j];
        best_d = d;
      }
    }
    const std::vector<double>& tuple = data_.x[index->rows[begin]];
    double d = 0.0;
    for (size_t p : pivots) {
      double delta = (tuple[p] - features[p]) / span[p];
      d += delta * delta;
    }
    ranked.emplace_back(d, best);
  }
  size_t k = std::max<size_t>(pivots.size() + 2,
                              static_cast<size_t>(opts_.remedy_neighbors));
  k = std::min(k, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end());
  ranked.resize(k);

  ml::Dataset pivot_data;
  for (const auto& [d, row] : ranked) {
    pivot_data.Add(PivotValues(data_.x[row], pivots), data_.y[row]);
  }
  auto lr = ml::LinearRegression::Fit(pivot_data);
  if (!lr.ok()) {
    // Degenerate neighborhood (e.g. a single pivot value): extrapolate a
    // flat line through the closest point.
    return pivot_data.y.empty() ? Status::Internal("no remedy neighbors")
                                : Result<double>(pivot_data.y[0]);
  }
  return lr.value().Predict(PivotValues(features, pivots));
}

void LogicalOpModel::Save(const std::string& prefix,
                          Properties* props) const {
  props->SetInt(prefix + "type", static_cast<int64_t>(type_));
  props->SetDouble(prefix + "alpha", alpha_);
  props->SetDouble(prefix + "beta", opts_.beta);
  props->SetInt(prefix + "remedy_neighbors", opts_.remedy_neighbors);
  props->SetDouble(prefix + "initial_alpha", opts_.initial_alpha);
  props->SetDouble(prefix + "continuity_factor", opts_.continuity_factor);
  props->SetInt(prefix + "tuning_iterations", opts_.tuning_iterations);
  metadata_.Save(prefix + "meta_", props);
  mlp_.Save(prefix + "nn_", props);
  // Retained training points, flattened row-major (the remedy phase needs
  // them to extract pivot-regression neighborhoods).
  props->SetInt(prefix + "data_rows", static_cast<int64_t>(data_.size()));
  props->SetInt(prefix + "data_cols",
                static_cast<int64_t>(data_.num_features()));
  std::vector<double> flat;
  flat.reserve(data_.size() * data_.num_features());
  for (const auto& row : data_.x) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  props->SetDoubleList(prefix + "data_x", flat);
  props->SetDoubleList(prefix + "data_y", data_.y);
}

Result<LogicalOpModel> LogicalOpModel::Load(const std::string& prefix,
                                            const Properties& props) {
  LogicalOpModel model;
  ISPHERE_ASSIGN_OR_RETURN(int64_t type, props.GetInt(prefix + "type"));
  if (type < 0 || type > static_cast<int64_t>(rel::OperatorType::kScan)) {
    return Status::InvalidArgument("invalid serialized operator type");
  }
  model.type_ = static_cast<rel::OperatorType>(type);
  ISPHERE_ASSIGN_OR_RETURN(model.alpha_, props.GetDouble(prefix + "alpha"));
  ISPHERE_ASSIGN_OR_RETURN(model.opts_.beta, props.GetDouble(prefix + "beta"));
  ISPHERE_ASSIGN_OR_RETURN(int64_t k,
                           props.GetInt(prefix + "remedy_neighbors"));
  model.opts_.remedy_neighbors = static_cast<int>(k);
  ISPHERE_ASSIGN_OR_RETURN(model.opts_.initial_alpha,
                           props.GetDouble(prefix + "initial_alpha"));
  ISPHERE_ASSIGN_OR_RETURN(model.opts_.continuity_factor,
                           props.GetDouble(prefix + "continuity_factor"));
  ISPHERE_ASSIGN_OR_RETURN(int64_t ti,
                           props.GetInt(prefix + "tuning_iterations"));
  model.opts_.tuning_iterations = static_cast<int>(ti);
  ISPHERE_ASSIGN_OR_RETURN(model.metadata_,
                           TrainingMetadata::Load(prefix + "meta_", props));
  ISPHERE_ASSIGN_OR_RETURN(model.mlp_,
                           ml::MlpRegressor::Load(prefix + "nn_", props));
  ISPHERE_ASSIGN_OR_RETURN(int64_t rows, props.GetInt(prefix + "data_rows"));
  ISPHERE_ASSIGN_OR_RETURN(int64_t cols, props.GetInt(prefix + "data_cols"));
  ISPHERE_ASSIGN_OR_RETURN(std::vector<double> flat,
                           props.GetDoubleList(prefix + "data_x"));
  ISPHERE_ASSIGN_OR_RETURN(model.data_.y,
                           props.GetDoubleList(prefix + "data_y"));
  if (rows < 0 || cols <= 0 ||
      flat.size() != static_cast<size_t>(rows * cols) ||
      model.data_.y.size() != static_cast<size_t>(rows)) {
    return Status::InvalidArgument("inconsistent serialized training data");
  }
  model.data_.x.reserve(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    model.data_.x.emplace_back(flat.begin() + r * cols,
                               flat.begin() + (r + 1) * cols);
  }
  if (model.metadata_.num_dimensions() != static_cast<size_t>(cols)) {
    return Status::InvalidArgument(
        "serialized metadata width does not match the training data");
  }
  return model;
}

Status LogicalOpModel::LogExecution(const std::vector<double>& features,
                                    double actual_seconds) {
  if (actual_seconds < 0.0) {
    return Status::InvalidArgument("negative actual cost");
  }
  ISPHERE_ASSIGN_OR_RETURN(LogicalOpEstimate est, Estimate(features));
  LogRecord rec;
  rec.features = features;
  rec.actual_seconds = actual_seconds;
  rec.used_remedy = est.used_remedy;
  rec.nn_seconds = est.nn_seconds;
  rec.remedy_seconds = est.remedy_seconds;
  log_.push_back(std::move(rec));
  return Status::OK();
}

Status LogicalOpModel::OfflineTune() {
  if (log_.empty()) {
    return Status::FailedPrecondition("offline tuning with an empty log");
  }
  ml::Dataset new_data;
  std::vector<std::vector<double>> rows;
  for (const LogRecord& rec : log_) {
    new_data.Add(rec.features, rec.actual_seconds);
    rows.push_back(rec.features);
  }
  ISPHERE_RETURN_NOT_OK(
      mlp_.ContinueTraining(new_data, opts_.tuning_iterations));
  ISPHERE_RETURN_NOT_OK(data_.Append(new_data));
  pivot_index_.Clear();
  ISPHERE_RETURN_NOT_OK(
      metadata_.Absorb(rows, opts_.continuity_factor).status());
  log_.clear();
  return Status::OK();
}

Result<double> LogicalOpModel::AdjustAlpha() {
  // alpha* = sum((y - c2)(c1 - c2)) / sum((c1 - c2)^2) minimizes the
  // squared error of alpha*c1 + (1-alpha)*c2 over the remedy executions.
  double num = 0.0, den = 0.0;
  size_t used = 0;
  for (const LogRecord& rec : log_) {
    if (!rec.used_remedy) continue;
    double d = rec.nn_seconds - rec.remedy_seconds;
    num += (rec.actual_seconds - rec.remedy_seconds) * d;
    den += d * d;
    ++used;
  }
  if (used == 0) {
    return Status::FailedPrecondition("no remedy executions logged");
  }
  double a = den > 0.0 ? num / den : alpha_;
  alpha_ = std::clamp(a, 0.05, 0.95);
  return alpha_;
}

}  // namespace intellisphere::core
