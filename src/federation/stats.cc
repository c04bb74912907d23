#include "federation/stats.h"

#include <algorithm>
#include <cmath>

namespace intellisphere::fed {

int64_t TableProfile::DistinctOr(const std::string& column,
                                 int64_t fallback) const {
  auto it = columns.find(column);
  if (it == columns.end() || it->second.distinct <= 0) return fallback;
  return it->second.distinct;
}

TableProfile ProfileFromTable(const rel::TableDef& def) {
  TableProfile profile;
  profile.rows = def.stats.num_rows;
  profile.row_bytes = def.stats.row_bytes;
  for (const auto& [column, distinct] : def.stats.column_distinct) {
    ColumnStats stats;
    stats.distinct = distinct;
    if (distinct > 0) {
      // Synthetic catalog columns hold `row / f`, a dense integer domain.
      stats.min = 0.0;
      stats.max = static_cast<double>(distinct - 1);
      stats.has_range = true;
    }
    profile.columns.emplace(column, std::move(stats));
  }
  return profile;
}

Result<double> EstimateEqualitySelectivity(const ColumnStats& column) {
  if (column.distinct <= 0) {
    return Status::InvalidArgument("non-positive distinct count");
  }
  return 1.0 / static_cast<double>(column.distinct);
}

Result<double> EstimateRangeSelectivity(const ColumnStats& column, double lo,
                                        double hi) {
  if (lo > hi) return Status::InvalidArgument("range lower bound above upper");
  if (!column.has_range) {
    return Status::FailedPrecondition("column has no range statistics");
  }
  // Clip the predicate to the column's value range; an empty intersection
  // selects nothing.
  double clipped_lo = std::max(lo, column.min);
  double clipped_hi = std::min(hi, column.max);
  if (clipped_lo > clipped_hi) return 0.0;

  if (!column.histogram.empty()) {
    double total = 0.0;
    for (double count : column.histogram) total += count;
    if (total <= 0.0) {
      return Status::FailedPrecondition("histogram holds no rows");
    }
    double width = (column.max - column.min) /
                   static_cast<double>(column.histogram.size());
    if (width <= 0.0) {
      // Degenerate single-point range: the clip above already proved the
      // predicate covers it.
      return 1.0;
    }
    double selected = 0.0;
    for (size_t i = 0; i < column.histogram.size(); ++i) {
      double bucket_lo = column.min + width * static_cast<double>(i);
      double bucket_hi = bucket_lo + width;
      double overlap =
          std::min(clipped_hi, bucket_hi) - std::max(clipped_lo, bucket_lo);
      if (overlap <= 0.0) continue;
      // Pro-rate partially covered buckets by the overlap fraction.
      selected += column.histogram[i] * std::min(1.0, overlap / width);
    }
    return std::clamp(selected / total, 0.0, 1.0);
  }

  // Uniform fallback over [min, max].
  double span = column.max - column.min;
  if (span <= 0.0) return 1.0;
  return std::clamp((clipped_hi - clipped_lo) / span, 0.0, 1.0);
}

Result<double> EstimateEquiJoinSelectivity(int64_t left_distinct,
                                           int64_t right_distinct) {
  if (left_distinct <= 0 || right_distinct <= 0) {
    return Status::InvalidArgument("non-positive distinct count");
  }
  return 1.0 / static_cast<double>(std::max(left_distinct, right_distinct));
}

Result<int64_t> JoinOutputRows(int64_t left_rows, int64_t right_rows,
                               int64_t left_distinct, int64_t right_distinct,
                               double extra_selectivity) {
  if (extra_selectivity <= 0.0 || extra_selectivity > 1.0) {
    return Status::InvalidArgument("extra_selectivity must be in (0, 1]");
  }
  if (left_distinct <= 0 || right_distinct <= 0) {
    return Status::InvalidArgument("non-positive distinct count");
  }
  // Operand order matches rel::EstimateJoinCardinality exactly so two-
  // relation plans reproduce the legacy planners' numbers bit for bit.
  double denom = static_cast<double>(std::max(left_distinct, right_distinct));
  double est = static_cast<double>(left_rows) *
               static_cast<double>(right_rows) / denom * extra_selectivity;
  return std::max<int64_t>(1, static_cast<int64_t>(std::llround(est)));
}

int64_t DistinctAfter(int64_t distinct, int64_t output_rows) {
  return std::min(distinct, output_rows);
}

}  // namespace intellisphere::fed
