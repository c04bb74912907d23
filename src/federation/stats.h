// Per-column statistics and selectivity estimation for the cross-engine
// plan search (DESIGN.md §15). The DP enumerator needs cardinalities for
// arbitrary relation subsets, so the single-operator formulas in
// relational/cardinality.h are generalized here to composable pieces:
// per-column min/max/distinct profiles derived from the catalog, optional
// equi-width histograms for range predicates (with a uniform min/max
// fallback when no histogram is present), and the containment-assumption
// equi-join selectivity 1 / max(d_l, d_r).
//
// Numeric contract: for a two-relation equi-join, JoinOutputRows composed
// with base-table profiles is bit-identical to
// rel::EstimateJoinCardinality — same operand order, same llround, same
// max(1, ...) clamp — which is what lets PlanQuery reproduce the legacy
// per-operator planners without changing a single golden number.

#ifndef INTELLISPHERE_FEDERATION_STATS_H_
#define INTELLISPHERE_FEDERATION_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "relational/catalog.h"
#include "util/status.h"

namespace intellisphere::fed {

/// Statistics for one column: distinct count plus an optional value range
/// and an optional equi-width histogram over that range.
struct ColumnStats {
  /// Number of distinct values (<= 0 means unknown).
  int64_t distinct = 0;
  /// Value range [min, max]; meaningful only when has_range is true.
  double min = 0.0;
  double max = 0.0;
  bool has_range = false;
  /// Equi-width bucket row counts over [min, max]; empty = no histogram
  /// (range selectivity then assumes a uniform distribution).
  std::vector<double> histogram;
};

/// Row count, row width, and per-column statistics for one relation (a base
/// table or an intermediate result).
struct TableProfile {
  int64_t rows = 0;
  int64_t row_bytes = 0;
  std::map<std::string, ColumnStats> columns;

  /// The column's distinct count, or `fallback` when the column is unknown
  /// or its distinct count is unknown — the same convention as
  /// rel::TableStats::DistinctOr.
  int64_t DistinctOr(const std::string& column, int64_t fallback) const;
};

/// Derives a profile from a catalog table: rows/row_bytes from its stats,
/// one ColumnStats per known distinct count. Synthetic catalog columns get
/// a dense integer range [0, distinct - 1] so range predicates can be
/// estimated without a histogram.
TableProfile ProfileFromTable(const rel::TableDef& def);

/// Selectivity of `column = constant` under uniformity: 1 / distinct.
/// InvalidArgument when the distinct count is not positive.
[[nodiscard]] Result<double> EstimateEqualitySelectivity(
    const ColumnStats& column);

/// Selectivity of `lo <= column <= hi`: histogram buckets when present
/// (partial buckets pro-rated), otherwise uniform interpolation over
/// [min, max]. The predicate range is clipped to the column range first.
/// FailedPrecondition when the column has no range information at all;
/// InvalidArgument when lo > hi.
[[nodiscard]] Result<double> EstimateRangeSelectivity(const ColumnStats& column,
                                                      double lo, double hi);

/// Containment-assumption equi-join selectivity: 1 / max(d_l, d_r).
/// InvalidArgument when either distinct count is not positive.
[[nodiscard]] Result<double> EstimateEquiJoinSelectivity(int64_t left_distinct,
                                                         int64_t right_distinct);

/// Equi-join output cardinality with an extra predicate selectivity —
/// the subset-level generalization of rel::EstimateJoinCardinality, and
/// bit-identical to it for base-table inputs:
///   max(1, llround(l_rows * r_rows / max(d_l, d_r) * extra)).
/// InvalidArgument when extra is outside (0, 1] or a distinct count is not
/// positive.
[[nodiscard]] Result<int64_t> JoinOutputRows(int64_t left_rows,
                                             int64_t right_rows,
                                             int64_t left_distinct,
                                             int64_t right_distinct,
                                             double extra_selectivity);

/// Distinct count of a column after an operator reduced the relation to
/// `output_rows` rows: a distinct count can never exceed the row count.
int64_t DistinctAfter(int64_t distinct, int64_t output_rows);

}  // namespace intellisphere::fed

#endif  // INTELLISPHERE_FEDERATION_STATS_H_
