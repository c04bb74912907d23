// Tests for the cross-engine DP plan search (DESIGN.md §15): selectivity
// estimation (histogram vs. min/max fallback), QuerySpec validation, the
// DP enumerator against an exhaustive oracle on small specs, parity with
// hand-rolled replicas of the pre-DP single-operator planners, and the
// planner knobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/sub_op.h"
#include "federation/explain.h"
#include "federation/intellisphere.h"
#include "federation/plan_search.h"
#include "federation/stats.h"
#include "relational/cardinality.h"
#include "relational/workload.h"
#include "remote/hive_engine.h"
#include "remote/spark_engine.h"
#include "serving/service.h"

namespace intellisphere::fed {
namespace {

// --- Selectivity estimation (stats.h) --------------------------------------

TEST(PlanStatsTest, EqualitySelectivityIsOneOverDistinct) {
  ColumnStats c;
  c.distinct = 50;
  EXPECT_DOUBLE_EQ(EstimateEqualitySelectivity(c).value(), 0.02);
  c.distinct = 0;
  EXPECT_EQ(EstimateEqualitySelectivity(c).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PlanStatsTest, RangeSelectivityUniformFallback) {
  ColumnStats c;
  c.distinct = 100;
  c.min = 0.0;
  c.max = 100.0;
  c.has_range = true;
  // No histogram: uniform interpolation over [min, max].
  EXPECT_DOUBLE_EQ(EstimateRangeSelectivity(c, 0.0, 50.0).value(), 0.5);
  // Predicate clipped to the column range.
  EXPECT_DOUBLE_EQ(EstimateRangeSelectivity(c, -10.0, 1000.0).value(), 1.0);
  // Empty intersection selects nothing.
  EXPECT_DOUBLE_EQ(EstimateRangeSelectivity(c, 200.0, 300.0).value(), 0.0);
  // Inverted bounds are an error, not an empty range.
  EXPECT_EQ(EstimateRangeSelectivity(c, 5.0, 1.0).status().code(),
            StatusCode::kInvalidArgument);
  // No range statistics at all.
  ColumnStats bare;
  bare.distinct = 100;
  EXPECT_EQ(EstimateRangeSelectivity(bare, 0.0, 1.0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PlanStatsTest, RangeSelectivityPrefersHistogramOverUniform) {
  ColumnStats c;
  c.distinct = 100;
  c.min = 0.0;
  c.max = 100.0;
  c.has_range = true;
  c.histogram = {90.0, 10.0};  // 90% of rows in [0, 50)
  // Full first bucket.
  EXPECT_DOUBLE_EQ(EstimateRangeSelectivity(c, 0.0, 50.0).value(), 0.9);
  // Half the first bucket, pro-rated.
  EXPECT_DOUBLE_EQ(EstimateRangeSelectivity(c, 0.0, 25.0).value(), 0.45);
  // The uniform fallback would have said 0.5 / 0.25 — the histogram is the
  // distinguishing signal.
  ColumnStats uniform = c;
  uniform.histogram.clear();
  EXPECT_DOUBLE_EQ(EstimateRangeSelectivity(uniform, 0.0, 50.0).value(), 0.5);
  EXPECT_DOUBLE_EQ(EstimateRangeSelectivity(uniform, 0.0, 25.0).value(),
                   0.25);
}

TEST(PlanStatsTest, EquiJoinSelectivityUsesContainment) {
  EXPECT_DOUBLE_EQ(EstimateEquiJoinSelectivity(100, 400).value(), 1.0 / 400);
  EXPECT_EQ(EstimateEquiJoinSelectivity(0, 5).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PlanStatsTest, JoinOutputRowsMatchesLegacyCardinality) {
  auto l = rel::SyntheticTableDef(8000000, 250).value();
  auto r = rel::SyntheticTableDef(2000000, 100).value();
  TableProfile lp = ProfileFromTable(l);
  TableProfile rp = ProfileFromTable(r);
  for (const char* column : {"a1", "a10", "a100"}) {
    for (double extra : {1.0, 0.5, 0.037}) {
      EXPECT_EQ(JoinOutputRows(l.stats.num_rows, r.stats.num_rows,
                               lp.DistinctOr(column, l.stats.num_rows),
                               rp.DistinctOr(column, r.stats.num_rows), extra)
                    .value(),
                rel::EstimateJoinCardinality(l, r, column, extra).value())
          << column << " extra=" << extra;
    }
  }
  EXPECT_EQ(JoinOutputRows(10, 10, 5, 5, 0.0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(JoinOutputRows(10, 10, 0, 5, 1.0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PlanStatsTest, ProfileFromTableAndDistinctAfter) {
  auto t = rel::SyntheticTableDef(1000000, 100).value();
  TableProfile p = ProfileFromTable(t);
  EXPECT_EQ(p.rows, 1000000);
  EXPECT_EQ(p.row_bytes, 100);
  // Synthetic columns carry a dense integer range [0, distinct - 1].
  auto it = p.columns.find("a10");
  ASSERT_NE(it, p.columns.end());
  EXPECT_EQ(it->second.distinct, 100000);
  EXPECT_TRUE(it->second.has_range);
  EXPECT_DOUBLE_EQ(it->second.max, 99999.0);
  // Unknown columns fall back.
  EXPECT_EQ(p.DistinctOr("no_such_column", 7), 7);
  EXPECT_EQ(DistinctAfter(1000, 300), 300);
  EXPECT_EQ(DistinctAfter(1000, 30000), 1000);
}

// --- QuerySpec validation ---------------------------------------------------

QuerySpec TwoRelationSpec() {
  QuerySpec spec;
  spec.relations = {{"left_table"}, {"right_table"}};
  spec.joins = {{0, 1, "a1", 1.0}};
  return spec;
}

void ExpectInvalid(const QuerySpec& spec, const std::string& message) {
  Status s = spec.Validate();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << message;
  EXPECT_EQ(s.message(), message);
}

TEST(QuerySpecTest, ValidatesStructure) {
  EXPECT_TRUE(TwoRelationSpec().Validate().ok());

  ExpectInvalid(QuerySpec{}, "query spec has no relations");

  QuerySpec spec = TwoRelationSpec();
  spec.relations[0].table.clear();
  ExpectInvalid(spec, "relation table name is empty");

  spec = TwoRelationSpec();
  spec.relations[1].filter_selectivity = 1.5;
  ExpectInvalid(spec, "selectivity must be in [0, 1]");

  spec = TwoRelationSpec();
  spec.relations[0].projected_bytes = -2;  // below the kFullRowWidth sentinel
  ExpectInvalid(spec, "negative projected size");

  spec = TwoRelationSpec();
  spec.joins[0].right = 5;
  ExpectInvalid(spec, "join predicate relation index out of range");

  spec = TwoRelationSpec();
  spec.joins[0].right = 0;
  ExpectInvalid(spec, "join predicate joins a relation to itself");

  spec = TwoRelationSpec();
  spec.joins[0].column.clear();
  ExpectInvalid(spec, "join predicate column is empty");

  spec = TwoRelationSpec();
  spec.joins[0].extra_selectivity = 0.0;
  ExpectInvalid(spec, "extra_selectivity must be in (0, 1]");

  // Three relations, one edge: the DP could never complete a plan.
  spec = TwoRelationSpec();
  spec.relations.push_back({"third_table"});
  ExpectInvalid(spec, "join graph does not connect all relations");

  // A single relation admits no join predicates.
  spec = TwoRelationSpec();
  spec.relations.pop_back();
  ExpectInvalid(spec, "join predicate relation index out of range");
}

TEST(QuerySpecTest, ValidatesAggregate) {
  QuerySpec spec = TwoRelationSpec();
  spec.aggregate = QuerySpec::Aggregate{5, "a10", 1};
  ExpectInvalid(spec, "aggregate relation index out of range");

  spec.aggregate = QuerySpec::Aggregate{0, "", 1};
  ExpectInvalid(spec, "aggregate group column is empty");

  spec.aggregate = QuerySpec::Aggregate{0, "a10", 0};
  ExpectInvalid(spec, "need at least one aggregate function");
}

TEST(PlannerOptionsTest, FromPropertiesReadsKnobs) {
  Properties props;
  PlannerOptions defaults = PlannerOptions::FromProperties(props).value();
  EXPECT_EQ(defaults.max_dp_relations, 12);
  EXPECT_DOUBLE_EQ(defaults.prune_factor, 0.0);

  props.SetInt(kPlannerMaxDpRelationsKey, 6);
  props.SetDouble(kPlannerPruneFactorKey, 2.5);
  PlannerOptions opts = PlannerOptions::FromProperties(props).value();
  EXPECT_EQ(opts.max_dp_relations, 6);
  EXPECT_DOUBLE_EQ(opts.prune_factor, 2.5);

  props.SetInt(kPlannerMaxDpRelationsKey, 0);
  EXPECT_EQ(PlannerOptions::FromProperties(props).status().code(),
            StatusCode::kInvalidArgument);
  props.SetInt(kPlannerMaxDpRelationsKey, 17);
  EXPECT_EQ(PlannerOptions::FromProperties(props).status().code(),
            StatusCode::kInvalidArgument);
  props.SetInt(kPlannerMaxDpRelationsKey, 6);
  props.SetDouble(kPlannerPruneFactorKey, 0.5);  // (0, 1) is nonsense
  EXPECT_EQ(PlannerOptions::FromProperties(props).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Exhaustive oracle ------------------------------------------------------
//
// Independently enumerates EVERY plan in the search space the API defines —
// all bushy join trees whose every join has a cross predicate and connected
// inputs, crossed with all placements {master, left site, right site} per
// join — and checks the DP's chosen plan is the global minimum. The oracle
// never minimizes per (subset, site) the way the DP table does, so it
// exercises the admissibility of that collapse.

class Oracle {
 public:
  using CostFn = std::function<Result<core::HybridEstimate>(
      const std::string&, const rel::SqlOperator&)>;
  using XferFn = std::function<double(const std::string&, const std::string&,
                                      int64_t, int64_t)>;

  Oracle(const QuerySpec& spec, std::vector<rel::TableDef> tables,
         std::string master, CostFn cost, XferFn xfer)
      : spec_(spec),
        tables_(std::move(tables)),
        master_(std::move(master)),
        cost_(std::move(cost)),
        xfer_(std::move(xfer)) {
    const bool bare_scan = spec_.relations.size() == 1 &&
                           spec_.joins.empty() &&
                           !spec_.aggregate.has_value();
    for (size_t i = 0; i < spec_.relations.size(); ++i) {
      const QuerySpec::Relation& r = spec_.relations[i];
      const rel::TableDef& def = tables_[i];
      Rel rel;
      rel.location = def.location;
      rel.base_rows = def.stats.num_rows;
      rel.proj = r.projected_bytes >= 0 ? r.projected_bytes
                                        : def.stats.row_bytes;
      rel.scanned = bare_scan || r.filter_selectivity < 1.0;
      rel.rows = rel.scanned
                     ? static_cast<int64_t>(std::llround(
                           r.filter_selectivity *
                           static_cast<double>(rel.base_rows)))
                     : rel.base_rows;
      rel.width = rel.scanned ? rel.proj : def.stats.row_bytes;
      rel.profile = ProfileFromTable(def);
      rels_.push_back(std::move(rel));
    }
  }

  /// The cheapest end-to-end total over the whole plan space.
  double MinTotal() {
    const uint64_t full = (uint64_t{1} << rels_.size()) - 1;
    double best = std::numeric_limits<double>::infinity();
    for (const auto& [site, cost] : Enumerate(full)) {
      if (!spec_.aggregate.has_value()) {
        double total = cost;
        if (spec_.result_to_master && site != master_) {
          MS stats = StatsOf(full);
          total += xfer_(site, master_, stats.rows, stats.width);
        }
        best = std::min(best, total);
        continue;
      }
      const QuerySpec::Aggregate& agg = *spec_.aggregate;
      MS in = StatsOf(full);
      const Rel& owner = rels_[static_cast<size_t>(agg.relation)];
      int64_t d = owner.profile.DistinctOr(agg.group_column, in.rows);
      if (owner.scanned) d = DistinctAfter(d, owner.rows);
      const int64_t raw = std::min(in.rows, d);
      const int64_t groups =
          spec_.joins.empty() ? raw : std::max<int64_t>(1, raw);
      rel::AggQuery q;
      q.input = {in.rows, in.width};
      q.output_rows = groups;
      q.output_row_bytes = kGroupKeyBytes +
                           kAggregateValueBytes * agg.num_aggregates;
      q.num_aggregates = agg.num_aggregates;
      rel::SqlOperator op = rel::SqlOperator::MakeAgg(q);
      const std::set<std::string> hosts = {site, master_};
      for (const std::string& host : hosts) {
        auto est = cost_(host, op);
        if (!est.ok()) {
          EXPECT_TRUE(est.status().code() == StatusCode::kUnsupported ||
                      est.status().code() == StatusCode::kFailedPrecondition)
              << est.status().message();
          continue;
        }
        double total = cost;
        if (host != site) total += xfer_(site, host, in.rows, in.width);
        total += est.value().seconds;
        if (spec_.result_to_master && host != master_) {
          total += xfer_(host, master_, groups, q.output_row_bytes);
        }
        best = std::min(best, total);
      }
    }
    return best;
  }

 private:
  struct Rel {
    std::string location;
    int64_t base_rows = 0;
    int64_t rows = 0;
    int64_t width = 0;
    int64_t proj = 0;
    bool scanned = false;
    TableProfile profile;
  };
  struct MS {
    int64_t rows = 0;
    int64_t width = 0;
    int64_t proj = 0;
  };

  bool Connected(uint64_t mask) const {
    if (mask == 0) return false;
    uint64_t reach = mask & (~mask + 1);
    bool grew = true;
    while (grew) {
      grew = false;
      for (const QuerySpec::JoinPredicate& p : spec_.joins) {
        const uint64_t l = uint64_t{1} << static_cast<unsigned>(p.left);
        const uint64_t r = uint64_t{1} << static_cast<unsigned>(p.right);
        if (!(l & mask) || !(r & mask)) continue;
        uint64_t joined = 0;
        if (reach & l) joined |= r;
        if (reach & r) joined |= l;
        if (joined & ~reach) {
          reach |= joined;
          grew = true;
        }
      }
    }
    return reach == mask;
  }

  bool HasCross(uint64_t a, uint64_t b) const {
    for (const QuerySpec::JoinPredicate& p : spec_.joins) {
      const uint64_t l = uint64_t{1} << static_cast<unsigned>(p.left);
      const uint64_t r = uint64_t{1} << static_cast<unsigned>(p.right);
      if (((l & a) && (r & b)) || ((l & b) && (r & a))) return true;
    }
    return false;
  }

  int64_t EndpointDistinct(int relation, const std::string& column) const {
    const Rel& rel = rels_[static_cast<size_t>(relation)];
    int64_t d = rel.profile.DistinctOr(column, rel.base_rows);
    if (rel.scanned) d = DistinctAfter(d, rel.rows);
    return d;
  }

  MS StatsOf(uint64_t mask) const {
    if ((mask & (mask - 1)) == 0) {
      int i = 0;
      while (!((mask >> i) & 1u)) ++i;
      const Rel& rel = rels_[static_cast<size_t>(i)];
      return {rel.rows, rel.width, rel.proj};
    }
    double acc = 1.0;
    int64_t width = 0;
    for (size_t i = 0; i < rels_.size(); ++i) {
      if (!((mask >> i) & 1u)) continue;
      acc *= static_cast<double>(rels_[i].rows);
      width += rels_[i].proj;
    }
    for (const QuerySpec::JoinPredicate& p : spec_.joins) {
      const uint64_t l = uint64_t{1} << static_cast<unsigned>(p.left);
      const uint64_t r = uint64_t{1} << static_cast<unsigned>(p.right);
      if (!(l & mask) || !(r & mask)) continue;
      const double denom = static_cast<double>(
          std::max(EndpointDistinct(p.left, p.column),
                   EndpointDistinct(p.right, p.column)));
      acc = acc / denom * p.extra_selectivity;
    }
    if (acc > 9.0e18) acc = 9.0e18;
    return {std::max<int64_t>(1, static_cast<int64_t>(std::llround(acc))),
            width, width};
  }

  /// Every (site, cumulative cost) a complete subtree over `mask` can have.
  std::vector<std::pair<std::string, double>> Enumerate(uint64_t mask) {
    std::vector<std::pair<std::string, double>> out;
    if ((mask & (mask - 1)) == 0) {
      int i = 0;
      while (!((mask >> i) & 1u)) ++i;
      const Rel& rel = rels_[static_cast<size_t>(i)];
      if (!rel.scanned) {
        out.emplace_back(rel.location, 0.0);
        return out;
      }
      rel::ScanQuery q;
      q.input = {rel.base_rows,
                 tables_[static_cast<size_t>(i)].stats.row_bytes};
      q.selectivity = spec_.relations[static_cast<size_t>(i)]
                          .filter_selectivity;
      q.projected_bytes = rel.proj;
      q.output_rows = rel.rows;
      rel::SqlOperator op = rel::SqlOperator::MakeScan(q);
      const std::set<std::string> hosts = {master_, rel.location};
      for (const std::string& host : hosts) {
        auto est = cost_(host, op);
        if (!est.ok()) continue;
        double transfer = host == rel.location
                              ? 0.0
                              : xfer_(rel.location, host, rel.rows, rel.proj);
        out.emplace_back(host, transfer + est.value().seconds);
      }
      return out;
    }

    const uint64_t low = mask & (~mask + 1);
    for (uint64_t sub = (mask - 1) & mask; sub != 0; sub = (sub - 1) & mask) {
      if (!(sub & low)) continue;
      const uint64_t rest = mask ^ sub;
      if (!Connected(sub) || !Connected(rest) || !HasCross(sub, rest)) {
        continue;
      }
      MS ss = StatsOf(sub), rs = StatsOf(rest);
      uint64_t left_mask = sub, right_mask = rest;
      MS ls = ss, rstats = rs;
      if (ls.rows < rstats.rows) {
        std::swap(left_mask, right_mask);
        std::swap(ls, rstats);
      }
      MS outs = StatsOf(mask);
      rel::JoinQuery q;
      q.left = {ls.rows, ls.width};
      q.right = {rstats.rows, rstats.width};
      q.left_projected_bytes = ls.proj;
      q.right_projected_bytes = rstats.proj;
      q.output_rows = outs.rows;
      const double bound = static_cast<double>(ls.rows) *
                           static_cast<double>(rstats.rows);
      if (static_cast<double>(q.output_rows) > bound) {
        q.output_rows = static_cast<int64_t>(std::min(bound, 9.0e18));
      }
      rel::SqlOperator op = rel::SqlOperator::MakeJoin(q);

      const auto left_alts = Enumerate(left_mask);
      const auto right_alts = Enumerate(right_mask);
      for (const auto& [lsite, lcost] : left_alts) {
        for (const auto& [rsite, rcost] : right_alts) {
          const std::set<std::string> hosts = {master_, lsite, rsite};
          for (const std::string& host : hosts) {
            auto est = cost_(host, op);
            if (!est.ok()) {
              EXPECT_TRUE(est.status().code() == StatusCode::kUnsupported ||
                          est.status().code() == StatusCode::kFailedPrecondition)
                  << est.status().message();
              continue;
            }
            double tl = lsite == host ? 0.0
                                      : xfer_(lsite, host, ls.rows, ls.width);
            double tr = rsite == host
                            ? 0.0
                            : xfer_(rsite, host, rstats.rows, rstats.width);
            out.emplace_back(host,
                             lcost + rcost + tl + tr + est.value().seconds);
          }
        }
      }
    }
    return out;
  }

  QuerySpec spec_;
  std::vector<rel::TableDef> tables_;
  std::string master_;
  CostFn cost_;
  XferFn xfer_;
  std::vector<Rel> rels_;
};

// --- DP vs oracle on synthetic hooks ---------------------------------------

constexpr char kMaster[] = "td";

double SynthSpeed(const std::string& system) {
  if (system == kMaster) return 1.0;
  if (system == "alpha") return 0.45;
  return 0.8;  // "beta"
}

Result<core::HybridEstimate> SynthCostOne(const std::string& system,
                                          const rel::SqlOperator& op) {
  // "beta" cannot aggregate: exercises placement elimination inside the DP.
  if (system == "beta" && op.type == rel::OperatorType::kAggregation) {
    return Status::Unsupported("beta cannot aggregate");
  }
  double work = 0.0;
  switch (op.type) {
    case rel::OperatorType::kScan:
      work = 1.2 * static_cast<double>(op.scan.input.num_rows) +
             static_cast<double>(op.scan.output_rows);
      break;
    case rel::OperatorType::kJoin:
      work = static_cast<double>(op.join.left.num_rows) +
             3.0 * static_cast<double>(op.join.right.num_rows) +
             0.5 * static_cast<double>(op.join.output_rows);
      break;
    case rel::OperatorType::kAggregation:
      work = static_cast<double>(op.agg.input.num_rows) *
                 (1.0 + 0.2 * op.agg.num_aggregates) +
             static_cast<double>(op.agg.output_rows);
      break;
  }
  core::HybridEstimate est;
  est.seconds = SynthSpeed(system) * work * 1e-7;
  return est;
}

double SynthTransfer(const std::string& /*from*/, const std::string& /*to*/,
                     int64_t rows, int64_t row_bytes) {
  return 0.04 + 1.5e-9 * static_cast<double>(rows) *
                    static_cast<double>(row_bytes);
}

PlanSearchInput SynthInput(const QuerySpec& spec,
                           const std::vector<rel::TableDef>& tables) {
  PlanSearchInput input;
  input.spec = &spec;
  input.tables = tables;
  input.master = kMaster;
  input.cost = [](const std::vector<PlanCostRequest>& requests,
                  const core::EstimateContext&) {
    std::vector<Result<core::HybridEstimate>> results;
    results.reserve(requests.size());
    for (const PlanCostRequest& r : requests) {
      results.push_back(SynthCostOne(r.system, r.op));
    }
    return results;
  };
  input.transfer = [](const std::string& from, const std::string& to,
                      int64_t rows, int64_t bytes) -> Result<double> {
    return SynthTransfer(from, to, rows, bytes);
  };
  return input;
}

std::vector<rel::TableDef> SynthTables() {
  auto a = rel::SyntheticTableDef(5000000, 200).value();
  a.location = "alpha";
  auto b = rel::SyntheticTableDef(1000000, 120).value();
  b.location = "beta";
  auto c = rel::SyntheticTableDef(300000, 80).value();
  c.location = "alpha";
  auto d = rel::SyntheticTableDef(50000, 60).value();
  d.location = kMaster;
  return {a, b, c, d};
}

QuerySpec ChainSpec(const std::vector<rel::TableDef>& tables) {
  QuerySpec spec;
  for (const auto& t : tables) {
    spec.relations.push_back({t.name, 1.0, 32});
  }
  spec.joins = {{0, 1, "a1", 0.5}, {1, 2, "a10", 1.0}, {2, 3, "a5", 1.0}};
  return spec;
}

void ExpectOracleOptimal(const QuerySpec& spec,
                         const std::vector<rel::TableDef>& tables) {
  QueryPlan plan =
      SearchPlan(SynthInput(spec, tables), PlannerOptions{}, {}).value();
  Oracle oracle(
      spec, tables, kMaster,
      [](const std::string& s, const rel::SqlOperator& op) {
        return SynthCostOne(s, op);
      },
      SynthTransfer);
  EXPECT_DOUBLE_EQ(plan.best().value().total_seconds, oracle.MinTotal());
  // Candidates come back cheapest-first.
  for (size_t i = 1; i < plan.candidates.size(); ++i) {
    EXPECT_LE(plan.candidates[i - 1].total_seconds,
              plan.candidates[i].total_seconds);
  }
  EXPECT_GT(plan.candidates_costed, 0);
  EXPECT_GT(plan.dp_entries, 0);
  // The chosen root covers every relation exactly once.
  EXPECT_EQ(plan.root().value()->relation_mask,
            (uint64_t{1} << spec.relations.size()) - 1);
}

TEST(PlanSearchOracleTest, FourRelationChainIsOptimal) {
  auto tables = SynthTables();
  ExpectOracleOptimal(ChainSpec(tables), tables);
}

TEST(PlanSearchOracleTest, FourRelationStarIsOptimal) {
  auto tables = SynthTables();
  QuerySpec spec;
  for (const auto& t : tables) spec.relations.push_back({t.name, 1.0, 24});
  // Relation 1 is the hub.
  spec.joins = {{1, 0, "a1", 1.0}, {1, 2, "a10", 0.25}, {1, 3, "a2", 1.0}};
  ExpectOracleOptimal(spec, tables);
}

TEST(PlanSearchOracleTest, FiltersAggregateAndResultTransferAreOptimal) {
  auto tables = SynthTables();
  QuerySpec spec = ChainSpec(tables);
  spec.relations[0].filter_selectivity = 0.2;  // plans an explicit scan
  spec.relations[2].filter_selectivity = 0.6;
  spec.aggregate = QuerySpec::Aggregate{1, "a100", 2};
  spec.result_to_master = true;
  ExpectOracleOptimal(spec, tables);
}

TEST(PlanSearchOracleTest, ThreeRelationCycleIsOptimal) {
  auto tables = SynthTables();
  tables.pop_back();
  QuerySpec spec;
  for (const auto& t : tables) spec.relations.push_back({t.name, 1.0, 16});
  spec.joins = {{0, 1, "a1", 1.0}, {1, 2, "a10", 1.0}, {0, 2, "a5", 0.5}};
  ExpectOracleOptimal(spec, tables);
}

TEST(PlanSearchTest, EliminatedAggregationHostIsRecorded) {
  std::vector<rel::TableDef> tables = {SynthTables()[1]};  // lives on "beta"
  QuerySpec spec;
  spec.relations = {{tables[0].name, 1.0, 32}};
  spec.aggregate = QuerySpec::Aggregate{0, "a10", 1};
  QueryPlan plan =
      SearchPlan(SynthInput(spec, tables), PlannerOptions{}, {}).value();
  // "beta" cannot aggregate, so only the master placement survives and the
  // elimination is kept for EXPLAIN.
  ASSERT_EQ(plan.candidates.size(), 1u);
  EXPECT_EQ(plan.root().value()->system, kMaster);
  bool found = false;
  for (const auto& p : plan.pruned) {
    if (p.kind == PrunedSubplan::Kind::kEliminated && p.system == "beta") {
      EXPECT_EQ(p.reason, "beta cannot aggregate");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(PlanSearchTest, PruneFactorDropsEntriesButKeepsAPlan) {
  auto tables = SynthTables();
  QuerySpec spec = ChainSpec(tables);
  PlannerOptions exact;
  QueryPlan exact_plan =
      SearchPlan(SynthInput(spec, tables), exact, {}).value();

  // A huge factor prunes nothing and keeps the exact optimum.
  PlannerOptions loose;
  loose.prune_factor = 1e9;
  QueryPlan loose_plan =
      SearchPlan(SynthInput(spec, tables), loose, {}).value();
  EXPECT_DOUBLE_EQ(loose_plan.best().value().total_seconds,
                   exact_plan.best().value().total_seconds);

  // Factor 1 keeps only each subset's cheapest entry between levels.
  PlannerOptions tight;
  tight.prune_factor = 1.0;
  QueryPlan tight_plan =
      SearchPlan(SynthInput(spec, tables), tight, {}).value();
  EXPECT_FALSE(tight_plan.candidates.empty());
  bool saw_pruned = false;
  for (const auto& p : tight_plan.pruned) {
    if (p.kind == PrunedSubplan::Kind::kPruned) saw_pruned = true;
  }
  EXPECT_TRUE(saw_pruned);
  EXPECT_LT(tight_plan.dp_entries, exact_plan.dp_entries);
}

TEST(PlanSearchTest, OptionRangesAreChecked) {
  auto tables = SynthTables();
  QuerySpec spec = ChainSpec(tables);
  PlannerOptions bad;
  bad.max_dp_relations = 0;
  EXPECT_EQ(SearchPlan(SynthInput(spec, tables), bad, {}).status().code(),
            StatusCode::kInvalidArgument);
  bad.max_dp_relations = 2;
  Status s = SearchPlan(SynthInput(spec, tables), bad, {}).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "query spec exceeds planner.max_dp_relations");
  PlannerOptions bad_prune;
  bad_prune.prune_factor = 0.25;
  EXPECT_EQ(SearchPlan(SynthInput(spec, tables), bad_prune, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PlanSearchTest, ExplainRendersTreeAndJson) {
  auto tables = SynthTables();
  QuerySpec spec = ChainSpec(tables);
  spec.aggregate = QuerySpec::Aggregate{0, "a100", 1};
  spec.result_to_master = true;
  QueryPlan plan =
      SearchPlan(SynthInput(spec, tables), PlannerOptions{}, {}).value();
  PlacementExplanation ex = ExplainQueryPlan(plan);
  EXPECT_NE(ex.tree.find("query plan:"), std::string::npos);
  EXPECT_NE(ex.tree.find("chosen: total="), std::string::npos);
  EXPECT_NE(ex.tree.find("aggregate@"), std::string::npos);
  EXPECT_NE(ex.tree.find("dominated"), std::string::npos);
  EXPECT_NE(ex.json.find("\"query_plan\""), std::string::npos);
  EXPECT_NE(ex.json.find("\"tree\""), std::string::npos);
  EXPECT_NE(ex.json.find("\"pruned\""), std::string::npos);
}

// --- Golden plan identity ---------------------------------------------------
//
// Seeded chain/star/cycle specs of 3-6 relations over three sites, planned
// with fake hooks whose estimates carry every provenance field and whose
// costing rejects some (system, operator) pairs. Every QueryPlan field is
// serialized (doubles as %a) and compared with tests/plan_search_golden.txt,
// so any change to node order, candidate order, pruned entries or their
// labels fails here. On a mismatch the fresh rendering is written to
// plan_search_golden.actual.txt in the working directory.

/// splitmix64: a portable seeded stream (std distributions are not).
class GoldenRng {
 public:
  explicit GoldenRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

// The master sorts between the two remotes, so name order is not
// registration order.
constexpr char kGoldenMaster[] = "mid";
const char* const kGoldenRemotes[] = {"alpha", "zeta"};

uint64_t OperatorHash(const std::string& system, const rel::SqlOperator& op) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (char c : system) mix(static_cast<unsigned char>(c));
  mix(static_cast<uint64_t>(op.type));
  mix(static_cast<uint64_t>(op.join.left.num_rows));
  mix(static_cast<uint64_t>(op.join.right.num_rows));
  mix(static_cast<uint64_t>(op.join.output_rows));
  mix(static_cast<uint64_t>(op.agg.input.num_rows));
  mix(static_cast<uint64_t>(op.scan.output_rows));
  return h;
}

Result<core::HybridEstimate> GoldenCostOne(const std::string& system,
                                           const rel::SqlOperator& op) {
  const uint64_t h = OperatorHash(system, op);
  if (system == "zeta" && op.type == rel::OperatorType::kAggregation) {
    return Status::Unsupported("zeta cannot aggregate");
  }
  if (system == "alpha" && op.type == rel::OperatorType::kJoin &&
      h % 5 == 0) {
    return Status::FailedPrecondition(
        "alpha: join output " + std::to_string(op.join.output_rows) +
        " rows exceeds its memory limit");
  }
  if (system != kGoldenMaster && h % 11 == 0) {
    return Status::Unsupported(system + " rejects operator " +
                               std::to_string(h % 1000));
  }
  Result<core::HybridEstimate> base = SynthCostOne("td", op);
  core::HybridEstimate est = base.value();
  est.seconds *= system == kGoldenMaster ? 1.0
                 : system == "alpha"     ? 0.55
                                         : 0.7;
  est.seconds += static_cast<double>(h % 97) * 1e-4;
  if (system == kGoldenMaster) return est;
  est.approach_used = h % 2 == 0 ? core::CostingApproach::kSubOp
                                 : core::CostingApproach::kLogicalOp;
  if (est.approach_used == core::CostingApproach::kSubOp) {
    est.algorithm = h % 3 == 0 ? "bcast" : "shuffle";
    est.candidates = {{est.algorithm, est.seconds},
                      {"smj", est.seconds * 1.25}};
    est.eliminated = {{"skew", "hot " + std::to_string(h % 13)}};
    est.eliminated_count = 1;
  } else {
    est.used_remedy = h % 4 == 1;
    est.remedy_alpha = est.used_remedy ? 0.25 + 0.01 * (h % 50) : 1.0;
  }
  if (h % 7 == 3) est.fell_back_reason = "breaker_open:sub_op";
  return est;
}

PlanSearchInput GoldenInput(const QuerySpec& spec,
                            const std::vector<rel::TableDef>& tables) {
  PlanSearchInput input;
  input.spec = &spec;
  input.tables = tables;
  input.master = kGoldenMaster;
  input.cost = [](const std::vector<PlanCostRequest>& requests,
                  const core::EstimateContext&) {
    std::vector<Result<core::HybridEstimate>> results;
    results.reserve(requests.size());
    for (const PlanCostRequest& r : requests) {
      results.push_back(GoldenCostOne(r.system, r.op));
    }
    return results;
  };
  input.transfer = [](const std::string& from, const std::string& to,
                      int64_t rows, int64_t bytes) -> Result<double> {
    // Asymmetric links: the direction of a relay matters.
    const double link = from < to ? 1.0 : 1.3;
    return link * SynthTransfer(from, to, rows, bytes);
  };
  return input;
}

enum class GoldenShape { kChain, kStar, kCycle };

struct GoldenCase {
  GoldenShape shape;
  int relations;
  bool filters;
  bool aggregate;
  bool result_to_master;
  double prune_factor;
};

std::string GoldenCaseName(const GoldenCase& c) {
  static const char* const kShapes[] = {"chain", "star", "cycle"};
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s%d filters=%d aggregate=%d result_to_master=%d prune=%g",
                kShapes[static_cast<int>(c.shape)], c.relations, c.filters,
                c.aggregate, c.result_to_master, c.prune_factor);
  return buf;
}

void BuildGoldenCase(const GoldenCase& c, uint64_t seed, QuerySpec* spec,
                     std::vector<rel::TableDef>* tables) {
  GoldenRng rng(seed);
  static const char* const kColumns[] = {"a1", "a2", "a5", "a10", "a100"};
  for (int i = 0; i < c.relations; ++i) {
    rel::TableDef t =
        rel::SyntheticTableDef(rng.Range(2, 400) * 25000, rng.Range(4, 30) * 10)
            .value();
    t.name = "r" + std::to_string(i);
    const int64_t where = rng.Range(0, 2);
    t.location = where == 0 ? kGoldenMaster : kGoldenRemotes[where - 1];
    QuerySpec::Relation r;
    r.table = t.name;
    r.projected_bytes = rng.Range(0, 3) == 0 ? kFullRowWidth
                                             : rng.Range(1, 12) * 4;
    if (c.filters && rng.Range(0, 1) == 0) {
      r.filter_selectivity = static_cast<double>(rng.Range(1, 99)) / 100.0;
    }
    spec->relations.push_back(r);
    tables->push_back(std::move(t));
  }
  auto edge = [&](int l, int r) {
    QuerySpec::JoinPredicate p;
    p.left = l;
    p.right = r;
    p.column = kColumns[rng.Range(0, 4)];
    p.extra_selectivity =
        rng.Range(0, 2) == 0 ? static_cast<double>(rng.Range(1, 9)) / 10.0
                             : 1.0;
    spec->joins.push_back(p);
  };
  const int hub = static_cast<int>(rng.Range(0, c.relations - 1));
  for (int i = 1; i < c.relations; ++i) {
    if (c.shape == GoldenShape::kStar) {
      edge(hub, i == hub ? 0 : i);
    } else {
      edge(i - 1, i);
    }
  }
  if (c.shape == GoldenShape::kCycle) edge(c.relations - 1, 0);
  if (c.aggregate) {
    spec->aggregate = QuerySpec::Aggregate{
        static_cast<int>(rng.Range(0, c.relations - 1)),
        kColumns[rng.Range(0, 4)], static_cast<int>(rng.Range(1, 4))};
  }
  spec->result_to_master = c.result_to_master;
}

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void AppendF(std::string* out, const char* fmt, ...) {
  va_list args, sized;
  va_start(args, fmt);
  va_copy(sized, args);
  const int len = std::vsnprintf(nullptr, 0, fmt, sized);
  va_end(sized);
  const size_t at = out->size();
  out->resize(at + static_cast<size_t>(len) + 1);
  std::vsnprintf(out->data() + at, static_cast<size_t>(len) + 1, fmt, args);
  va_end(args);
  out->pop_back();  // the terminating NUL
}

std::string RenderOperator(const rel::SqlOperator& op) {
  const rel::JoinQuery& j = op.join;
  const rel::AggQuery& a = op.agg;
  const rel::ScanQuery& s = op.scan;
  std::string out;
  AppendF(&out,
          "type=%d join=%lld,%lld/%lld,%lld,proj=%lld,%lld,out=%lld,equi=%d,"
          "bucketed=%d,%d,hot=%a",
          static_cast<int>(op.type), static_cast<long long>(j.left.num_rows),
          static_cast<long long>(j.left.row_bytes),
          static_cast<long long>(j.right.num_rows),
          static_cast<long long>(j.right.row_bytes),
          static_cast<long long>(j.left_projected_bytes),
          static_cast<long long>(j.right_projected_bytes),
          static_cast<long long>(j.output_rows), j.is_equi_join,
          j.left_bucketed_on_key, j.right_bucketed_on_key, j.hot_key_fraction);
  AppendF(&out,
          " agg=%lld,%lld,out=%lld,%lld,n=%d scan=%lld,%lld,sel=%a,proj=%lld,"
          "out=%lld",
          static_cast<long long>(a.input.num_rows),
          static_cast<long long>(a.input.row_bytes),
          static_cast<long long>(a.output_rows),
          static_cast<long long>(a.output_row_bytes), a.num_aggregates,
          static_cast<long long>(s.input.num_rows),
          static_cast<long long>(s.input.row_bytes), s.selectivity,
          static_cast<long long>(s.projected_bytes),
          static_cast<long long>(s.output_rows));
  return out;
}

/// One line per node, candidate and pruned entry. Operators are shared by
/// every placement of a split, so nodes name them by index into a per-plan
/// table that follows the nodes.
std::string SerializePlan(const QueryPlan& plan) {
  std::string out;
  std::map<std::string, size_t> op_ids;
  std::vector<const std::string*> ops;
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const QueryPlanNode& n = plan.nodes[i];
    AppendF(&out,
            " n%zu k=%d %s label=%s m=%llx rows=%lld bytes=%lld t=%a o=%a "
            "c=%a",
            i, static_cast<int>(n.kind), n.system.c_str(), n.label.c_str(),
            static_cast<unsigned long long>(n.relation_mask),
            static_cast<long long>(n.output_rows),
            static_cast<long long>(n.output_row_bytes), n.transfer_seconds,
            n.operator_seconds, n.subtree_seconds);
    AppendF(&out, " approach=%s alg=%s remedy=%d,%a fell_back=%s ch=",
            n.approach.c_str(), n.algorithm.c_str(), n.used_remedy,
            n.remedy_alpha, n.fell_back_reason.c_str());
    for (int child : n.children) AppendF(&out, "%d,", child);
    out += " cand=";
    for (const core::AlgorithmEstimate& c : n.algorithm_candidates) {
      AppendF(&out, "%s:%a;", c.algorithm.c_str(), c.seconds);
    }
    out += " elim=";
    for (const core::EliminatedAlgorithm& e : n.eliminated_algorithms) {
      AppendF(&out, "%s:%s;", e.algorithm.c_str(), e.reason.c_str());
    }
    auto [it, added] = op_ids.emplace(RenderOperator(n.op), ops.size());
    if (added) ops.push_back(&it->first);
    AppendF(&out, " op=%zu\n", it->second);
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    AppendF(&out, " op%zu %s\n", i, ops[i]->c_str());
  }
  for (const QueryPlanCandidate& c : plan.candidates) {
    AppendF(&out, " candidate root=%d relay=%a total=%a\n", c.root,
            c.result_transfer_seconds, c.total_seconds);
  }
  for (const PrunedSubplan& p : plan.pruned) {
    const PrunedText text = DescribePruned(plan, p);
    AppendF(&out, " pruned kind=%d stage=%d m=%llx %s via=%s c=%a [%s] %s\n",
            static_cast<int>(p.kind), static_cast<int>(p.stage),
            static_cast<unsigned long long>(p.relation_mask),
            p.system.c_str(), p.via_system.c_str(), p.subtree_seconds,
            text.reason.c_str(), text.label.c_str());
  }
  AppendF(&out, " candidates_costed=%lld dp_entries=%lld\n",
          static_cast<long long>(plan.candidates_costed),
          static_cast<long long>(plan.dp_entries));
  return out;
}

/// Calls `visit(name, seed, spec, tables, options)` for each of the 24
/// golden cases, in fixture order.
template <typename Visit>
void ForEachGoldenCase(Visit&& visit) {
  uint64_t seed = 2020;
  for (GoldenShape shape :
       {GoldenShape::kChain, GoldenShape::kStar, GoldenShape::kCycle}) {
    for (int n = 3; n <= 6; ++n) {
      // Two complementary variants per shape and size, rotated with the
      // size, cover every flag value on every shape.
      const bool odd = n % 2 == 1;
      const GoldenCase cases[] = {
          {shape, n, true, odd, !odd, 1.5},
          {shape, n, false, !odd, odd, 0.0},
      };
      for (const GoldenCase& c : cases) {
        QuerySpec spec;
        std::vector<rel::TableDef> tables;
        BuildGoldenCase(c, ++seed, &spec, &tables);
        PlannerOptions options;
        options.prune_factor = c.prune_factor;
        visit(GoldenCaseName(c), seed, spec, tables, options);
      }
    }
  }
}

std::string RenderGoldenPlans() {
  std::string out;
  ForEachGoldenCase([&out](const std::string& name, uint64_t seed,
                           const QuerySpec& spec,
                           const std::vector<rel::TableDef>& tables,
                           const PlannerOptions& options) {
    Result<QueryPlan> plan =
        SearchPlan(GoldenInput(spec, tables), options, {});
    AppendF(&out, "plan %s seed=%llu\n", name.c_str(),
            static_cast<unsigned long long>(seed));
    if (!plan.ok()) {
      AppendF(&out, " error %s\n", plan.status().ToString().c_str());
      return;
    }
    out += SerializePlan(plan.value());
  });
  return out;
}

TEST(PlanSearchGoldenTest, PlansMatchGoldenFieldForField) {
  const std::string actual = RenderGoldenPlans();
  // The fixture must exercise every recorded path.
  for (const char* needle :
       {"pruned kind=0 stage=1", "pruned kind=0 stage=2",
        "pruned kind=0 stage=3", "pruned kind=1", "pruned kind=2",
        "remedy=1", "fell_back=breaker_open", "relay=0x1"}) {
    EXPECT_NE(actual.find(needle), std::string::npos) << needle;
  }
  const std::string path =
      std::string(ISPHERE_TESTS_DIR) + "/plan_search_golden.txt";
  std::ifstream in(path, std::ios::binary);
  std::stringstream golden;
  golden << in.rdbuf();
  if (golden.str() == actual) return;
  std::ofstream("plan_search_golden.actual.txt", std::ios::binary) << actual;
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::istringstream want(golden.str()), got(actual);
  std::string want_line, got_line;
  int line = 0;
  while (true) {
    ++line;
    const bool more_want = static_cast<bool>(std::getline(want, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    if (!more_want && !more_got) break;
    if (!more_want || !more_got || want_line != got_line) {
      ADD_FAILURE() << "golden mismatch at line " << line << "\n  want: "
                    << (more_want ? want_line : "<eof>")
                    << "\n  got:  " << (more_got ? got_line : "<eof>")
                    << "\n(full rendering in plan_search_golden.actual.txt)";
      break;
    }
  }
}

TEST(PlanSearchGoldenTest, DominatedRecordsReferToTheSubplanTheyCost) {
  // A dominated record reports the losing subplan's cost, so its label
  // must name the losing subplan, not the entry that beat it.
  int dominated = 0;
  ForEachGoldenCase([&](const std::string& name, uint64_t,
                        const QuerySpec& spec,
                        const std::vector<rel::TableDef>& tables,
                        const PlannerOptions& options) {
    Result<QueryPlan> plan =
        SearchPlan(GoldenInput(spec, tables), options, {});
    ASSERT_TRUE(plan.ok()) << name;
    const QueryPlan& p = plan.value();
    for (size_t i = 0; i < p.pruned.size(); ++i) {
      const PrunedSubplan& record = p.pruned[i];
      if (record.kind != PrunedSubplan::Kind::kDominated) continue;
      ++dominated;
      ASSERT_GE(record.node, 0) << name << " pruned " << i;
      ASSERT_LT(static_cast<size_t>(record.node), p.nodes.size());
      const QueryPlanNode& node = p.nodes[static_cast<size_t>(record.node)];
      EXPECT_EQ(node.subtree_seconds, record.subtree_seconds)
          << name << " pruned " << i << ": "
          << DescribePruned(p, record).label;
      EXPECT_EQ(node.system, record.system) << name << " pruned " << i;
      EXPECT_EQ(node.relation_mask, record.relation_mask)
          << name << " pruned " << i;
    }
  });
  EXPECT_EQ(dominated, 2030);
}

// --- QueryGrid relay memo ----------------------------------------------------

using RelayTuple = std::tuple<std::string, std::string, int64_t, int64_t>;

/// Wraps `input.transfer` so every call is appended to `calls`.
void RecordRelays(PlanSearchInput* input, std::vector<RelayTuple>* calls) {
  input->transfer = [relay = input->transfer, calls](
                        const std::string& from, const std::string& to,
                        int64_t rows, int64_t bytes) -> Result<double> {
    calls->emplace_back(from, to, rows, bytes);
    return relay(from, to, rows, bytes);
  };
}

TEST(PlanSearchMemoTest, TransferSeesEachTupleAtMostOncePerSearch) {
  // Distinct subsets can share (rows, bytes) — cycle5 {r2,r3} and {r3,r4}
  // do — so the tuple, not the subset, is what must be asked once.
  size_t total_calls = 0;
  ForEachGoldenCase([&](const std::string& name, uint64_t,
                        const QuerySpec& spec,
                        const std::vector<rel::TableDef>& tables,
                        const PlannerOptions& options) {
    PlanSearchInput input = GoldenInput(spec, tables);
    std::vector<RelayTuple> calls;
    RecordRelays(&input, &calls);
    ASSERT_TRUE(SearchPlan(input, options, {}).ok()) << name;
    total_calls += calls.size();
    std::map<RelayTuple, int> seen;
    for (const RelayTuple& t : calls) {
      EXPECT_EQ(++seen[t], 1)
          << name << ": " << std::get<0>(t) << " -> " << std::get<1>(t)
          << " rows=" << std::get<2>(t) << " bytes=" << std::get<3>(t);
    }
  });
  EXPECT_GT(total_calls, 0u);
}

/// Whether two join nodes of `plan` staged the same subset over the same
/// link: the second lookup was answered from the memo.
bool ReusesAJoinInputRelay(const QueryPlan& plan) {
  std::set<std::tuple<uint64_t, std::string, std::string>> relays;
  for (const QueryPlanNode& n : plan.nodes) {
    if (n.kind != QueryPlanNode::Kind::kJoin) continue;
    for (int child : n.children) {
      const QueryPlanNode& in = plan.nodes[static_cast<size_t>(child)];
      if (in.system != n.system &&
          !relays.emplace(in.relation_mask, in.system, n.system).second) {
        return true;
      }
    }
  }
  return false;
}

TEST(PlanSearchMemoTest, FailingRelayAbortsWithItsStatus) {
  // Every distinct tuple of a search fails in turn: the first one
  // requested, and the ones several candidates stage through, which a
  // later lookup would have answered from the memo. Each failure must
  // surface as exactly that status.
  int cases = 0;
  bool saw_memo_hit = false;
  ForEachGoldenCase([&](const std::string& name, uint64_t,
                        const QuerySpec& spec,
                        const std::vector<rel::TableDef>& tables,
                        const PlannerOptions& options) {
    if (spec.relations.size() > 4) return;
    ++cases;
    PlanSearchInput input = GoldenInput(spec, tables);
    std::vector<RelayTuple> calls;
    RecordRelays(&input, &calls);
    Result<QueryPlan> plan = SearchPlan(input, options, {});
    ASSERT_TRUE(plan.ok()) << name;
    saw_memo_hit = saw_memo_hit || ReusesAJoinInputRelay(plan.value());
    for (size_t k = 0; k < calls.size(); ++k) {
      PlanSearchInput failing = GoldenInput(spec, tables);
      const RelayTuple target = calls[k];
      const Status down =
          Status::Unavailable("relay " + std::to_string(k) + " down");
      failing.transfer = [relay = failing.transfer, target, down](
                             const std::string& from, const std::string& to,
                             int64_t rows, int64_t bytes) -> Result<double> {
        if (RelayTuple(from, to, rows, bytes) == target) return down;
        return relay(from, to, rows, bytes);
      };
      Result<QueryPlan> failed = SearchPlan(failing, options, {});
      ASSERT_FALSE(failed.ok()) << name << " tuple " << k;
      EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
      EXPECT_EQ(failed.status().message(), down.message());
    }
  });
  EXPECT_EQ(cases, 12);
  EXPECT_TRUE(saw_memo_hit);
}

// --- PlanQuery on the real facade ------------------------------------------

core::OpenboxInfo InfoFor(const remote::SimulatedEngineBase& e) {
  core::OpenboxInfo info;
  info.dfs_block_bytes = e.cluster().config().dfs_block_bytes;
  info.total_slots = e.cluster().config().TotalSlots();
  info.num_worker_nodes = e.cluster().config().num_worker_nodes;
  info.task_memory_bytes = e.cluster().config().TaskMemoryBytes();
  info.broadcast_threshold_bytes = 0.02 * info.task_memory_bytes;
  return info;
}

core::CostingProfile ProfileFor(remote::SimulatedEngineBase* engine) {
  core::CalibrationOptions copts;
  copts.record_sizes = {40, 250, 1000};
  copts.record_counts = {1000000, 4000000};
  auto run = core::CalibrateSubOps(engine, InfoFor(*engine), copts).value();
  return core::CostingProfile::SubOpOnly(
      core::SubOpCostEstimator::ForHive(std::move(run.catalog)).value());
}

class PlanQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto hive = remote::HiveEngine::CreateDefault("hive", 91);
    auto* hive_raw = hive.get();
    ASSERT_TRUE(sphere_
                    .RegisterRemoteSystem(std::move(hive),
                                          ProfileFor(hive_raw),
                                          ConnectorParams{})
                    .ok());
    auto spark = remote::SparkEngine::CreateDefault("spark", 92);
    auto* spark_raw = spark.get();
    ASSERT_TRUE(sphere_
                    .RegisterRemoteSystem(std::move(spark),
                                          ProfileFor(spark_raw),
                                          ConnectorParams{})
                    .ok());
    auto a = rel::SyntheticTableDef(8000000, 250).value();
    a.location = "hive";
    ASSERT_TRUE(sphere_.RegisterTable(a).ok());
    auto b = rel::SyntheticTableDef(2000000, 100).value();
    b.location = "spark";
    ASSERT_TRUE(sphere_.RegisterTable(b).ok());
    auto c = rel::SyntheticTableDef(500000, 40).value();
    c.location = "hive";
    ASSERT_TRUE(sphere_.RegisterTable(c).ok());
    auto d = rel::SyntheticTableDef(100000, 100).value();
    d.location = kTeradataSystemName;
    ASSERT_TRUE(sphere_.RegisterTable(d).ok());
  }

  QuerySpec FourRelationSpec() const {
    QuerySpec spec;
    spec.relations = {{"T8000000_250", 1.0, 32},
                      {"T2000000_100", 1.0, 24},
                      {"T500000_40", 1.0, 16},
                      {"T100000_100", 1.0, 8}};
    spec.joins = {{0, 1, "a1", 0.5}, {1, 2, "a10", 1.0}, {2, 3, "a5", 1.0}};
    return spec;
  }

  std::vector<rel::TableDef> ResolvedTables(const QuerySpec& spec) const {
    std::vector<rel::TableDef> tables;
    for (const auto& r : spec.relations) {
      tables.push_back(sphere_.GetTable(r.table).value());
    }
    return tables;
  }

  Oracle::CostFn FacadeCost() const {
    return [this](const std::string& system,
                  const rel::SqlOperator& op) -> Result<core::HybridEstimate> {
      if (system == kTeradataSystemName) {
        core::HybridEstimate est;
        auto seconds = sphere_.local_model().EstimateSeconds(op);
        if (!seconds.ok()) return seconds.status();
        est.seconds = seconds.value();
        return est;
      }
      core::EstimateContext pctx;
      pctx.detail = core::EstimateDetail::kProvenance;
      return sphere_.cost_estimator().Estimate(system, op, pctx);
    };
  }

  Oracle::XferFn FacadeTransfer() {
    return [this](const std::string& from, const std::string& to,
                  int64_t rows, int64_t bytes) {
      return sphere_.query_grid().RelaySeconds(from, to, rows, bytes).value();
    };
  }

  IntelliSphere sphere_;
};

TEST_F(PlanQueryTest, FourRelationSpecPicksOracleOptimalPlan) {
  QuerySpec spec = FourRelationSpec();
  QueryPlan plan = sphere_.PlanQuery(spec).value();
  Oracle oracle(spec, ResolvedTables(spec), kTeradataSystemName, FacadeCost(),
                FacadeTransfer());
  EXPECT_DOUBLE_EQ(plan.best().value().total_seconds, oracle.MinTotal());
  EXPECT_GE(plan.candidates.size(), 2u);
}

TEST_F(PlanQueryTest, FourRelationAggregateSpecPicksOracleOptimalPlan) {
  QuerySpec spec = FourRelationSpec();
  spec.aggregate = QuerySpec::Aggregate{0, "a100", 2};
  spec.result_to_master = true;
  QueryPlan plan = sphere_.PlanQuery(spec).value();
  Oracle oracle(spec, ResolvedTables(spec), kTeradataSystemName, FacadeCost(),
                FacadeTransfer());
  EXPECT_DOUBLE_EQ(plan.best().value().total_seconds, oracle.MinTotal());
}

TEST_F(PlanQueryTest, UnknownTableIsNotFound) {
  QuerySpec spec = FourRelationSpec();
  spec.relations[2].table = "no_such_table";
  EXPECT_EQ(sphere_.PlanQuery(spec).status().code(), StatusCode::kNotFound);
}

TEST_F(PlanQueryTest, BadSpecIsInvalidArgumentNotUB) {
  QuerySpec spec = FourRelationSpec();
  spec.joins[1].right = 40;  // out of range
  EXPECT_EQ(sphere_.PlanQuery(spec).status().code(), StatusCode::kInvalidArgument);
  spec = FourRelationSpec();
  spec.joins.pop_back();  // disconnects relation 3
  EXPECT_EQ(sphere_.PlanQuery(spec).status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PlanQueryTest, ServingCacheMakesSecondPlanBitIdentical) {
  serving::EstimationService service(&sphere_.cost_estimator());
  ASSERT_TRUE(sphere_.AttachEstimationService(&service).ok());
  QuerySpec spec = FourRelationSpec();
  QueryPlan cold = sphere_.PlanQuery(spec).value();
  QueryPlan warm = sphere_.PlanQuery(spec).value();
  // All remote DP costing flows through EstimateBatch: the second search
  // hits the cache and must reproduce the cold totals bit for bit.
  EXPECT_GT(service.cache_stats().hits, 0);
  ASSERT_EQ(cold.candidates.size(), warm.candidates.size());
  for (size_t i = 0; i < cold.candidates.size(); ++i) {
    EXPECT_DOUBLE_EQ(cold.candidates[i].total_seconds,
                     warm.candidates[i].total_seconds);
  }
  // And cached planning matches uncached planning exactly.
  ASSERT_TRUE(sphere_.AttachEstimationService(nullptr).ok());
  QueryPlan uncached = sphere_.PlanQuery(spec).value();
  EXPECT_DOUBLE_EQ(uncached.best().value().total_seconds,
                   cold.best().value().total_seconds);
}

// --- Legacy-replica parity ------------------------------------------------
//
// Hand-rolled replicas of the per-operator placement planners PlanQuery
// replaced (the reference implementation), compared field for field with
// PlanQuery on the equivalent one- and two-relation specs.

/// One placement a legacy planner costed.
struct LegacyOption {
  std::string system;
  double transfer_seconds = 0.0;
  double operator_seconds = 0.0;
  double total_seconds() const { return transfer_seconds + operator_seconds; }
  std::string approach;
  std::string algorithm;
};

/// A legacy planner's result: the operator, its placements cheapest first,
/// and the (host, reason) pairs it eliminated.
struct LegacyPlan {
  rel::SqlOperator op;
  std::vector<LegacyOption> options;
  std::vector<std::pair<std::string, std::string>> eliminated;
};

Result<core::HybridEstimate> LegacyHostEstimate(const IntelliSphere& sphere,
                                                const std::string& host,
                                                const rel::SqlOperator& op) {
  if (host == kTeradataSystemName) {
    core::HybridEstimate est;
    auto seconds = sphere.local_model().EstimateSeconds(op);
    if (!seconds.ok()) return seconds.status();
    est.seconds = seconds.value();
    return est;
  }
  core::EstimateContext pctx;
  pctx.detail = core::EstimateDetail::kProvenance;
  return sphere.cost_estimator().Estimate(host, op, pctx);
}

/// The legacy single-operator loop: every host in `hosts` (std::set order)
/// pays `transfer(host)` plus its operator estimate; hosts whose estimate
/// fails are eliminated; survivors are sorted cheapest first.
LegacyPlan LegacyPlace(
    const IntelliSphere& sphere, const rel::SqlOperator& op,
    const std::set<std::string>& hosts,
    const std::function<double(const std::string&)>& transfer) {
  LegacyPlan plan;
  plan.op = op;
  for (const std::string& host : hosts) {
    LegacyOption option;
    option.system = host;
    option.transfer_seconds = transfer(host);
    auto est = LegacyHostEstimate(sphere, host, op);
    if (!est.ok()) {
      plan.eliminated.emplace_back(host, est.status().message());
      continue;
    }
    option.operator_seconds = est.value().seconds;
    option.approach = host == kTeradataSystemName
                          ? "local"
                          : core::CostingApproachName(
                                est.value().approach_used);
    option.algorithm = est.value().algorithm;
    plan.options.push_back(std::move(option));
  }
  std::sort(plan.options.begin(), plan.options.end(),
            [](const LegacyOption& a, const LegacyOption& b) {
              return a.total_seconds() < b.total_seconds();
            });
  return plan;
}

LegacyPlan LegacyPlanJoin(IntelliSphere& sphere,
                          const std::string& left_table,
                          const std::string& right_table,
                          int64_t left_projected_bytes,
                          int64_t right_projected_bytes,
                          double extra_selectivity) {
  rel::TableDef l = sphere.GetTable(left_table).value();
  rel::TableDef r = sphere.GetTable(right_table).value();
  if (l.stats.num_rows < r.stats.num_rows) {
    std::swap(l, r);
    std::swap(left_projected_bytes, right_projected_bytes);
  }
  int64_t out_rows =
      rel::EstimateJoinCardinality(l, r, "a1", extra_selectivity).value();
  rel::JoinQuery q;
  q.left = {l.stats.num_rows, l.stats.row_bytes};
  q.right = {r.stats.num_rows, r.stats.row_bytes};
  q.left_projected_bytes = left_projected_bytes;
  q.right_projected_bytes = right_projected_bytes;
  q.output_rows = out_rows;
  return LegacyPlace(
      sphere, rel::SqlOperator::MakeJoin(q),
      {std::string(kTeradataSystemName), l.location, r.location},
      [&](const std::string& host) {
        double transfer = 0.0;
        if (l.location != host) {
          transfer += sphere.query_grid()
                          .RelaySeconds(l.location, host, l.stats.num_rows,
                                        l.stats.row_bytes)
                          .value();
        }
        if (r.location != host) {
          transfer += sphere.query_grid()
                          .RelaySeconds(r.location, host, r.stats.num_rows,
                                        r.stats.row_bytes)
                          .value();
        }
        return transfer;
      });
}

/// Compares PlanQuery's candidates (root nodes, cheapest first) and
/// eliminated hosts with a legacy replica, field for field.
void ExpectMatchesLegacy(const QueryPlan& plan, const LegacyPlan& legacy) {
  ASSERT_EQ(plan.candidates.size(), legacy.options.size());
  for (size_t i = 0; i < legacy.options.size(); ++i) {
    const QueryPlanNode& got =
        plan.nodes[static_cast<size_t>(plan.candidates[i].root)];
    const LegacyOption& want = legacy.options[i];
    EXPECT_EQ(got.system, want.system);
    EXPECT_DOUBLE_EQ(got.transfer_seconds, want.transfer_seconds);
    EXPECT_DOUBLE_EQ(got.operator_seconds, want.operator_seconds);
    EXPECT_DOUBLE_EQ(plan.candidates[i].total_seconds, want.total_seconds());
    EXPECT_EQ(got.approach, want.approach);
    EXPECT_EQ(got.algorithm, want.algorithm);
  }
  std::vector<std::pair<std::string, std::string>> eliminated;
  for (const PrunedSubplan& p : plan.pruned) {
    if (p.kind == PrunedSubplan::Kind::kEliminated) {
      eliminated.emplace_back(p.system, p.reason);
    }
  }
  EXPECT_EQ(eliminated, legacy.eliminated);
}

class ReplicaParityTest : public PlanQueryTest {};

TEST_F(ReplicaParityTest, PlanJoinMatchesLegacyReplicaBitForBit) {
  for (double extra : {1.0, 0.5}) {
    LegacyPlan legacy =
        LegacyPlanJoin(sphere_, "T8000000_250", "T2000000_100", 32, 24, extra);
    QuerySpec spec;
    spec.relations = {{"T8000000_250", 1.0, 32}, {"T2000000_100", 1.0, 24}};
    spec.joins = {{0, 1, "a1", extra}};
    QueryPlan plan = sphere_.PlanQuery(spec).value();
    ExpectMatchesLegacy(plan, legacy);
    // Same operator descriptor.
    const rel::SqlOperator& op = plan.root().value()->op;
    EXPECT_EQ(op.type, rel::OperatorType::kJoin);
    EXPECT_EQ(op.join.left.num_rows, legacy.op.join.left.num_rows);
    EXPECT_EQ(op.join.right.num_rows, legacy.op.join.right.num_rows);
    EXPECT_EQ(op.join.output_rows, legacy.op.join.output_rows);
    EXPECT_EQ(op.join.left_projected_bytes,
              legacy.op.join.left_projected_bytes);
    EXPECT_EQ(op.join.right_projected_bytes,
              legacy.op.join.right_projected_bytes);
  }
}

TEST_F(ReplicaParityTest, PlanAggMatchesLegacyReplicaBitForBit) {
  rel::TableDef t = sphere_.GetTable("T8000000_250").value();
  int64_t groups = rel::EstimateGroupCardinality(t, "a100").value();
  rel::AggQuery q;
  q.input = {t.stats.num_rows, t.stats.row_bytes};
  q.output_rows = groups;
  q.output_row_bytes = 4 + 8 * 3;
  q.num_aggregates = 3;
  LegacyPlan legacy = LegacyPlace(
      sphere_, rel::SqlOperator::MakeAgg(q),
      {std::string(kTeradataSystemName), t.location},
      [&](const std::string& host) {
        if (t.location == host) return 0.0;
        return sphere_.query_grid()
            .RelaySeconds(t.location, host, t.stats.num_rows, t.stats.row_bytes)
            .value();
      });

  QuerySpec spec;
  spec.relations = {{"T8000000_250", 1.0, kFullRowWidth}};
  spec.aggregate = QuerySpec::Aggregate{0, "a100", 3};
  QueryPlan plan = sphere_.PlanQuery(spec).value();
  const rel::SqlOperator& op = plan.root().value()->op;
  EXPECT_EQ(op.agg.input.num_rows, legacy.op.agg.input.num_rows);
  EXPECT_EQ(op.agg.output_rows, legacy.op.agg.output_rows);
  EXPECT_EQ(op.agg.output_row_bytes, legacy.op.agg.output_row_bytes);
  ExpectMatchesLegacy(plan, legacy);
}

TEST_F(ReplicaParityTest, PlanScanMatchesLegacyReplicaBitForBit) {
  rel::TableDef t = sphere_.GetTable("T2000000_100").value();
  const double selectivity = 0.3;
  const int64_t projected = 48;
  int64_t out_rows =
      rel::EstimateFilterCardinality(t, selectivity).value();
  rel::ScanQuery q;
  q.input = {t.stats.num_rows, t.stats.row_bytes};
  q.selectivity = selectivity;
  q.projected_bytes = projected;
  q.output_rows = out_rows;
  LegacyPlan legacy = LegacyPlace(
      sphere_, rel::SqlOperator::MakeScan(q),
      {std::string(kTeradataSystemName), t.location},
      [&](const std::string& host) {
        if (t.location == host) return 0.0;
        // Pushdown: only survivors travel, already projected.
        return sphere_.query_grid()
            .RelaySeconds(t.location, host, out_rows, projected)
            .value();
      });

  QuerySpec spec;
  spec.relations = {{"T2000000_100", selectivity, projected}};
  QueryPlan plan = sphere_.PlanQuery(spec).value();
  const rel::SqlOperator& op = plan.root().value()->op;
  EXPECT_EQ(op.scan.output_rows, legacy.op.scan.output_rows);
  EXPECT_DOUBLE_EQ(op.scan.selectivity, legacy.op.scan.selectivity);
  ExpectMatchesLegacy(plan, legacy);
}

}  // namespace
}  // namespace intellisphere::fed
