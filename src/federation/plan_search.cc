#include "federation/plan_search.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace intellisphere::fed {

namespace {

/// A host that cannot run the operator (Unsupported engine / no applicable
/// algorithm) is simply not a candidate; any other error aborts planning.
bool IsEliminationCode(StatusCode code) {
  return code == StatusCode::kUnsupported ||
         code == StatusCode::kFailedPrecondition;
}

/// The search always collects full provenance — the plan it returns is the
/// EXPLAIN source of truth — whatever detail the caller's context asks for.
core::EstimateContext ProvenanceContext(const core::EstimateContext& ctx) {
  core::EstimateContext out = ctx;
  out.detail = core::EstimateDetail::kProvenance;
  return out;
}

/// Moves an estimate's costing provenance into a plan node. The master
/// engine's analytic model reports "local"; remote hosts report their
/// profile's approach.
void FillNodeProvenance(bool on_master, core::HybridEstimate&& est,
                        QueryPlanNode* node) {
  node->operator_seconds = est.seconds;
  node->approach =
      on_master ? "local" : core::CostingApproachName(est.approach_used);
  node->algorithm = std::move(est.algorithm);
  node->algorithm_candidates = std::move(est.candidates);
  node->eliminated_algorithms = std::move(est.eliminated);
  node->used_remedy = est.used_remedy;
  node->remedy_alpha = est.remedy_alpha;
  node->fell_back_reason = std::move(est.fell_back_reason);
}

/// Per-relation derived inputs: post-filter cardinality, the width that
/// travels over QueryGrid, and the width the relation contributes to join
/// projections.
struct RelationInfo {
  std::string table;
  int site = 0;  ///< interned id of the relation's location
  int64_t base_rows = 0;
  int64_t base_width = 0;
  int64_t rows = 0;   ///< post-filter
  int64_t width = 0;  ///< row bytes entering transfers and joins
  int64_t proj = 0;   ///< projected contribution to join outputs
  bool scanned = false;
  TableProfile profile;
};

/// Split-independent statistics of a relation subset; the DP relies on a
/// subset's cardinality not depending on the join tree that produced it.
struct MaskStats {
  int64_t rows = 0;
  int64_t width = 0;  ///< materialized row bytes (= projection sum for joins)
  int64_t proj = 0;   ///< projected contribution to an enclosing join
};

/// Best known way to materialize a subset's result on one site; node -1
/// marks an absent entry.
struct DpEntry {
  double cost = 0.0;
  int node = -1;
};

/// The distinct candidate hosts of one operator, ascending. Site ids are
/// name ranks, so this is the order a std::set of the names iterates in —
/// the host order the legacy-replica parity contract pins.
class HostSet {
 public:
  HostSet(int a, int b) : HostSet(a, b, b) {}
  HostSet(int a, int b, int c) : ids_{a, b, c} {
    std::sort(ids_, ids_ + 3);
    size_ = static_cast<int>(std::unique(ids_, ids_ + 3) - ids_);
  }
  const int* begin() const { return ids_; }
  const int* end() const { return ids_ + size_; }

 private:
  int ids_[3];
  int size_ = 0;
};

class Searcher {
 public:
  Searcher(const PlanSearchInput& input, const PlannerOptions& options,
           const core::EstimateContext& ctx)
      : input_(input),
        options_(options),
        ectx_(ProvenanceContext(ctx)),
        costed_counter_(ectx_.Registry().GetCounter("plan.candidates_costed")),
        dropped_counter_(
            ectx_.Registry().GetCounter("plan.placements_eliminated")) {}

  Result<QueryPlan> Run() {
    ISPHERE_RETURN_NOT_OK(Prepare());
    TraceSpan root = ectx_.StartSpan("plan.query");
    if (root.enabled()) {
      root.SetInt("relations", static_cast<int64_t>(relations_.size()))
          .SetInt("joins", static_cast<int64_t>(input_.spec->joins.size()));
    }
    batch_ctx_ = ectx_.Under(root);

    ISPHERE_RETURN_NOT_OK(BaseLevel(&root));
    const int n = static_cast<int>(relations_.size());
    for (int level = 2; level <= n; ++level) {
      ISPHERE_RETURN_NOT_OK(JoinLevel(level, &root));
    }
    ISPHERE_RETURN_NOT_OK(FinishCandidates(&root));

    for (const DpEntry& entry : dp_) {
      if (entry.node >= 0) plan_.dp_entries++;
    }
    std::sort(plan_.candidates.begin(), plan_.candidates.end(),
              [](const QueryPlanCandidate& a, const QueryPlanCandidate& b) {
                return a.total_seconds < b.total_seconds;
              });
    if (root.enabled()) {
      root.SetString("best_system",
                     plan_.nodes[plan_.candidates.front().root].system)
          .SetDouble("best_total_seconds",
                     plan_.candidates.front().total_seconds)
          .SetInt("candidates", static_cast<int64_t>(plan_.candidates.size()))
          .SetInt("pruned", static_cast<int64_t>(plan_.pruned.size()))
          .SetInt("dp_entries", plan_.dp_entries);
    }
    return std::move(plan_);
  }

 private:
  Status Prepare() {
    if (input_.spec == nullptr) {
      return Status::InvalidArgument("null query spec");
    }
    if (options_.max_dp_relations < 1 || options_.max_dp_relations > 16) {
      return Status::InvalidArgument(
          "planner.max_dp_relations must be in [1, 16]");
    }
    if (options_.prune_factor != 0.0 && options_.prune_factor < 1.0) {
      return Status::InvalidArgument(
          "planner.prune_factor must be 0 (off) or >= 1");
    }
    const QuerySpec& spec = *input_.spec;
    ISPHERE_RETURN_NOT_OK(spec.Validate());
    if (input_.tables.size() != spec.relations.size()) {
      return Status::InvalidArgument(
          "resolved table list does not match the spec's relations");
    }
    if (static_cast<int>(spec.relations.size()) > options_.max_dp_relations) {
      return Status::InvalidArgument(
          "query spec exceeds planner.max_dp_relations");
    }
    if (input_.master.empty() || !input_.cost || !input_.transfer) {
      return Status::InvalidArgument("plan-search input is missing a hook");
    }

    // Intern the sites: an id is the name's rank, so ascending ids visit
    // sites in name order.
    sites_.reserve(input_.tables.size() + 1);
    sites_.push_back(input_.master);
    for (const rel::TableDef& def : input_.tables) {
      sites_.push_back(def.location);
    }
    std::sort(sites_.begin(), sites_.end());
    sites_.erase(std::unique(sites_.begin(), sites_.end()), sites_.end());
    master_ = SiteId(input_.master);

    const bool bare_scan = spec.relations.size() == 1 && spec.joins.empty() &&
                           !spec.aggregate.has_value();
    relations_.reserve(spec.relations.size());
    for (size_t i = 0; i < spec.relations.size(); ++i) {
      const QuerySpec::Relation& r = spec.relations[i];
      const rel::TableDef& def = input_.tables[i];
      RelationInfo info;
      info.table = r.table;
      info.site = SiteId(def.location);
      info.base_rows = def.stats.num_rows;
      info.base_width = def.stats.row_bytes;
      info.proj = r.projected_bytes >= 0 ? r.projected_bytes
                                         : def.stats.row_bytes;
      // A relation is scanned when it has a real filter, or when the scan
      // IS the query (a bare single-relation spec).
      info.scanned = bare_scan || r.filter_selectivity < 1.0;
      info.rows = info.scanned
                      ? static_cast<int64_t>(std::llround(
                            r.filter_selectivity *
                            static_cast<double>(info.base_rows)))
                      : info.base_rows;
      info.width = info.scanned ? info.proj : info.base_width;
      info.profile = ProfileFromTable(def);
      relations_.push_back(std::move(info));
    }
    const size_t n = relations_.size();
    adjacency_.assign(n, 0);
    for (const QuerySpec::JoinPredicate& p : spec.joins) {
      adjacency_[static_cast<size_t>(p.left)] |= uint64_t{1}
                                                 << static_cast<unsigned>(
                                                     p.right);
      adjacency_[static_cast<size_t>(p.right)] |= uint64_t{1}
                                                  << static_cast<unsigned>(
                                                      p.left);
    }
    dp_.assign((size_t{1} << n) * sites_.size(), DpEntry{});
    mask_stats_.assign(size_t{1} << n, MaskStats{});
    mask_stats_ready_.assign(size_t{1} << n, 0);
    relay_.assign(dp_.size() * sites_.size(), 0.0);
    relay_ready_.assign(relay_.size(), 0);
    return Status::OK();
  }

  int SiteId(const std::string& name) const {
    return static_cast<int>(
        std::lower_bound(sites_.begin(), sites_.end(), name) -
        sites_.begin());
  }

  int NumSites() const { return static_cast<int>(sites_.size()); }

  /// dp_[mask * sites + site]: cheapest way to have `mask`'s join result on
  /// `site`.
  DpEntry& Entry(uint64_t mask, int site) {
    return dp_[mask * sites_.size() + static_cast<size_t>(site)];
  }

  /// Relations sharing a join predicate with some member of `mask`.
  uint64_t Neighbours(uint64_t mask) const {
    uint64_t out = 0;
    while (mask != 0) {
      out |= adjacency_[static_cast<size_t>(std::countr_zero(mask))];
      mask &= mask - 1;
    }
    return out;
  }

  bool Connected(uint64_t mask) const {
    if (mask == 0) return false;
    uint64_t reach = mask & (~mask + 1);
    uint64_t frontier = reach;
    while (frontier != 0) {
      frontier = Neighbours(frontier) & mask & ~reach;
      reach |= frontier;
    }
    return reach == mask;
  }

  /// Distinct count of a join-predicate endpoint within its relation,
  /// capped by the relation's post-filter cardinality when it is scanned.
  Result<int64_t> EndpointDistinct(int relation, const std::string& column) {
    const RelationInfo& info = relations_[static_cast<size_t>(relation)];
    int64_t d = info.profile.DistinctOr(column, info.base_rows);
    if (info.scanned) d = DistinctAfter(d, info.rows);
    if (d <= 0) return Status::InvalidArgument("non-positive distinct count");
    return d;
  }

  /// Split-independent subset statistics, memoized per mask. Cardinality:
  /// the product of member cardinalities times the selectivity of every
  /// predicate internal to the subset, with the same operand order as
  /// rel::EstimateJoinCardinality so two-relation specs reproduce it
  /// bit for bit.
  Result<MaskStats> StatsFor(uint64_t mask) {
    if (mask_stats_ready_[mask]) return mask_stats_[mask];
    MaskStats stats;
    if (std::popcount(mask) == 1) {
      const RelationInfo& info =
          relations_[static_cast<size_t>(std::countr_zero(mask))];
      stats.rows = info.rows;
      stats.width = info.width;
      stats.proj = info.proj;
    } else {
      double acc = 1.0;
      int64_t width = 0;
      uint64_t scan = mask;
      while (scan != 0) {
        const RelationInfo& info =
            relations_[static_cast<size_t>(std::countr_zero(scan))];
        scan &= scan - 1;
        acc *= static_cast<double>(info.rows);
        width += info.proj;
      }
      for (const QuerySpec::JoinPredicate& p : input_.spec->joins) {
        const uint64_t l = uint64_t{1} << static_cast<unsigned>(p.left);
        const uint64_t r = uint64_t{1} << static_cast<unsigned>(p.right);
        if (!(l & mask) || !(r & mask)) continue;
        ISPHERE_ASSIGN_OR_RETURN(int64_t dl,
                                 EndpointDistinct(p.left, p.column));
        ISPHERE_ASSIGN_OR_RETURN(int64_t dr,
                                 EndpointDistinct(p.right, p.column));
        const double denom = static_cast<double>(std::max(dl, dr));
        acc = acc / denom * p.extra_selectivity;
      }
      // Clamp before llround: a pathological spec (huge cross products)
      // must saturate, not overflow into UB.
      if (acc > 9.0e18) acc = 9.0e18;
      stats.rows =
          std::max<int64_t>(1, static_cast<int64_t>(std::llround(acc)));
      stats.width = width;
      stats.proj = width;
    }
    mask_stats_[mask] = stats;
    mask_stats_ready_[mask] = 1;
    return stats;
  }

  /// QueryGrid cost of moving `mask`'s result from `from` to `to`, memoized
  /// per (mask, from, to) in a flat table: every candidate staging the same
  /// subset over the same link shares one lookup. Errors are returned, not
  /// memoized — they abort the search.
  Result<double> Relay(uint64_t mask, int from, int to) {
    const size_t num_sites = sites_.size();
    const size_t slot = (mask * num_sites + static_cast<size_t>(from)) *
                            num_sites +
                        static_cast<size_t>(to);
    if (relay_ready_[slot]) return relay_[slot];
    ISPHERE_ASSIGN_OR_RETURN(MaskStats stats, StatsFor(mask));
    ISPHERE_ASSIGN_OR_RETURN(double seconds,
                             Transfer(from, to, stats.rows, stats.width));
    relay_[slot] = seconds;
    relay_ready_[slot] = 1;
    return seconds;
  }

  /// Asks the transfer callback at most once per distinct argument tuple:
  /// two subsets can share (rows, width), so a Relay miss first looks for
  /// the tuple among the relays already answered. Runs only on misses.
  Result<double> Transfer(int from, int to, int64_t rows, int64_t width) {
    for (const RelayCall& c : relay_calls_) {
      if (c.from == from && c.to == to && c.rows == rows && c.width == width) {
        return c.seconds;
      }
    }
    ISPHERE_ASSIGN_OR_RETURN(
        double seconds,
        input_.transfer(sites_[static_cast<size_t>(from)],
                        sites_[static_cast<size_t>(to)], rows, width));
    relay_calls_.push_back({from, to, rows, width, seconds});
    return seconds;
  }

  int AddTableNode(int relation) {
    const RelationInfo& info = relations_[static_cast<size_t>(relation)];
    QueryPlanNode node;
    node.kind = QueryPlanNode::Kind::kTable;
    node.system = sites_[static_cast<size_t>(info.site)];
    node.label = info.table;
    node.relation_mask = uint64_t{1} << static_cast<unsigned>(relation);
    node.output_rows = info.base_rows;
    node.output_row_bytes = info.base_width;
    plan_.nodes.push_back(std::move(node));
    return static_cast<int>(plan_.nodes.size()) - 1;
  }

  /// Appends a costed node to the arena and counts it; returns its index.
  int AddCostedNode(QueryPlanNode&& node, TraceSpan* root) {
    plan_.nodes.push_back(std::move(node));
    costed_counter_->Increment();
    plan_.candidates_costed++;
    EmitCandidateSpan(root, plan_.nodes.back());
    return static_cast<int>(plan_.nodes.size()) - 1;
  }

  void EmitCandidateSpan(TraceSpan* root, const QueryPlanNode& node) {
    if (!root->enabled()) return;
    TraceSpan span = root->Child("plan.candidate");
    span.SetString("system", node.system)
        .SetString("approach", node.approach)
        .SetDouble("transfer_seconds", node.transfer_seconds)
        .SetDouble("operator_seconds", node.operator_seconds)
        .SetDouble("total_seconds", node.subtree_seconds);
    if (!node.algorithm.empty()) span.SetString("algorithm", node.algorithm);
  }

  void EmitEliminatedSpan(TraceSpan* root, const PrunedSubplan& p) {
    if (!root->enabled()) return;
    TraceSpan span = root->Child("plan.candidate");
    span.SetString("system", p.system)
        .SetString("eliminated_reason", p.reason);
  }

  /// Installs a costed candidate into the DP table, recording whichever of
  /// the old and new entries loses as a dominated subplan: the record
  /// refers to the losing node, whose cost it reports.
  void Fold(uint64_t mask, int site, double cost, int node,
            QueryPlanNode::Kind stage) {
    DpEntry& entry = Entry(mask, site);
    if (entry.node < 0) {
      entry = DpEntry{cost, node};
      return;
    }
    const bool wins = cost < entry.cost;
    const int losing_node = wins ? entry.node : node;
    PrunedSubplan pruned;
    pruned.kind = PrunedSubplan::Kind::kDominated;
    pruned.stage = stage;
    pruned.relation_mask = mask;
    pruned.system = sites_[static_cast<size_t>(site)];
    pruned.subtree_seconds =
        plan_.nodes[static_cast<size_t>(losing_node)].subtree_seconds;
    pruned.node = losing_node;
    plan_.pruned.push_back(std::move(pruned));
    if (wins) entry = DpEntry{cost, node};
  }

  /// Level 1: register unfiltered base tables at rest and cost the scan
  /// candidates of filtered relations in one batch.
  Status BaseLevel(TraceSpan* root) {
    struct PendingScan {
      int relation;
      int host;
      double transfer;
    };
    std::vector<PlanCostRequest> requests;
    std::vector<PendingScan> pending;
    std::vector<int> table_nodes(relations_.size(), -1);

    for (size_t i = 0; i < relations_.size(); ++i) {
      const RelationInfo& info = relations_[i];
      const uint64_t bit = uint64_t{1} << i;
      table_nodes[i] = AddTableNode(static_cast<int>(i));
      if (!info.scanned) {
        Entry(bit, info.site) = DpEntry{0.0, table_nodes[i]};
        continue;
      }
      rel::ScanQuery q;
      q.input = {info.base_rows, info.base_width};
      q.selectivity = input_.spec->relations[i].filter_selectivity;
      q.projected_bytes = info.proj;
      q.output_rows = info.rows;
      rel::SqlOperator op = rel::SqlOperator::MakeScan(q);
      ISPHERE_RETURN_NOT_OK(op.Validate());
      for (int host : HostSet(master_, info.site)) {
        double transfer = 0.0;
        if (info.site != host) {
          // QueryGrid evaluates simple predicates on the fly: only
          // survivors travel, already projected (StatsFor(bit) is exactly
          // (rows, proj) for a scanned relation).
          ISPHERE_ASSIGN_OR_RETURN(transfer, Relay(bit, info.site, host));
        }
        requests.push_back({sites_[static_cast<size_t>(host)], op});
        pending.push_back({static_cast<int>(i), host, transfer});
      }
    }
    if (requests.empty()) return Status::OK();

    std::vector<Result<core::HybridEstimate>> results =
        input_.cost(requests, batch_ctx_);
    if (results.size() != requests.size()) {
      return Status::Internal("batched costing returned a short batch");
    }
    for (size_t i = 0; i < pending.size(); ++i) {
      const PendingScan& c = pending[i];
      const RelationInfo& info = relations_[static_cast<size_t>(c.relation)];
      const uint64_t bit = uint64_t{1} << static_cast<unsigned>(c.relation);
      const int table_node = table_nodes[static_cast<size_t>(c.relation)];
      if (!results[i].ok()) {
        ISPHERE_RETURN_NOT_OK(RecordFailure(
            results[i].status(), QueryPlanNode::Kind::kScan, bit, c.host,
            /*via=*/-1, {table_node, -1}, root));
        continue;
      }
      QueryPlanNode node;
      node.kind = QueryPlanNode::Kind::kScan;
      node.system = sites_[static_cast<size_t>(c.host)];
      node.label = info.table;
      node.relation_mask = bit;
      node.output_rows = info.rows;
      node.output_row_bytes = info.proj;
      node.transfer_seconds = c.transfer;
      FillNodeProvenance(c.host == master_, std::move(results[i]).value(),
                         &node);
      node.subtree_seconds = c.transfer + node.operator_seconds;
      node.op = std::move(requests[i].op);
      node.children = {table_node};
      const double cost = node.subtree_seconds;
      const int node_index = AddCostedNode(std::move(node), root);
      Fold(bit, c.host, cost, node_index, QueryPlanNode::Kind::kScan);
    }
    return Status::OK();
  }

  /// One DP level: every connected subset of `level` relations, split into
  /// every canonical connected partition, joined on every candidate site —
  /// all costed through a single batch.
  Status JoinLevel(int level, TraceSpan* root) {
    struct PendingJoin {
      uint64_t mask;
      int host;
      double left_cost, right_cost;
      double transfer_left, transfer_right;
      int left_node, right_node;
    };
    std::vector<PlanCostRequest> requests;
    std::vector<PendingJoin> pending;

    const size_t n = relations_.size();
    const int num_sites = NumSites();
    const uint64_t limit = uint64_t{1} << n;
    for (uint64_t mask = 1; mask < limit; ++mask) {
      if (std::popcount(mask) != level) continue;
      if (!Connected(mask)) continue;
      const uint64_t low = mask & (~mask + 1);
      for (uint64_t sub = (mask - 1) & mask; sub != 0;
           sub = (sub - 1) & mask) {
        if (!(sub & low)) continue;  // canonical: sub keeps the lowest bit
        const uint64_t rest = mask ^ sub;
        if (!Connected(sub) || !Connected(rest)) continue;
        if (!(Neighbours(sub) & rest)) continue;  // no cross predicate
        ISPHERE_ASSIGN_OR_RETURN(MaskStats sub_stats, StatsFor(sub));
        ISPHERE_ASSIGN_OR_RETURN(MaskStats rest_stats, StatsFor(rest));
        // Orient so the right side is the smaller relation (engine
        // planners and formulas assume S is the build/broadcast side);
        // ties keep the canonical side on the left, matching the legacy
        // planners' strict-inequality swap.
        uint64_t left_mask = sub, right_mask = rest;
        MaskStats left_stats = sub_stats, right_stats = rest_stats;
        if (left_stats.rows < right_stats.rows) {
          std::swap(left_mask, right_mask);
          std::swap(left_stats, right_stats);
        }
        ISPHERE_ASSIGN_OR_RETURN(MaskStats out_stats, StatsFor(mask));
        rel::JoinQuery q;
        q.left = {left_stats.rows, left_stats.width};
        q.right = {right_stats.rows, right_stats.width};
        q.left_projected_bytes = left_stats.proj;
        q.right_projected_bytes = right_stats.proj;
        q.output_rows = out_stats.rows;
        // The independently-rounded side cardinalities can undercut the
        // subset estimate by a hair; cap at the |L| x |R| bound the
        // descriptor validation enforces. Never triggers for two base
        // relations (the legacy-replica parity case), where the subset
        // formula is exactly the legacy one.
        const double bound = static_cast<double>(left_stats.rows) *
                             static_cast<double>(right_stats.rows);
        if (static_cast<double>(q.output_rows) > bound) {
          q.output_rows = static_cast<int64_t>(std::min(bound, 9.0e18));
        }
        rel::SqlOperator op = rel::SqlOperator::MakeJoin(q);
        ISPHERE_RETURN_NOT_OK(op.Validate());

        for (int left_site = 0; left_site < num_sites; ++left_site) {
          const DpEntry left_entry = Entry(left_mask, left_site);
          if (left_entry.node < 0) continue;
          for (int right_site = 0; right_site < num_sites; ++right_site) {
            const DpEntry right_entry = Entry(right_mask, right_site);
            if (right_entry.node < 0) continue;
            for (int host : HostSet(master_, left_site, right_site)) {
              const std::string& host_name =
                  sites_[static_cast<size_t>(host)];
              double transfer_left = 0.0, transfer_right = 0.0;
              if (left_site != host) {
                ISPHERE_ASSIGN_OR_RETURN(transfer_left,
                                         Relay(left_mask, left_site, host));
              }
              if (right_site != host) {
                ISPHERE_ASSIGN_OR_RETURN(transfer_right,
                                         Relay(right_mask, right_site, host));
              }
              requests.push_back({host_name, op});
              pending.push_back({mask, host, left_entry.cost,
                                 right_entry.cost, transfer_left,
                                 transfer_right, left_entry.node,
                                 right_entry.node});
            }
          }
        }
      }
    }
    if (requests.empty()) return Status::OK();

    std::vector<Result<core::HybridEstimate>> results =
        input_.cost(requests, batch_ctx_);
    if (results.size() != requests.size()) {
      return Status::Internal("batched costing returned a short batch");
    }
    for (size_t i = 0; i < pending.size(); ++i) {
      const PendingJoin& c = pending[i];
      if (!results[i].ok()) {
        ISPHERE_RETURN_NOT_OK(RecordFailure(
            results[i].status(), QueryPlanNode::Kind::kJoin, c.mask, c.host,
            /*via=*/-1, {c.left_node, c.right_node}, root));
        continue;
      }
      // Accumulation order is part of the legacy-replica parity contract:
      // children, then left transfer, then right transfer, then operator.
      double cost = c.left_cost + c.right_cost;
      cost += c.transfer_left;
      cost += c.transfer_right;
      QueryPlanNode node;
      node.kind = QueryPlanNode::Kind::kJoin;
      node.system = sites_[static_cast<size_t>(c.host)];
      node.relation_mask = c.mask;
      node.output_rows = requests[i].op.join.output_rows;
      node.output_row_bytes = requests[i].op.join.OutputRowBytes();
      node.transfer_seconds = c.transfer_left + c.transfer_right;
      FillNodeProvenance(c.host == master_, std::move(results[i]).value(),
                         &node);
      cost += node.operator_seconds;
      node.subtree_seconds = cost;
      node.op = std::move(requests[i].op);
      node.children = {c.left_node, c.right_node};
      const int node_index = AddCostedNode(std::move(node), root);
      Fold(c.mask, c.host, cost, node_index, QueryPlanNode::Kind::kJoin);
    }

    // Heuristic pruning between levels: an entry far costlier than its
    // subset's cheapest entry can still win later (a parent join placed on
    // its site may avoid a transfer), so dropping it trades optimality for
    // a smaller search. Off by default, and never applied to the final
    // subset.
    if (options_.prune_factor >= 1.0 && level < static_cast<int>(n)) {
      for (uint64_t mask = 1; mask < limit; ++mask) {
        if (std::popcount(mask) != level) continue;
        bool any = false;
        double cheapest = 0.0;
        for (int site = 0; site < num_sites; ++site) {
          const DpEntry& entry = Entry(mask, site);
          if (entry.node < 0) continue;
          cheapest = any ? std::min(cheapest, entry.cost) : entry.cost;
          any = true;
        }
        if (!any) continue;
        for (int site = 0; site < num_sites; ++site) {
          DpEntry& entry = Entry(mask, site);
          if (entry.node < 0 ||
              entry.cost <= options_.prune_factor * cheapest) {
            continue;
          }
          PrunedSubplan pruned;
          pruned.kind = PrunedSubplan::Kind::kPruned;
          pruned.stage = QueryPlanNode::Kind::kJoin;
          pruned.relation_mask = mask;
          pruned.system = sites_[static_cast<size_t>(site)];
          pruned.subtree_seconds = entry.cost;
          pruned.node = entry.node;
          plan_.pruned.push_back(std::move(pruned));
          entry = DpEntry{};
        }
      }
    }
    return Status::OK();
  }

  /// Turns the full-subset DP entries into root candidates, applying the
  /// optional aggregation stage (one batch) and the optional final relay
  /// to the master engine.
  Status FinishCandidates(TraceSpan* root) {
    const QuerySpec& spec = *input_.spec;
    const uint64_t full = (uint64_t{1} << relations_.size()) - 1;
    const int num_sites = NumSites();

    if (!spec.aggregate.has_value()) {
      for (int site = 0; site < num_sites; ++site) {
        const DpEntry entry = Entry(full, site);
        if (entry.node < 0) continue;
        double result_transfer = 0.0;
        if (spec.result_to_master && site != master_) {
          ISPHERE_ASSIGN_OR_RETURN(result_transfer,
                                   Relay(full, site, master_));
        }
        plan_.candidates.push_back(
            {entry.node, result_transfer, entry.cost + result_transfer});
      }
      if (plan_.candidates.empty()) {
        return Status::FailedPrecondition(
            "no placement can execute this query spec");
      }
      return Status::OK();
    }

    const QuerySpec::Aggregate& agg = *spec.aggregate;
    ISPHERE_ASSIGN_OR_RETURN(MaskStats in_stats, StatsFor(full));
    // Group cardinality over the final relation set: the group column's
    // distinct count (from the owning relation, post-filter), capped by
    // the input cardinality.
    const RelationInfo& owner = relations_[static_cast<size_t>(agg.relation)];
    int64_t d = owner.profile.DistinctOr(agg.group_column, in_stats.rows);
    if (owner.scanned) d = DistinctAfter(d, owner.rows);
    const int64_t raw_groups = std::min(in_stats.rows, d);
    const int64_t groups =
        spec.joins.empty() ? raw_groups : std::max<int64_t>(1, raw_groups);
    rel::AggQuery q;
    q.input = {in_stats.rows, in_stats.width};
    q.output_rows = groups;
    q.output_row_bytes =
        kGroupKeyBytes + kAggregateValueBytes * agg.num_aggregates;
    q.num_aggregates = agg.num_aggregates;
    rel::SqlOperator op = rel::SqlOperator::MakeAgg(q);
    ISPHERE_RETURN_NOT_OK(op.Validate());

    struct PendingAgg {
      int join_site;
      int host;
      double input_cost;
      double transfer;
      int input_node;
    };
    std::vector<PlanCostRequest> requests;
    std::vector<PendingAgg> pending;
    for (int site = 0; site < num_sites; ++site) {
      const DpEntry entry = Entry(full, site);
      if (entry.node < 0) continue;
      // The aggregation runs where the intermediate lies, or on the master.
      for (int host : HostSet(site, master_)) {
        double transfer = 0.0;
        if (host != site) {
          ISPHERE_ASSIGN_OR_RETURN(transfer, Relay(full, site, host));
        }
        requests.push_back({sites_[static_cast<size_t>(host)], op});
        pending.push_back({site, host, entry.cost, transfer, entry.node});
      }
    }
    if (!requests.empty()) {
      std::vector<Result<core::HybridEstimate>> results =
          input_.cost(requests, batch_ctx_);
      if (results.size() != requests.size()) {
        return Status::Internal("batched costing returned a short batch");
      }
      for (size_t i = 0; i < pending.size(); ++i) {
        const PendingAgg& c = pending[i];
        const std::string& host_name = sites_[static_cast<size_t>(c.host)];
        if (!results[i].ok()) {
          ISPHERE_RETURN_NOT_OK(RecordFailure(
              results[i].status(), QueryPlanNode::Kind::kAggregate, full,
              c.host, /*via=*/c.join_site, {c.input_node, -1}, root));
          continue;
        }
        double result_transfer = 0.0;
        if (spec.result_to_master && c.host != master_) {
          // The aggregate's output is not a DP subset: no Relay slot.
          ISPHERE_ASSIGN_OR_RETURN(
              result_transfer,
              Transfer(c.host, master_, groups, q.output_row_bytes));
        }
        double cost = c.input_cost;
        cost += c.transfer;
        QueryPlanNode node;
        node.kind = QueryPlanNode::Kind::kAggregate;
        node.system = host_name;
        node.relation_mask = full;
        node.output_rows = groups;
        node.output_row_bytes = q.output_row_bytes;
        node.transfer_seconds = c.transfer;
        FillNodeProvenance(c.host == master_, std::move(results[i]).value(),
                           &node);
        cost += node.operator_seconds;
        node.subtree_seconds = cost;
        node.op = std::move(requests[i].op);
        node.children = {c.input_node};
        const int node_index = AddCostedNode(std::move(node), root);
        plan_.candidates.push_back(
            {node_index, result_transfer, cost + result_transfer});
      }
    }
    if (plan_.candidates.empty()) {
      return Status::FailedPrecondition(
          "no placement can execute this query spec");
    }
    return Status::OK();
  }

  /// Handles one failed costing result: elimination codes are recorded and
  /// skipped, anything else aborts the search. `via` is the site id the
  /// stage's input lived on, or -1; `inputs` are the arena nodes the
  /// candidate would have consumed.
  Status RecordFailure(const Status& status, QueryPlanNode::Kind stage,
                       uint64_t mask, int host, int via,
                       std::array<int, 2> inputs, TraceSpan* root) {
    if (!IsEliminationCode(status.code())) return status;
    PrunedSubplan pruned;
    pruned.kind = PrunedSubplan::Kind::kEliminated;
    pruned.stage = stage;
    pruned.relation_mask = mask;
    pruned.system = sites_[static_cast<size_t>(host)];
    if (via >= 0) pruned.via_system = sites_[static_cast<size_t>(via)];
    pruned.inputs = inputs;
    pruned.reason = status.message();
    EmitEliminatedSpan(root, pruned);
    plan_.pruned.push_back(std::move(pruned));
    dropped_counter_->Increment();
    return Status::OK();
  }

  const PlanSearchInput& input_;
  const PlannerOptions& options_;
  core::EstimateContext ectx_;
  core::EstimateContext batch_ctx_;
  Counter* costed_counter_;
  Counter* dropped_counter_;
  /// Interned sites: {master} and every relation's location, sorted by
  /// name and deduplicated. A site's id is its index here.
  std::vector<std::string> sites_;
  int master_ = 0;
  std::vector<RelationInfo> relations_;
  std::vector<uint64_t> adjacency_;
  std::vector<DpEntry> dp_;
  std::vector<MaskStats> mask_stats_;
  std::vector<char> mask_stats_ready_;
  /// Relay memo, indexed (mask * sites + from) * sites + to.
  std::vector<double> relay_;
  std::vector<char> relay_ready_;
  /// Every distinct transfer-callback answer of this search.
  struct RelayCall {
    int from, to;
    int64_t rows, width;
    double seconds;
  };
  std::vector<RelayCall> relay_calls_;
  QueryPlan plan_;
};

}  // namespace

Result<PlannerOptions> PlannerOptions::FromProperties(
    const Properties& props) {
  PlannerOptions options;
  if (props.Contains(kPlannerMaxDpRelationsKey)) {
    ISPHERE_ASSIGN_OR_RETURN(int64_t v,
                             props.GetInt(kPlannerMaxDpRelationsKey));
    if (v < 1 || v > 16) {
      return Status::InvalidArgument(
          "planner.max_dp_relations must be in [1, 16]");
    }
    options.max_dp_relations = static_cast<int>(v);
  }
  if (props.Contains(kPlannerPruneFactorKey)) {
    ISPHERE_ASSIGN_OR_RETURN(double v,
                             props.GetDouble(kPlannerPruneFactorKey));
    if (v != 0.0 && v < 1.0) {
      return Status::InvalidArgument(
          "planner.prune_factor must be 0 (off) or >= 1");
    }
    options.prune_factor = v;
  }
  return options;
}

Status QuerySpec::Validate() const {
  if (relations.empty()) {
    return Status::InvalidArgument("query spec has no relations");
  }
  if (relations.size() > 62) {
    return Status::InvalidArgument("query spec has too many relations");
  }
  const int n = static_cast<int>(relations.size());
  for (const Relation& r : relations) {
    if (r.table.empty()) {
      return Status::InvalidArgument("relation table name is empty");
    }
    if (r.filter_selectivity < 0.0 || r.filter_selectivity > 1.0) {
      return Status::InvalidArgument("selectivity must be in [0, 1]");
    }
    if (r.projected_bytes < kFullRowWidth) {
      return Status::InvalidArgument("negative projected size");
    }
  }
  for (const JoinPredicate& p : joins) {
    if (p.left < 0 || p.left >= n || p.right < 0 || p.right >= n) {
      return Status::InvalidArgument(
          "join predicate relation index out of range");
    }
    if (p.left == p.right) {
      return Status::InvalidArgument(
          "join predicate joins a relation to itself");
    }
    if (p.column.empty()) {
      return Status::InvalidArgument("join predicate column is empty");
    }
    if (p.extra_selectivity <= 0.0 || p.extra_selectivity > 1.0) {
      return Status::InvalidArgument("extra_selectivity must be in (0, 1]");
    }
  }
  if (n > 1) {
    // Union-find over the join edges: the DP only combines connected
    // subsets, so a disconnected graph could never complete a plan.
    std::vector<int> parent(relations.size());
    for (int i = 0; i < n; ++i) parent[static_cast<size_t>(i)] = i;
    auto find = [&parent](int x) {
      while (parent[static_cast<size_t>(x)] != x) {
        parent[static_cast<size_t>(x)] =
            parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
        x = parent[static_cast<size_t>(x)];
      }
      return x;
    };
    for (const JoinPredicate& p : joins) {
      parent[static_cast<size_t>(find(p.left))] = find(p.right);
    }
    for (int i = 1; i < n; ++i) {
      if (find(i) != find(0)) {
        return Status::InvalidArgument(
            "join graph does not connect all relations");
      }
    }
  } else if (!joins.empty()) {
    return Status::InvalidArgument(
        "join predicate relation index out of range");
  }
  if (aggregate.has_value()) {
    if (aggregate->relation < 0 || aggregate->relation >= n) {
      return Status::InvalidArgument("aggregate relation index out of range");
    }
    if (aggregate->group_column.empty()) {
      return Status::InvalidArgument("aggregate group column is empty");
    }
    if (aggregate->num_aggregates < 1) {
      return Status::InvalidArgument("need at least one aggregate function");
    }
  }
  return Status::OK();
}

Result<QueryPlanCandidate> QueryPlan::best() const {
  if (candidates.empty()) {
    return Status::FailedPrecondition("query plan has no candidates");
  }
  return candidates.front();
}

Result<const QueryPlanNode*> QueryPlan::root() const {
  if (candidates.empty()) {
    return Status::FailedPrecondition("query plan has no candidates");
  }
  return &nodes[static_cast<size_t>(candidates.front().root)];
}

Result<QueryPlan> SearchPlan(const PlanSearchInput& input,
                             const PlannerOptions& options,
                             const core::EstimateContext& ctx) {
  Searcher searcher(input, options, ctx);
  return searcher.Run();
}

}  // namespace intellisphere::fed
