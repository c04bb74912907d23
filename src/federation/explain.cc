#include "federation/explain.h"

#include <array>
#include <bit>
#include <cstddef>
#include <string>
#include <vector>

#include "util/json.h"

namespace intellisphere::fed {

namespace {

/// Fixed-precision seconds, shared by both renderings so tree and JSON
/// always agree (and golden tests stay stable).
std::string Sec(double seconds) { return JsonNumberShort(seconds); }

/// One tree line: `prefix` is the accumulated indentation of the parent,
/// `last` picks the branch glyph.
void TreeLine(std::string* out, const std::string& prefix, bool last,
              const std::string& text) {
  *out += prefix + (last ? "`- " : "|- ") + text + "\n";
}

/// A JSON array with one object per line, indented under `indent`; `[]`
/// when empty. `render(item, index)` returns the object's text.
template <typename T, typename Render>
std::string JsonLines(const std::vector<T>& items, const std::string& indent,
                      Render render) {
  std::string j = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    j += (i > 0 ? ",\n" : "\n") + indent + "  " + render(items[i], i);
  }
  if (!items.empty()) j += "\n" + indent;
  return j + "]";
}

const char* NodeKindName(QueryPlanNode::Kind kind) {
  switch (kind) {
    case QueryPlanNode::Kind::kTable: return "table";
    case QueryPlanNode::Kind::kScan: return "scan";
    case QueryPlanNode::Kind::kJoin: return "join";
    case QueryPlanNode::Kind::kAggregate: return "aggregate";
  }
  return "unknown";
}

const char* PrunedKindName(PrunedSubplan::Kind kind) {
  switch (kind) {
    case PrunedSubplan::Kind::kEliminated: return "eliminated";
    case PrunedSubplan::Kind::kDominated: return "dominated";
    case PrunedSubplan::Kind::kPruned: return "pruned";
  }
  return "unknown";
}

/// "relations 0,2,3" — readable form of a relation-subset bitmask.
std::string MaskText(uint64_t mask) {
  std::string text = "relations ";
  bool first = true;
  for (int i = 0; i < 64; ++i) {
    if ((mask >> i) & 1u) {
      if (!first) text += ",";
      text += std::to_string(i);
      first = false;
    }
  }
  if (first) text += "none";
  return text;
}

/// The arena node at `idx`, or null when the index is out of range.
const QueryPlanNode* NodeAt(const QueryPlan& plan, int idx) {
  if (idx < 0 || static_cast<size_t>(idx) >= plan.nodes.size()) {
    return nullptr;
  }
  return &plan.nodes[static_cast<size_t>(idx)];
}

/// Files the table name of every kTable leaf under `n` by relation index.
void CollectTables(const QueryPlan& plan, const QueryPlanNode& n,
                   std::array<const std::string*, 64>* names) {
  if (n.kind == QueryPlanNode::Kind::kTable) {
    if (n.relation_mask != 0) {
      (*names)[static_cast<size_t>(std::countr_zero(n.relation_mask))] =
          &n.label;
    }
    return;
  }
  for (int child : n.children) {
    if (const QueryPlanNode* c = NodeAt(plan, child)) {
      CollectTables(plan, *c, names);
    }
  }
}

/// "{t0,t1,...}@site" for the subset a node materializes.
std::string SubsetAt(const QueryPlan& plan, const QueryPlanNode& n) {
  std::array<const std::string*, 64> names{};
  CollectTables(plan, n, &names);
  std::string label = "{";
  for (const std::string* name : names) {
    if (name == nullptr) continue;
    if (label.size() > 1) label += ",";
    label += *name;
  }
  return label + "}@" + n.system;
}

/// The candidate label of a dropped subplan, or "" when a node it names is
/// missing.
std::string PrunedLabel(const QueryPlan& plan, const PrunedSubplan& p) {
  const QueryPlanNode* own = NodeAt(plan, p.node);
  if (p.kind == PrunedSubplan::Kind::kPruned) {
    return own == nullptr ? "" : SubsetAt(plan, *own) + " (prune_factor)";
  }
  // A costed record names its node's inputs; an eliminated one carries them.
  std::array<int, 2> inputs = p.inputs;
  if (own != nullptr) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      inputs[i] = i < own->children.size() ? own->children[i] : -1;
    }
  } else if (p.kind != PrunedSubplan::Kind::kEliminated) {
    return "";
  }
  const QueryPlanNode* first = NodeAt(plan, inputs[0]);
  if (first == nullptr) return "";
  switch (p.stage) {
    case QueryPlanNode::Kind::kScan:
      return "scan(" + first->label + ") at " + p.system;
    case QueryPlanNode::Kind::kJoin: {
      const QueryPlanNode* second = NodeAt(plan, inputs[1]);
      if (second == nullptr) return "";
      return "join(" + SubsetAt(plan, *first) + ", " +
             SubsetAt(plan, *second) + ") at " + p.system;
    }
    case QueryPlanNode::Kind::kAggregate:
      return "aggregate after " + SubsetAt(plan, *first) + " at " + p.system;
    case QueryPlanNode::Kind::kTable:
      break;
  }
  return "";
}

std::string QueryNodeHeadline(const QueryPlanNode& n) {
  std::string line = std::string(NodeKindName(n.kind));
  if (!n.label.empty()) line += " " + n.label;
  line += "@" + n.system;
  if (n.kind == QueryPlanNode::Kind::kTable) {
    return line + ": rows=" + std::to_string(n.output_rows) +
           " row_bytes=" + std::to_string(n.output_row_bytes);
  }
  line += " (" + MaskText(n.relation_mask) + "): subtree=" +
          Sec(n.subtree_seconds) + "s (transfer=" + Sec(n.transfer_seconds) +
          "s operator=" + Sec(n.operator_seconds) +
          "s) rows=" + std::to_string(n.output_rows) +
          " approach=" + n.approach;
  if (!n.algorithm.empty()) line += " algorithm=" + n.algorithm;
  return line;
}

/// An operator node's provenance sub-lines: every surviving algorithm
/// candidate's estimate, every eliminated algorithm with the applicability
/// rule that killed it, the online remedy's alpha, and the degradation
/// reason.
std::vector<std::string> NodeDetails(const QueryPlanNode& n) {
  std::vector<std::string> lines;
  for (const auto& c : n.algorithm_candidates) {
    lines.push_back("candidate " + c.algorithm + ": " + Sec(c.seconds) + "s");
  }
  for (const auto& e : n.eliminated_algorithms) {
    lines.push_back("eliminated " + e.algorithm + ": " + e.reason);
  }
  if (n.used_remedy) {
    lines.push_back("online remedy: alpha=" + Sec(n.remedy_alpha));
  }
  if (!n.fell_back_reason.empty()) {
    lines.push_back("degraded: " + n.fell_back_reason);
  }
  return lines;
}

/// Recursively renders the subtree rooted at `idx` under `prefix`: each
/// node's headline, then its provenance sub-lines, then its children.
void RenderQueryNode(std::string* out, const QueryPlan& plan, int idx,
                     const std::string& prefix, bool last) {
  const QueryPlanNode& n = plan.nodes[static_cast<size_t>(idx)];
  TreeLine(out, prefix, last, QueryNodeHeadline(n));
  const std::string child_prefix = prefix + (last ? "   " : "|  ");
  const std::vector<std::string> details = NodeDetails(n);
  const size_t children = n.children.size();
  for (size_t i = 0; i < details.size(); ++i) {
    TreeLine(out, child_prefix, i + 1 == details.size() && children == 0,
             details[i]);
  }
  for (size_t i = 0; i < children; ++i) {
    RenderQueryNode(out, plan, n.children[i], child_prefix, i + 1 == children);
  }
}

std::string QueryNodeJson(const QueryPlan& plan, int idx,
                          const std::string& indent) {
  const QueryPlanNode& n = plan.nodes[static_cast<size_t>(idx)];
  const std::string inner = indent + "  ";
  std::string j = "{\n";
  auto field = [&](const char* key, const std::string& value) {
    j += inner + "\"" + key + "\": " + value + ",\n";
  };
  auto quoted = [](const std::string& s) {
    return "\"" + JsonEscape(s) + "\"";
  };
  field("kind", quoted(NodeKindName(n.kind)));
  field("system", quoted(n.system));
  field("label", quoted(n.label));
  field("relation_mask", std::to_string(n.relation_mask));
  field("output_rows", std::to_string(n.output_rows));
  field("output_row_bytes", std::to_string(n.output_row_bytes));
  field("transfer_seconds", Sec(n.transfer_seconds));
  field("operator_seconds", Sec(n.operator_seconds));
  field("subtree_seconds", Sec(n.subtree_seconds));
  field("approach", quoted(n.approach));
  field("algorithm", quoted(n.algorithm));
  field("used_remedy", n.used_remedy ? "true" : "false");
  field("remedy_alpha", Sec(n.remedy_alpha));
  field("fell_back_reason", quoted(n.fell_back_reason));
  field("algorithm_candidates",
        JsonLines(n.algorithm_candidates, inner,
                  [&](const core::AlgorithmEstimate& c, size_t) {
                    return "{\"algorithm\": " + quoted(c.algorithm) +
                           ", \"seconds\": " + Sec(c.seconds) + "}";
                  }));
  field("eliminated_algorithms",
        JsonLines(n.eliminated_algorithms, inner,
                  [&](const core::EliminatedAlgorithm& e, size_t) {
                    return "{\"algorithm\": " + quoted(e.algorithm) +
                           ", \"reason\": " + quoted(e.reason) + "}";
                  }));
  j += inner + "\"children\": " +
       JsonLines(n.children, inner,
                 [&](int child, size_t) {
                   return QueryNodeJson(plan, child, inner + "  ");
                 }) +
       "\n";
  return j + indent + "}";
}

}  // namespace

PrunedText DescribePruned(const QueryPlan& plan, const PrunedSubplan& p) {
  PrunedText text;
  text.label = PrunedLabel(plan, p);
  if (text.label.empty()) text.label = MaskText(p.relation_mask);
  switch (p.kind) {
    case PrunedSubplan::Kind::kEliminated:
      text.reason = p.reason;
      break;
    case PrunedSubplan::Kind::kDominated:
      text.reason = "dominated by a cheaper subplan for the same relations";
      break;
    case PrunedSubplan::Kind::kPruned:
      text.reason =
          "cost exceeds prune_factor x the cheapest same-subset entry";
      break;
  }
  return text;
}

PlacementExplanation ExplainQueryPlan(const QueryPlan& plan) {
  PlacementExplanation ex;

  // --- Tree.
  ex.tree = "query plan: " + std::to_string(plan.candidates.size()) +
            " candidates, " + std::to_string(plan.pruned.size()) +
            " subplans dropped (costed=" +
            std::to_string(plan.candidates_costed) +
            " dp_entries=" + std::to_string(plan.dp_entries) + ")\n";
  // The chosen candidate's tree, then each alternative's tree, then
  // everything the search dropped.
  const size_t total = plan.candidates.size() + plan.pruned.size();
  size_t line_idx = 0;
  for (size_t i = 0; i < plan.candidates.size(); ++i) {
    const QueryPlanCandidate& c = plan.candidates[i];
    const bool last = ++line_idx == total;
    TreeLine(&ex.tree, "", last,
             (i == 0 ? std::string("chosen")
                     : "candidate " + std::to_string(i + 1)) +
                 ": total=" + Sec(c.total_seconds) + "s (result transfer=" +
                 Sec(c.result_transfer_seconds) + "s)");
    RenderQueryNode(&ex.tree, plan, c.root, last ? "   " : "|  ", true);
  }
  for (const auto& p : plan.pruned) {
    const PrunedText text = DescribePruned(plan, p);
    std::string line = std::string(PrunedKindName(p.kind)) + " " + text.label;
    if (!text.reason.empty()) line += ": " + text.reason;
    TreeLine(&ex.tree, "", ++line_idx == total, line);
  }

  // --- JSON.
  ex.json = "{\n  \"query_plan\": {\n";
  ex.json += "    \"candidates_costed\": " +
             std::to_string(plan.candidates_costed) + ",\n";
  ex.json += "    \"dp_entries\": " + std::to_string(plan.dp_entries) + ",\n";
  if (!plan.candidates.empty()) {
    ex.json += "    \"best_total_seconds\": " +
               Sec(plan.candidates.front().total_seconds) + ",\n";
    ex.json += "    \"tree\": " +
               QueryNodeJson(plan, plan.candidates.front().root, "    ") +
               ",\n";
  } else {
    ex.json += "    \"best_total_seconds\": null,\n";
    ex.json += "    \"tree\": null,\n";
  }
  auto candidate_json = [&plan](const QueryPlanCandidate& c, size_t i) {
    const QueryPlanNode& root = plan.nodes[static_cast<size_t>(c.root)];
    return "{\"rank\": " + std::to_string(i + 1) + ", \"system\": \"" +
           JsonEscape(root.system) + "\", \"result_transfer_seconds\": " +
           Sec(c.result_transfer_seconds) +
           ", \"total_seconds\": " + Sec(c.total_seconds) + "}";
  };
  auto pruned_json = [&plan](const PrunedSubplan& p, size_t) {
    const PrunedText text = DescribePruned(plan, p);
    return "{\"kind\": \"" + std::string(PrunedKindName(p.kind)) +
           "\", \"stage\": \"" + NodeKindName(p.stage) +
           "\", \"relation_mask\": " + std::to_string(p.relation_mask) +
           ", \"system\": \"" + JsonEscape(p.system) +
           "\", \"via_system\": \"" + JsonEscape(p.via_system) +
           "\", \"subtree_seconds\": " + Sec(p.subtree_seconds) +
           ", \"reason\": \"" + JsonEscape(text.reason) +
           "\", \"description\": \"" + JsonEscape(text.label) + "\"}";
  };
  ex.json += "    \"candidates\": " +
             JsonLines(plan.candidates, "    ", candidate_json) + ",\n";
  ex.json += "    \"pruned\": " + JsonLines(plan.pruned, "    ", pruned_json) +
             "\n";
  ex.json += "  }\n";
  ex.json += "}\n";
  return ex;
}

}  // namespace intellisphere::fed
