#include "lineage/lineage.h"

#include <algorithm>

#include "common/string_util.h"

namespace pcqe {

LineageRef LineageArena::Append(Node node) {
  PCQE_CHECK(nodes_.size() < kNullLineage) << "lineage arena overflow";
  nodes_.push_back(std::move(node));
  return static_cast<LineageRef>(nodes_.size() - 1);
}

void LineageArena::Reserve(size_t nodes) {
  nodes_.reserve(nodes_.size() + nodes);
  composite_index_.reserve(composite_index_.size() + nodes);
  binary_and_index_.reserve(binary_and_index_.size() + nodes);
  var_index_.reserve(var_index_.size() + nodes);
}

LineageRef LineageArena::False() {
  if (false_ref_ == kNullLineage) false_ref_ = Append({LineageOp::kFalse, 0, {}});
  return false_ref_;
}

LineageRef LineageArena::True() {
  if (true_ref_ == kNullLineage) true_ref_ = Append({LineageOp::kTrue, 0, {}});
  return true_ref_;
}

LineageRef LineageArena::Var(LineageVarId id) {
  auto [it, inserted] = var_index_.try_emplace(id, kNullLineage);
  if (inserted) it->second = Append({LineageOp::kVar, id, {}});
  return it->second;
}

LineageRef LineageArena::Intern(LineageOp op, const std::vector<LineageRef>& children) {
  if (children.size() == 2 && op != LineageOp::kNot) {
    // Binary AND/OR fast path: the canonical sorted key packs into one word.
    const uint64_t lo = std::min(children[0], children[1]);
    const uint64_t hi = std::max(children[0], children[1]);
    auto& index = op == LineageOp::kAnd ? binary_and_index_ : binary_or_index_;
    auto [it, inserted] = index.try_emplace((lo << 32) | hi, kNullLineage);
    if (inserted) it->second = Append({op, 0, children});
    return it->second;
  }
  // Canonical key: children sorted, so commutatively equal formulas share a
  // node; the stored child order (first creation) is preserved for display.
  // The key is built in a reused scratch pair so an interning *hit* — the
  // common case once a workload's formulas repeat — allocates nothing.
  composite_key_scratch_.first = op;
  composite_key_scratch_.second.assign(children.begin(), children.end());
  std::sort(composite_key_scratch_.second.begin(), composite_key_scratch_.second.end());
  auto it = composite_index_.find(composite_key_scratch_);
  if (it != composite_index_.end()) return it->second;
  LineageRef ref = Append({op, 0, children});
  composite_index_.emplace(composite_key_scratch_, ref);
  return ref;
}

namespace {

/// Stable in-place dedupe preserving first occurrence (children lists are
/// short, so the quadratic scan beats hashing, and compacting in place keeps
/// the caller's scratch buffer allocation-free).
void DedupeStable(std::vector<LineageRef>* v) {
  size_t kept = 0;
  for (size_t i = 0; i < v->size(); ++i) {
    LineageRef c = (*v)[i];
    bool seen = false;
    for (size_t j = 0; j < kept; ++j) {
      if ((*v)[j] == c) {
        seen = true;
        break;
      }
    }
    if (!seen) (*v)[kept++] = c;
  }
  v->resize(kept);
}

}  // namespace

LineageRef LineageArena::And(const std::vector<LineageRef>& children) {
  std::vector<LineageRef>& flat = flat_scratch_;
  flat.clear();
  flat.reserve(children.size());
  for (LineageRef c : children) {
    PCQE_DCHECK(c < nodes_.size());
    switch (nodes_[c].op) {
      case LineageOp::kTrue:
        break;  // neutral element
      case LineageOp::kFalse:
        return False();  // absorbing element
      case LineageOp::kAnd:
        for (LineageRef g : nodes_[c].children) flat.push_back(g);
        break;
      default:
        flat.push_back(c);
    }
  }
  DedupeStable(&flat);
  if (flat.empty()) return True();
  if (flat.size() == 1) return flat[0];
  return Intern(LineageOp::kAnd, flat);
}

LineageRef LineageArena::Or(const std::vector<LineageRef>& children) {
  std::vector<LineageRef>& flat = flat_scratch_;
  flat.clear();
  flat.reserve(children.size());
  for (LineageRef c : children) {
    PCQE_DCHECK(c < nodes_.size());
    switch (nodes_[c].op) {
      case LineageOp::kFalse:
        break;  // neutral element
      case LineageOp::kTrue:
        return True();  // absorbing element
      case LineageOp::kOr:
        for (LineageRef g : nodes_[c].children) flat.push_back(g);
        break;
      default:
        flat.push_back(c);
    }
  }
  DedupeStable(&flat);
  if (flat.empty()) return False();
  if (flat.size() == 1) return flat[0];
  return Intern(LineageOp::kOr, flat);
}

LineageRef LineageArena::And(LineageRef a, LineageRef b) {
  binary_scratch_.clear();
  binary_scratch_.push_back(a);
  binary_scratch_.push_back(b);
  return And(binary_scratch_);
}

LineageRef LineageArena::Or(LineageRef a, LineageRef b) {
  binary_scratch_.clear();
  binary_scratch_.push_back(a);
  binary_scratch_.push_back(b);
  return Or(binary_scratch_);
}

LineageRef LineageArena::Not(LineageRef child) {
  PCQE_DCHECK(child < nodes_.size());
  switch (nodes_[child].op) {
    case LineageOp::kTrue:
      return False();
    case LineageOp::kFalse:
      return True();
    case LineageOp::kNot:
      return nodes_[child].children[0];  // double negation
    default:
      return Intern(LineageOp::kNot, {child});
  }
}

void LineageArena::CountOccurrences(
    LineageRef ref, std::vector<uint32_t>* counts_by_node,
    std::vector<std::pair<LineageVarId, uint32_t>>* var_counts) const {
  // Children always have smaller arena indices than their parents, so one
  // high-to-low sweep propagates tree-position multiplicities through DAG
  // sharing in O(nodes + edges).
  counts_by_node->assign(nodes_.size(), 0);
  (*counts_by_node)[ref] = 1;
  for (size_t i = ref + 1; i-- > 0;) {
    uint32_t count = (*counts_by_node)[i];
    if (count == 0) continue;
    const Node& node = nodes_[i];
    if (node.op == LineageOp::kVar) {
      var_counts->emplace_back(node.var, count);
      continue;
    }
    for (LineageRef c : node.children) {
      // Saturating add: multiplicity beyond 2 is indistinguishable for our
      // purposes ("shared" vs "read-once").
      uint32_t& slot = (*counts_by_node)[c];
      slot = (slot > 0xFFFF) ? slot : slot + count;
    }
  }
}

std::vector<LineageVarId> LineageArena::Variables(LineageRef ref) const {
  std::vector<uint32_t> counts;
  std::vector<std::pair<LineageVarId, uint32_t>> var_counts;
  CountOccurrences(ref, &counts, &var_counts);
  // var_counts was emitted in descending node order; restore first-creation
  // (ascending node) order, which matches first-seen order for interned vars.
  std::reverse(var_counts.begin(), var_counts.end());
  std::vector<LineageVarId> out;
  out.reserve(var_counts.size());
  for (const auto& [id, n] : var_counts) {
    (void)n;
    out.push_back(id);
  }
  return out;
}

std::vector<LineageVarId> LineageArena::SharedVariables(LineageRef ref) const {
  std::vector<uint32_t> counts;
  std::vector<std::pair<LineageVarId, uint32_t>> var_counts;
  CountOccurrences(ref, &counts, &var_counts);
  std::reverse(var_counts.begin(), var_counts.end());
  std::vector<LineageVarId> out;
  for (const auto& [id, n] : var_counts) {
    if (n > 1) out.push_back(id);
  }
  return out;
}

LineageRef LineageArena::CopyFrom(const LineageArena& src,
                                  LineageRef ref) {  // NOLINT(misc-no-recursion)
  switch (src.op(ref)) {
    case LineageOp::kFalse:
      return False();
    case LineageOp::kTrue:
      return True();
    case LineageOp::kVar:
      return Var(src.var(ref));
    case LineageOp::kNot:
      return Not(CopyFrom(src, src.children(ref)[0]));
    case LineageOp::kAnd:
    case LineageOp::kOr: {
      std::vector<LineageRef> kids;
      kids.reserve(src.children(ref).size());
      for (LineageRef c : src.children(ref)) kids.push_back(CopyFrom(src, c));
      return src.op(ref) == LineageOp::kAnd ? And(kids) : Or(kids);
    }
  }
  return False();
}

std::string LineageArena::ToString(LineageRef ref) const {
  const Node& node = nodes_[ref];
  switch (node.op) {
    case LineageOp::kFalse:
      return "false";
    case LineageOp::kTrue:
      return "true";
    case LineageOp::kVar:
      return StrFormat("t%llu", static_cast<unsigned long long>(node.var));
    case LineageOp::kNot:
      return StrCat({"!", ToString(node.children[0])});
    case LineageOp::kAnd:
    case LineageOp::kOr: {
      const char* sep = node.op == LineageOp::kAnd ? " & " : " | ";
      std::vector<std::string> parts;
      parts.reserve(node.children.size());
      for (LineageRef c : node.children) parts.push_back(ToString(c));
      return StrCat({"(", JoinStrings(parts, sep), ")"});
    }
  }
  return "?";
}

}  // namespace pcqe
