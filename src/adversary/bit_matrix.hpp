// adversary/bit_matrix.hpp — compiled forbidden rows for conjunction
// membership.
//
// ConjunctionRows holds the constraint row-groups of joint membership.
// Constraint ⟨ground, E⟩ tests x ∩ ground ∈ E^ground; with maximal sets
// M_j of E^ground that is ∃j: x ∩ ground ⊆ M_j, i.e.
// ∃j: x ∩ (ground ∖ M_j) = ∅. CompiledGroup precomputes those "forbidden
// rows" R_j = ground ∖ M_j once per constraint, so adding a constraint is
// a plain row append — no restriction, no NodeSet temporaries. A group with no rows is an unsatisfiable
// constraint (the empty family); a group containing the empty row is
// always satisfied.
//
// The rows are a derived cache: builders consume canonical NodeSet
// antichains via NodeSet::word_span(), and RestrictedStructure's audit
// validator re-derives its group to prove the cache is in sync.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/node_set.hpp"
#include "util/check.hpp"

namespace rmt {

/// Precompiled forbidden rows of one conjunction constraint (see header
/// comment): R_j = ground ∖ M_j, deduplicated and domination-pruned
/// (R' ⊆ R makes R redundant: x ∩ R = ∅ already implies x ∩ R' = ∅).
struct CompiledGroup {
  std::vector<std::uint64_t> rows;  // row-major, row_words words per row
  std::size_t row_words = 0;
  std::size_t count = 0;

  static CompiledGroup complement(const NodeSet& ground, const std::vector<NodeSet>& antichain);
};

/// The conjunction groups of one JointStructure, one per constraint. Row
/// storage is row-major with a grow-only stride; every exact-decider
/// workload (kMaxExactNodes = 26) stays at one word per row.
class ConjunctionRows {
 public:
  void push_group(const CompiledGroup& g) {
    if (g.row_words == words_) {
      // Matching stride (every exact-decider push): the compiled rows are
      // already in storage format — one range append, no zero-fill pass.
      const auto begin = static_cast<std::uint32_t>(rows_.size() / words_);
      rows_.insert(rows_.end(), g.rows.begin(), g.rows.end());
      groups_.push_back({begin, static_cast<std::uint32_t>(begin + g.count)});
      return;
    }
    push_group_restride(g);
  }

  /// True iff every group has a row disjoint from x — the conjunction
  /// membership ∀i: x ∩ A_i ∈ E_i^{A_i} over the compiled rows.
  bool contains(const NodeSet& x) const {
    if (words_ != 1) return contains_wide(x);
    const NodeSet::WordSpan xs = x.word_span();
    const std::uint64_t x0 = xs.count != 0 ? xs.words[0] : 0;
    for (const RowRange& g : groups_) {
      std::uint32_t r = g.begin;
      while (r < g.end && (x0 & rows_[r]) != 0) ++r;
      if (r == g.end) return false;
    }
    return true;
  }

 private:
  /// The [begin, end) rows of one group.
  struct RowRange {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  void push_group_restride(const CompiledGroup& g);
  bool contains_wide(const NodeSet& x) const;

  std::vector<std::uint64_t> rows_;  // row-major, stride words_
  std::vector<RowRange> groups_;
  std::size_t words_ = 1;
};

}  // namespace rmt
