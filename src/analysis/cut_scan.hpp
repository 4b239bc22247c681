// analysis/cut_scan.hpp — the one per-B scan behind find_rmt_cut and
// find_rmt_zpp_cut.
//
// Both conditions ask, for a cut candidate B (graph/cuts.hpp) with
// C = N(B), for the first maximal M ∈ Z (antichain order) whose
// C₂ = C ∖ M has every slice C₂ ∩ S(v), v ∈ B, in Z_v: S(v) = V(γ(v)) for
// the RMT-cut (Def. 3, Thm 1's per-node conjunction) and S(v) = N(v) for
// the RMT Z-pp cut (Def. 7). The view floor puts N(v) inside V(γ(v)), so
// each slice x lies inside V(γ(v)), and for such x, x ∈ Z_v = Z^{V(γ(v))}
// iff x ∈ Z (monotonicity): every slice is tested against Z itself. The
// references keep the explicit Z_v and the unpruned enumeration.
#pragma once

#include <optional>
#include <utility>

#include "graph/cuts.hpp"
#include "instance/instance.hpp"

namespace rmt::analysis::detail {

template <typename Witness, typename Slice>
struct CutScan {
  const Graph& g;
  const AdversaryStructure& z;
  Slice slice;  ///< v ↦ S(v)
  std::optional<Witness> witness;

  /// The per-B test on X: the first maximal M whose X ∖ M passes at every
  /// v ∈ B, or nullptr. Every M that misses X gives C₂ = X, so X itself is
  /// tested at most once.
  const NodeSet* first_split(const NodeSet& x, const NodeSet& b) const {
    bool whole_tested = false;
    for (const NodeSet& m : z.maximal_sets()) {
      const bool whole = !x.intersects(m);
      if (whole && whole_tested) continue;
      whole_tested = whole_tested || whole;
      const NodeSet c2 = x - m;
      bool pass = true;
      b.for_each([&](NodeId v) { pass = pass && z.contains(c2 & slice(v)); });
      if (pass) return &m;
    }
    return nullptr;
  }

  /// The test on the locked boundary L ⊆ N(B') of every B' below B: Z is
  /// monotone, so a B' that passes with some M makes L pass with that M.
  bool viable(const NodeSet& b, const NodeSet& locked) const {
    return first_split(locked, b) != nullptr;
  }

  bool visit(const NodeSet& b) {
    const NodeSet cut = g.boundary(b);
    const NodeSet* m = first_split(cut, b);
    if (m) witness = Witness{cut & *m, cut - *m, b};
    return m == nullptr;
  }
};

/// The first witness over the cut candidates, in enumeration order.
template <typename Witness, typename Slice>
std::optional<Witness> find_first_cut(const Instance& inst, Slice slice) {
  CutScan<Witness, Slice> scan{inst.graph(), inst.adversary(), std::move(slice), {}};
  enumerate_cut_candidates(inst.graph(), inst.dealer(), inst.receiver(), scan);
  return std::move(scan.witness);
}

}  // namespace rmt::analysis::detail
