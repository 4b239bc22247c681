#include "analysis/zpp_cut.hpp"

#include <utility>
#include <vector>

#include "adversary/bit_matrix.hpp"
#include "analysis/rmt_cut.hpp"
#include "graph/cuts.hpp"
#include "obs/phase.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace rmt::analysis {

namespace {

inline constexpr std::size_t kC2MemoSlots = 16;

// The per-node plausibility constraint "N(u) ∩ C₂ ∈ Z_u", compiled to
// forbidden rows (bit_matrix.hpp) from Z's own maximal sets. The view floor
// puts N(u) inside V(γ(u)), so for x = N(u) ∩ C₂ ⊆ V(γ(u)),
// x ∈ Z_u = Z^{V(γ(u))} iff x ∈ Z (monotonicity) — the argument cut_at in
// rmt_cut.cpp uses for its slices. With M ranging over the maximal sets of
// Z, N(u) ∩ C₂ ⊆ M ⇔ C₂ ∩ (N(u) ∖ M) = ∅, so no Z_u is ever built. The
// whole per-B plausibility loop is then one ConjunctionRows probe over B's
// group stack.
std::vector<CompiledGroup> node_plausibility_groups(const Graph& g,
                                                    const AdversaryStructure& z) {
  std::vector<CompiledGroup> groups(g.capacity());
  g.nodes().for_each([&](NodeId v) {
    groups[v] = CompiledGroup::complement(g.neighbors(v), z.maximal_sets());
  });
  return groups;
}

// Incremental decider state, driven by the push/pop enumeration of cut
// candidates (graph/cuts.hpp, so N(B) never contains D): the neighbour
// union ∪_{v∈B} N(v) and the compiled-row stack follow the DFS by push/pop
// deltas; N(B) = ∪N(v) ∖ B per visit. A push is one precompiled row-group
// append — no restriction, no NodeSet temporaries.
struct IncrementalScan {
  const Graph& g;
  const std::vector<CompiledGroup>& node_groups;
  const std::vector<NodeSet>& zmax;
  NodeSet nbrs;
  ConjunctionRows rows;
  std::vector<NodeSet> nbrs_save;
  std::optional<ZppCutWitness> witness;

  void push(NodeId v) {
    rows.push_group(node_groups[v]);
    nbrs_save.push_back(nbrs);
    nbrs |= g.neighbors(v);
  }

  void pop(NodeId) {
    rows.pop_group();
    nbrs = std::move(nbrs_save.back());
    nbrs_save.pop_back();
  }

  // The first maximal M (antichain order) whose C₂ = C ∖ M is plausible at
  // every u ∈ B. Distinct C₂ repeat across maximal sets whenever two M miss
  // the (small) cut identically, so the first few plausibility answers are
  // memoized per B; the memo only skips identical tests, so the witness is
  // the reference's.
  bool visit(const NodeSet& b) {
    NodeSet cut = nbrs;
    cut -= b;
    NodeSet seen[kC2MemoSlots];
    bool ans[kC2MemoSlots];
    std::size_t nseen = 0;
    for (const NodeSet& m : zmax) {
      NodeSet c2 = cut;
      c2 -= m;
      std::size_t i = 0;
      while (i < nseen && !(seen[i] == c2)) ++i;
      const bool plausible = i < nseen ? ans[i] : rows.contains(c2);
      if (i == nseen && nseen < kC2MemoSlots) {
        seen[nseen] = c2;
        ans[nseen] = plausible;
        ++nseen;
      }
      if (plausible) {
        witness = ZppCutWitness{cut & m, std::move(c2), b};
        return false;
      }
    }
    return true;
  }
};

}  // namespace

std::optional<ZppCutWitness> find_rmt_zpp_cut(const Instance& inst) {
  RMT_PHASE("zpp_cut.find");
  RMT_REQUIRE(inst.num_players() <= kMaxExactNodes,
              "find_rmt_zpp_cut: instance too large for the exact decider");
  RMT_AUDIT_VALIDATE(inst);
  const Graph& g = inst.graph();
  const std::vector<CompiledGroup> node_groups = node_plausibility_groups(g, inst.adversary());

  IncrementalScan scan{g, node_groups, inst.adversary().maximal_sets(), {}, {}, {}, {}};
  scan.rows.reserve(g.capacity(), g.capacity());
  scan.nbrs_save.reserve(g.capacity() + 1);
  enumerate_cut_candidates_incremental(g, inst.dealer(), inst.receiver(), scan);
  return std::move(scan.witness);
}

std::optional<ZppCutWitness> find_rmt_zpp_cut_reference(const Instance& inst) {
  RMT_PHASE("zpp_cut.find");
  RMT_REQUIRE(inst.num_players() <= kMaxExactNodes,
              "find_rmt_zpp_cut: instance too large for the exact decider");
  RMT_AUDIT_VALIDATE(inst);
  const Graph& g = inst.graph();
  const NodeId d = inst.dealer();
  const NodeId r = inst.receiver();
  std::vector<AdversaryStructure> local_z(g.capacity());
  g.nodes().for_each([&](NodeId v) { local_z[v] = inst.local_structure(v); });

  std::optional<ZppCutWitness> witness;
  enumerate_connected_subsets(g, r, NodeSet::single(d), [&](const NodeSet& b) {
    const NodeSet cut = g.boundary(b);
    if (cut.contains(d)) return true;
    for (const NodeSet& m : inst.adversary().maximal_sets()) {
      const NodeSet c2 = cut - m;
      bool plausible = true;
      b.for_each([&](NodeId u) {
        if (plausible && !local_z[u].contains(g.neighbors(u) & c2)) plausible = false;
      });
      if (plausible) {
        witness = ZppCutWitness{cut & m, c2, b};
        return false;
      }
    }
    return true;
  });
  return witness;
}

bool rmt_zpp_cut_exists(const Instance& inst) { return find_rmt_zpp_cut(inst).has_value(); }

bool zpp_cut_exists_broadcast(const Graph& g, const AdversaryStructure& z, NodeId dealer) {
  const NodeSet corruptible = z.support();
  bool exists = false;
  g.nodes().for_each([&](NodeId r) {
    if (exists || r == dealer || corruptible.contains(r)) return;
    const Instance inst = Instance::ad_hoc(g, z, dealer, r);
    if (rmt_zpp_cut_exists(inst)) exists = true;
  });
  return exists;
}

}  // namespace rmt::analysis
