#include "analysis/feasibility.hpp"

#include <array>
#include <cstdint>

#include "graph/connectivity.hpp"
#include "obs/phase.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace rmt::analysis {

namespace {

std::uint64_t low_word(const NodeSet& s) {
  const NodeSet::WordSpan span = s.word_span();
  return span.count == 0 ? 0 : span.words[0];
}

// The per-pair test: do the maximal sets i and j together cover a D–R
// cut? When every node id is below 64,
// each set is one machine word and a BFS level costs a few word operations;
// otherwise the NodeSet path. Maximal sets suffice: unions of smaller
// admissible sets are subsets of unions of maximal ones, and "separates" is
// monotone in the removed set as long as D, R stay out.
class PairTest {
 public:
  PairTest(const Graph& g, const std::vector<NodeSet>& sets, NodeId dealer, NodeId receiver)
      : g_(g), sets_(sets), d_(dealer), r_(receiver), one_word_(g.capacity() <= 64) {
    if (!one_word_) return;
    g.nodes().for_each([&](NodeId v) { adj_[v] = low_word(g.neighbors(v)); });
    words_.reserve(sets.size());
    for (const NodeSet& s : sets) words_.push_back(low_word(s));
  }

  bool operator()(std::size_t i, std::size_t j) const {
    if (!one_word_) {
      const NodeSet cut = sets_[i] | sets_[j];
      if (cut.contains(d_) || cut.contains(r_)) return false;
      return separates(g_, cut, d_, r_);
    }
    const std::uint64_t cut = words_[i] | words_[j];
    const std::uint64_t target = std::uint64_t{1} << r_;
    std::uint64_t seen = std::uint64_t{1} << d_;
    if (cut & (seen | target)) return false;
    for (std::uint64_t frontier = seen; frontier != 0;) {
      std::uint64_t next = 0;
      for (std::uint64_t f = frontier; f != 0; f &= f - 1) next |= adj_[__builtin_ctzll(f)];
      next &= ~(seen | cut);
      if (next & target) return false;
      seen |= next;
      frontier = next;
    }
    return true;
  }

  // The disjoint-path bound: true when more than 2·max_size internally
  // disjoint D–R paths exist, max_size = max|Z|. A union of two maximal
  // sets holds at most 2·max_size nodes, and by Menger every D–R separator
  // holds at least κ(D, R), so no pair can cover a cut. The paths are found
  // greedily: shortest paths by one-word BFS, each blocking its interior
  // for the next. Greedy can only undercount κ(D, R), so a true answer is
  // exact; adjacent endpoints have no separator at all. Above 64 node ids
  // this returns false and the pair scan decides alone.
  bool exceeds_two_covers(std::size_t max_size) const {
    if (!one_word_) return false;
    const std::uint64_t target = std::uint64_t{1} << r_;
    if (adj_[d_] & target) return true;
    std::array<std::uint64_t, 64> level{};  // BFS levels; a path has at most 63 edges
    std::uint64_t blocked = 0;
    for (std::size_t paths = 0; paths <= 2 * max_size; ++paths) {
      level[0] = std::uint64_t{1} << d_;
      std::uint64_t seen = level[0] | blocked;
      std::size_t depth = 0;
      while (!(level[depth] & target)) {
        std::uint64_t next = 0;
        for (std::uint64_t f = level[depth]; f != 0; f &= f - 1) next |= adj_[__builtin_ctzll(f)];
        next &= ~seen;
        if (next == 0) return false;  // R cut off: at most `paths` disjoint paths
        seen |= next;
        level[++depth] = next;
      }
      // Walk back from R through one node per level (each node of level
      // k + 1 has a neighbour in level k) and block the path's interior.
      std::size_t v = r_;
      for (std::size_t k = depth - 1; k > 0; --k) {
        v = static_cast<std::size_t>(__builtin_ctzll(adj_[v] & level[k]));
        blocked |= std::uint64_t{1} << v;
      }
    }
    return true;
  }

 private:
  const Graph& g_;
  const std::vector<NodeSet>& sets_;
  NodeId d_, r_;
  bool one_word_;
  std::array<std::uint64_t, 64> adj_{};
  std::vector<std::uint64_t> words_;
};

}  // namespace

bool solvable(const Instance& inst) { return !rmt_cut_exists(inst); }

bool solvable_by_zcpa(const Instance& inst) { return !rmt_zpp_cut_exists(inst); }

std::optional<TwoCoverWitness> find_two_cover_cut(const Graph& g, const AdversaryStructure& z,
                                                  NodeId dealer, NodeId receiver) {
  RMT_PHASE("feasibility.two_cover");
  RMT_REQUIRE(g.has_node(dealer) && g.has_node(receiver) && dealer != receiver,
              "find_two_cover_cut: bad endpoints");
  RMT_AUDIT_VALIDATE(g);
  RMT_AUDIT_VALIDATE(z);
  // Z₁ ∪ Z₂ is symmetric, so the first row-major hit (i, j) has i ≤ j (its
  // mirror (j, i) would come first otherwise): scanning only j ≥ i returns
  // the same witness in half the pairs.
  const auto& max_sets = z.maximal_sets();
  const PairTest covers(g, max_sets, dealer, receiver);
  if (covers.exceeds_two_covers(z.max_corruption_size())) return std::nullopt;
  for (std::size_t i = 0; i < max_sets.size(); ++i)
    for (std::size_t j = i; j < max_sets.size(); ++j)
      if (covers(i, j)) return TwoCoverWitness{max_sets[i], max_sets[j]};
  return std::nullopt;
}

std::optional<TwoCoverWitness> find_two_cover_cut_reference(const Graph& g,
                                                            const AdversaryStructure& z,
                                                            NodeId dealer, NodeId receiver) {
  RMT_REQUIRE(g.has_node(dealer) && g.has_node(receiver) && dealer != receiver,
              "find_two_cover_cut: bad endpoints");
  const auto& max_sets = z.maximal_sets();
  for (const NodeSet& z1 : max_sets)
    for (const NodeSet& z2 : max_sets) {
      const NodeSet cut = z1 | z2;
      if (cut.contains(dealer) || cut.contains(receiver)) continue;
      if (separates(g, cut, dealer, receiver)) return TwoCoverWitness{z1, z2};
    }
  return std::nullopt;
}

bool solvable_full_knowledge(const Graph& g, const AdversaryStructure& z, NodeId dealer,
                             NodeId receiver) {
  return !find_two_cover_cut(g, z, dealer, receiver).has_value();
}

Analysis analyze(const Instance& inst) {
  Analysis a;
  a.rmt_cut = find_rmt_cut(inst);
  if (a.rmt_cut) {
    // Every RMT-cut is a Z-pp cut with the same (C₁, C₂, B), so Z-CPA fails.
    a.zcpa_solvable = false;
    a.full_knowledge_solvable = solvable_full_knowledge(inst.graph(), inst.adversary(),
                                                        inst.dealer(), inst.receiver());
  } else {
    // Every two-cover is an RMT-cut, so full knowledge succeeds.
    a.zcpa_solvable = !rmt_zpp_cut_exists(inst);
    a.full_knowledge_solvable = true;
  }
  return a;
}

Analysis analyze_reference(const Instance& inst) {
  Analysis a;
  a.rmt_cut = find_rmt_cut(inst);
  a.zcpa_solvable = !rmt_zpp_cut_exists(inst);
  a.full_knowledge_solvable = solvable_full_knowledge(inst.graph(), inst.adversary(),
                                                      inst.dealer(), inst.receiver());
  return a;
}

}  // namespace rmt::analysis
