// graph/cuts.hpp — vertex cuts and connected-subset enumeration.
//
// Every infeasibility notion in the paper (RMT-cut, Z-pp cut, adversary
// cover) quantifies over D–R vertex separators together with the connected
// component B of the receiver. The key reduction, used by all exact
// deciders (see DESIGN.md §1), is that it suffices to consider cuts of the
// form C = N(B) for connected sets B containing R: any larger qualifying
// cut with R-component B implies N(B) qualifies, by monotonicity of
// adversary structures. This file provides that enumeration.
#pragma once

#include <concepts>
#include <functional>
#include <type_traits>
#include <vector>

#include "graph/graph.hpp"
#include "util/check.hpp"

namespace rmt {

/// Enumerate every connected node set B of g with `seed ∈ B` and
/// B ∩ forbidden = ∅. `visit(B)` is called once per set; return false to
/// stop. Returns false iff the enumeration was stopped by the visitor.
///
/// Algorithm: classic connected-subgraph enumeration with an exclusion
/// frontier — each recursive level picks one boundary vertex to include and
/// forbids the previously considered ones, so every connected superset of
/// {seed} is generated exactly once. The count is exponential in general
/// (and must be: the objects quantified over are exponential families);
/// callers bound instance sizes instead of the enumerator.
bool enumerate_connected_subsets(const Graph& g, NodeId seed, const NodeSet& forbidden,
                                 const std::function<bool(const NodeSet&)>& visit);

/// A visitor of the template enumerators below:
///
///   bool visit(const NodeSet& b); // return false to stop the enumeration
///
/// and, optionally, the dead-branch test `viable` (see
/// enumerate_connected_subsets below).
template <typename V>
concept SubsetVisitor = requires(V& vis, const NodeSet& b) {
  { vis.visit(b) } -> std::convertible_to<bool>;
};

namespace detail {

template <typename Visitor>
struct ConnectedSubsetDfs {
  const Graph& g;
  Visitor& vis;
  NodeSet current;
  // Neighbour union ∪_{v ∈ current} N(v), maintained by single-node deltas:
  // boundary(current) = nbrs ∖ current, so no level ever recomputes it from
  // scratch. Union is not invertible, so exits restore from a save stack.
  NodeSet nbrs;
  std::vector<NodeSet> nbrs_save;
  // Shared candidate arena: each recursion level appends its frontier and
  // truncates back on exit, so the whole DFS performs zero per-level vector
  // allocations once the arena has warmed up.
  std::vector<NodeId> arena;
  bool aborted = false;

  void run(const NodeSet& excluded) {
    // The locked boundary L = N(B) ∩ excluded lies in N(B') for every B'
    // below (see the visitor form of enumerate_connected_subsets).
    if constexpr (requires(const NodeSet& s) { vis.viable(s, s); }) {
      NodeSet locked = nbrs;
      locked &= excluded;
      if (!locked.empty() && !vis.viable(current, locked)) return;
    }
    if (!vis.visit(current)) {
      aborted = true;
      return;
    }
    NodeSet frontier = nbrs;
    frontier -= current;
    frontier -= excluded;
    const std::size_t begin = arena.size();
    frontier.for_each([&](NodeId x) { arena.push_back(x); });
    const std::size_t end = arena.size();
    // Each candidate extends `current`; candidates already tried at this
    // level are excluded below, which is what makes the enumeration
    // duplicate-free.
    NodeSet banned = excluded;
    for (std::size_t i = begin; i < end && !aborted; ++i) {
      const NodeId x = arena[i];
      current.insert(x);
      nbrs_save.push_back(nbrs);
      nbrs |= g.neighbors(x);
      run(banned);
      nbrs = std::move(nbrs_save.back());
      nbrs_save.pop_back();
      current.erase(x);
      banned.insert(x);
    }
    arena.resize(begin);
  }
};

}  // namespace detail

/// The visitor form of enumerate_connected_subsets: the same sets in the
/// same order, each passed to `vis.visit` (SubsetVisitor). Returns false
/// iff the enumeration was stopped by the visitor.
///
/// A visitor may also offer a dead-branch test
///
///   bool viable(const NodeSet& b, const NodeSet& locked);
///
/// called before visit(B) with the locked boundary L = N(B) ∩ excluded
/// whenever L ≠ ∅. Excluded nodes (the forbidden set and the candidates
/// already tried at an ancestor level) never join a B' below B, so
/// L ⊆ N(B') for every such B'. A visitor whose per-B test on N(B) is
/// monotone — passing on (B', N(B')) implies passing on (B, L) — may return
/// false when L fails; B and every set below it are then skipped, and the
/// sets left are visited in the unpruned order (DESIGN.md §11).
template <SubsetVisitor Visitor>
bool enumerate_connected_subsets(const Graph& g, NodeId seed, const NodeSet& forbidden,
                                 Visitor&& vis) {
  RMT_REQUIRE(g.has_node(seed), "enumerate_connected_subsets: absent seed");
  RMT_REQUIRE(!forbidden.contains(seed), "enumerate_connected_subsets: seed is forbidden");
  detail::ConnectedSubsetDfs<std::remove_reference_t<Visitor>> dfs{
      g, vis, NodeSet::single(seed), g.neighbors(seed), {}, {}, false};
  dfs.arena.reserve(g.capacity());
  dfs.nbrs_save.reserve(g.capacity() + 1);
  dfs.run(forbidden);
  return !dfs.aborted;
}

/// The candidate receiver components of the cut scans (RMT-cut, Z-pp cut,
/// adversary cover): every connected B ∋ r with B ∩ N[d] = ∅, i.e. every B
/// whose cut N(B) excludes d. A connected superset of a B with d ∈ N(B)
/// keeps d in its boundary, so these are exactly the sets of
/// enumerate_connected_subsets (seed r, forbidden {d}) with d ∉ N(B), in
/// the same order (DESIGN.md §11). N[d] is forbidden, so a B next to N(d)
/// has those nodes in its locked boundary. When d and r are adjacent there
/// is no candidate: nothing is visited, and the call returns true.
/// Otherwise the visitor contract (`viable` included) and return value
/// are the visitor form of enumerate_connected_subsets's.
template <SubsetVisitor Visitor>
bool enumerate_cut_candidates(const Graph& g, NodeId d, NodeId r, Visitor&& vis) {
  if (g.has_edge(d, r)) return true;
  return enumerate_connected_subsets(g, r, g.closed_neighborhood(d), vis);
}

/// The minimum number of nodes (excluding s, t) whose removal disconnects
/// s from t — Menger vertex connectivity via node-splitting max-flow.
/// Returns num_nodes() if s and t are adjacent (no separator exists).
std::size_t min_vertex_cut(const Graph& g, NodeId s, NodeId t);

/// True if every D–R separator has size >= k (i.e. there are k internally
/// node-disjoint s–t paths).
bool is_k_connected_between(const Graph& g, NodeId s, NodeId t, std::size_t k);

}  // namespace rmt
