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
      vis.push(x);
      run(banned);
      vis.pop(x);
      nbrs = std::move(nbrs_save.back());
      nbrs_save.pop_back();
      current.erase(x);
      banned.insert(x);
    }
    arena.resize(begin);
  }
};

}  // namespace detail

/// Incremental (push/pop) variant of enumerate_connected_subsets: the same
/// sets in the same order, but the visitor additionally observes the DFS as
/// single-node deltas, so per-B state (joint structures, boundary unions)
/// can be maintained instead of rebuilt. Visitor requirements:
///
///   void push(NodeId v);          // v entered B; called before visit(B)
///   bool visit(const NodeSet& b); // return false to stop the enumeration
///   void pop(NodeId v);           // v is leaving B (reverse push order)
///
/// push(seed) precedes the first visit; pop(seed) follows the enumeration
/// (also after an aborting visit), so pushes and pops always balance.
/// Returns false iff the enumeration was stopped by the visitor.
template <typename Visitor>
bool enumerate_connected_subsets_incremental(const Graph& g, NodeId seed,
                                             const NodeSet& forbidden, Visitor&& vis) {
  RMT_REQUIRE(g.has_node(seed), "enumerate_connected_subsets: absent seed");
  RMT_REQUIRE(!forbidden.contains(seed), "enumerate_connected_subsets: seed is forbidden");
  detail::ConnectedSubsetDfs<std::remove_reference_t<Visitor>> dfs{
      g, vis, NodeSet::single(seed), g.neighbors(seed), {}, {}, false};
  dfs.arena.reserve(g.capacity());
  dfs.nbrs_save.reserve(g.capacity() + 1);
  vis.push(seed);
  dfs.run(forbidden);
  vis.pop(seed);
  return !dfs.aborted;
}

/// The candidate receiver components of the cut scans (RMT-cut, Z-pp cut):
/// every connected B ∋ r with B ∩ N[d] = ∅, i.e. every B whose cut N(B)
/// excludes d. A connected superset of a B with d ∈ N(B) keeps d in its
/// boundary, so these are exactly the sets of enumerate_connected_subsets
/// (seed r, forbidden {d}) with d ∉ N(B), in the same order (DESIGN.md §11).
/// When d and r are adjacent there is no candidate: nothing is pushed or
/// visited, and the call returns true. Otherwise the visitor contract and
/// return value are enumerate_connected_subsets_incremental's.
template <typename Visitor>
bool enumerate_cut_candidates_incremental(const Graph& g, NodeId d, NodeId r, Visitor&& vis) {
  if (g.has_edge(d, r)) return true;
  return enumerate_connected_subsets_incremental(g, r, g.closed_neighborhood(d), vis);
}

/// enumerate_cut_candidates_incremental for a plain per-set visitor.
bool enumerate_cut_candidates(const Graph& g, NodeId d, NodeId r,
                              const std::function<bool(const NodeSet&)>& visit);

/// The minimum number of nodes (excluding s, t) whose removal disconnects
/// s from t — Menger vertex connectivity via node-splitting max-flow.
/// Returns num_nodes() if s and t are adjacent (no separator exists).
std::size_t min_vertex_cut(const Graph& g, NodeId s, NodeId t);

/// True if every D–R separator has size >= k (i.e. there are k internally
/// node-disjoint s–t paths).
bool is_k_connected_between(const Graph& g, NodeId s, NodeId t, std::size_t k);

}  // namespace rmt
