// graph/graph.hpp — undirected graphs over a global node-id space.
//
// One type serves for the communication network G, for topology views γ(v)
// (which are *subgraphs* of G), for joint views γ(S), and for the graphs G_M
// reconstructed from message sets: a Graph holds an arbitrary (possibly
// non-contiguous) set of node ids plus undirected edges among them. This
// unification matters because the paper constantly unions, restricts, and
// compares such objects, and they must all live in the same id space.
//
// Edges are authenticated channels in the model of the paper (§1.3); the
// Graph itself carries no protocol state.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/node_set.hpp"

namespace rmt {

/// Undirected edge; canonical form has a <= b.
struct Edge {
  NodeId a = 0;
  NodeId b = 0;
  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

class Graph {
 public:
  Graph() = default;

  /// Graph with nodes {0, ..., n-1} and no edges.
  explicit Graph(std::size_t n) : nodes_(NodeSet::full(n)), adj_(n) {}

  void add_node(NodeId v);
  /// Adds the edge {u, v} (and both endpoints). Self-loops are rejected:
  /// a channel from a player to itself is meaningless in the model.
  void add_edge(NodeId u, NodeId v);
  void remove_edge(NodeId u, NodeId v);
  /// Removes v and all incident edges.
  void remove_node(NodeId v);

  bool has_node(NodeId v) const { return nodes_.contains(v); }
  bool has_edge(NodeId u, NodeId v) const {
    return u < adj_.size() && adj_[u].contains(v);
  }

  const NodeSet& nodes() const { return nodes_; }
  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_edges() const;

  /// Open neighborhood N(v) within this graph. Requires has_node(v).
  const NodeSet& neighbors(NodeId v) const;
  /// Closed neighborhood N[v] = N(v) ∪ {v}.
  NodeSet closed_neighborhood(NodeId v) const;
  /// Boundary N(S) \ S: nodes outside S adjacent to S. Ignores ids in S
  /// that are not graph nodes.
  NodeSet boundary(const NodeSet& s) const;
  std::size_t degree(NodeId v) const { return neighbors(v).size(); }

  /// Edges in canonical (a<b), ascending order.
  std::vector<Edge> edges() const;

  /// Node-induced subgraph on `s` (ids in `s` absent from the graph are
  /// dropped — this matches the paper's usage where G_M is "the node-induced
  /// subgraph of γ(V_M) on node set V_M"). One adjacency-row AND per kept
  /// node; capacity() is one past the largest kept id (0 when none is).
  Graph induced(const NodeSet& s) const;

  /// Graph union: nodes and edges of both. This is exactly the joint view
  /// γ(S) = (∪ V_v, ∪ E_v) of §1.3. One adjacency-row OR per node of `o`;
  /// capacity() grows to one past `o`'s largest node id, never to `o`'s
  /// own capacity.
  Graph united(const Graph& o) const;
  /// In-place united(): *this becomes *this ∪ o.
  void unite(const Graph& o);

  /// True if `o` has a subset of our nodes and a subset of our edges —
  /// i.e. `o` is a subgraph of *this (the partial-ordering of views, §3.1).
  bool contains_subgraph(const Graph& o) const;

  /// Equality is exact: same node set and same edge set.
  friend bool operator==(const Graph& a, const Graph& b);

  /// One past the largest node id ever added (bound for dense scratch arrays).
  std::size_t capacity() const { return adj_.size(); }

  std::string to_string() const;

  /// Deep invariant check (rmt::audit): adjacency symmetry, no self-loops,
  /// neighbors ⊆ nodes, no adjacency rows for absent nodes, canonical
  /// NodeSets throughout. Throws audit::AuditError.
  void debug_validate() const;

 private:
  friend struct AuditTestAccess;  // tests corrupt internals to prove detection

  NodeSet nodes_;
  std::vector<NodeSet> adj_;  // indexed by node id; empty for absent nodes
};

}  // namespace rmt
