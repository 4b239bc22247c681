// Unit tests for Graph (graph/graph.hpp).
#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.hpp"

namespace rmt {
namespace {

TEST(Graph, EmptyAndDense) {
  Graph g0;
  EXPECT_EQ(g0.num_nodes(), 0u);
  EXPECT_EQ(g0.num_edges(), 0u);
  Graph g(4);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_TRUE(g.has_node(3));
  EXPECT_FALSE(g.has_node(4));
}

TEST(Graph, AddEdgeAddsEndpoints) {
  Graph g;
  g.add_edge(2, 7);
  EXPECT_TRUE(g.has_node(2));
  EXPECT_TRUE(g.has_node(7));
  EXPECT_TRUE(g.has_edge(2, 7));
  EXPECT_TRUE(g.has_edge(7, 2));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.has_node(3));  // ids in between are not implicitly created
}

TEST(Graph, SelfLoopRejected) {
  Graph g;
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
}

TEST(Graph, RemoveEdgeAndNode) {
  Graph g;
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.remove_edge(0, 1);
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_node(0));
  g.remove_node(1);
  EXPECT_FALSE(g.has_node(1));
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_EQ(g.neighbors(2).size(), 0u);
}

TEST(Graph, NeighborsAndDegree) {
  Graph g;
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  EXPECT_EQ(g.neighbors(0), (NodeSet{1, 2}));
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.closed_neighborhood(0), (NodeSet{0, 1, 2}));
  EXPECT_THROW(g.neighbors(9), std::invalid_argument);
}

TEST(Graph, Boundary) {
  // 0-1-2-3 path: N({1,2}) \ {1,2} = {0,3}
  Graph g;
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  EXPECT_EQ(g.boundary(NodeSet{1, 2}), (NodeSet{0, 3}));
  EXPECT_EQ(g.boundary(NodeSet{0}), (NodeSet{1}));
  EXPECT_EQ(g.boundary(g.nodes()), NodeSet{});
  // Ids not in the graph are ignored.
  EXPECT_EQ(g.boundary(NodeSet{1, 77}), (NodeSet{0, 2}));
}

TEST(Graph, EdgesCanonicalOrder) {
  Graph g;
  g.add_edge(3, 1);
  g.add_edge(0, 2);
  const std::vector<Edge> e = g.edges();
  ASSERT_EQ(e.size(), 2u);
  EXPECT_EQ(e[0], (Edge{0, 2}));
  EXPECT_EQ(e[1], (Edge{1, 3}));
}

TEST(Graph, Induced) {
  Graph g;
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  const Graph h = g.induced(NodeSet{0, 1, 9});
  EXPECT_EQ(h.nodes(), (NodeSet{0, 1}));  // 9 dropped silently
  EXPECT_TRUE(h.has_edge(0, 1));
  EXPECT_FALSE(h.has_edge(1, 2));
  EXPECT_EQ(h.num_edges(), 1u);
}

TEST(Graph, United) {
  Graph a;
  a.add_edge(0, 1);
  Graph b;
  b.add_edge(1, 2);
  b.add_node(5);
  const Graph u = a.united(b);
  EXPECT_EQ(u.nodes(), (NodeSet{0, 1, 2, 5}));
  EXPECT_TRUE(u.has_edge(0, 1));
  EXPECT_TRUE(u.has_edge(1, 2));
  EXPECT_EQ(u.num_edges(), 2u);
}

TEST(Graph, ContainsSubgraph) {
  Graph g;
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  Graph sub;
  sub.add_edge(0, 1);
  EXPECT_TRUE(g.contains_subgraph(sub));
  sub.add_edge(0, 2);  // edge absent from g
  EXPECT_FALSE(g.contains_subgraph(sub));
  Graph nodes_only;
  nodes_only.add_node(2);
  EXPECT_TRUE(g.contains_subgraph(nodes_only));
  Graph foreign;
  foreign.add_node(9);
  EXPECT_FALSE(g.contains_subgraph(foreign));
}

TEST(Graph, EqualityIsExact) {
  Graph a;
  a.add_edge(0, 1);
  Graph b;
  b.add_edge(0, 1);
  EXPECT_EQ(a, b);
  b.add_node(2);
  EXPECT_FALSE(a == b);
  // Same value even if built through different histories.
  Graph c;
  c.add_edge(0, 1);
  c.add_edge(0, 2);
  c.remove_node(2);
  c.add_node(2);
  EXPECT_EQ(b, c);
}

TEST(Graph, InducedOfUnionMatchesViewSemantics) {
  // γ(S) induced on V_M — the G_M construction of the paper must compose.
  Graph v1;  // node 1 sees the triangle corner at itself
  v1.add_edge(0, 1);
  v1.add_edge(1, 2);
  Graph v2;
  v2.add_edge(2, 3);
  const Graph joint = v1.united(v2);
  const Graph gm = joint.induced(NodeSet{0, 1, 2, 3});
  EXPECT_EQ(gm.num_edges(), 3u);
  EXPECT_EQ(joint.induced(NodeSet{1, 2}).num_edges(), 1u);
}

// ---- the row-wise union and induction against the per-edge definitions ----

/// induced() as it was defined edge by edge: add every kept node, then
/// every edge between two kept nodes.
Graph per_edge_induced(const Graph& g, const NodeSet& s) {
  Graph out;
  const NodeSet keep = s & g.nodes();
  keep.for_each([&](NodeId v) { out.add_node(v); });
  for (const Edge& e : g.edges())
    if (keep.contains(e.a) && keep.contains(e.b)) out.add_edge(e.a, e.b);
  return out;
}

/// united() as it was defined edge by edge.
Graph per_edge_united(const Graph& a, const Graph& b) {
  Graph out = a;
  b.nodes().for_each([&](NodeId v) { out.add_node(v); });
  for (const Edge& e : b.edges()) out.add_edge(e.a, e.b);
  return out;
}

/// Equal as graphs, with the same edge list and the same capacity().
void expect_same_graph(const Graph& got, const Graph& want, const std::string& what) {
  EXPECT_EQ(got, want) << what;
  EXPECT_EQ(got.edges(), want.edges()) << what;
  EXPECT_EQ(got.capacity(), want.capacity()) << what;
  EXPECT_EQ(got.nodes(), want.nodes()) << what;
  EXPECT_NO_THROW(got.debug_validate()) << what;
}

/// A random graph over ids below `cap`, with some nodes removed again so
/// that capacity() runs past the largest live id.
Graph random_graph(Rng& rng, std::size_t cap) {
  Graph g;
  if (cap == 0 || rng.index(8) == 0) return g;
  for (std::size_t i = rng.index(cap * 2); i-- > 0;) {
    const NodeId a = NodeId(rng.index(cap)), b = NodeId(rng.index(cap));
    if (a == b) g.add_node(a);
    else g.add_edge(a, b);
  }
  for (std::size_t i = rng.index(3); i-- > 0;) g.remove_node(NodeId(rng.index(cap)));
  return g;
}

TEST(Graph, RowWiseUnionAndInductionMatchPerEdgeDefinitions) {
  Rng rng(31);
  for (int i = 0; i < 3000; ++i) {
    const std::size_t cap = rng.index(3) == 0 ? 130 : 1 + rng.index(20);
    const Graph a = random_graph(rng, cap);
    const Graph b = random_graph(rng, 1 + rng.index(cap));
    NodeSet s;
    for (std::size_t k = rng.index(cap + 3); k-- > 0;) s.insert(NodeId(rng.index(cap + 3)));
    const std::string what = "case " + std::to_string(i);
    expect_same_graph(a.united(b), per_edge_united(a, b), what + " united");
    expect_same_graph(b.united(a), per_edge_united(b, a), what + " united (swapped)");
    Graph in_place = a;
    in_place.unite(b);
    expect_same_graph(in_place, per_edge_united(a, b), what + " unite");
    expect_same_graph(a.induced(s), per_edge_induced(a, s), what + " induced");
    expect_same_graph(a.induced(a.nodes()), per_edge_induced(a, a.nodes()), what + " induced all");
  }
}

TEST(Graph, RowWiseEdgeCases) {
  const Graph empty;
  Graph one;
  one.add_node(7);
  Graph removed;
  removed.add_edge(1, 9);
  removed.remove_node(9);  // capacity stays 10, largest live id is 1
  const std::vector<const Graph*> cases = {&empty, &one, &removed};
  for (const Graph* a : cases) {
    for (const Graph* b : cases) {
      expect_same_graph(a->united(*b), per_edge_united(*a, *b), "edge-case union");
      Graph in_place = *a;
      in_place.unite(*b);
      expect_same_graph(in_place, per_edge_united(*a, *b), "edge-case unite");
    }
    for (const NodeSet& s : {NodeSet{}, NodeSet{9}, NodeSet{1, 7, 9}, NodeSet{200}})
      expect_same_graph(a->induced(s), per_edge_induced(*a, s), "edge-case induced");
  }
  EXPECT_EQ(removed.united(empty).capacity(), 10u);
  EXPECT_EQ(empty.united(removed).capacity(), 2u);  // the removed tail row is not copied
  EXPECT_EQ(removed.induced(NodeSet{1, 9}).capacity(), 2u);
}

}  // namespace
}  // namespace rmt
