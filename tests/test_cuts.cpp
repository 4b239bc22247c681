// Unit tests for graph/cuts.hpp — connected-subset enumeration and Menger.
#include "graph/cuts.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace rmt {
namespace {

std::set<NodeSet> collect_connected(const Graph& g, NodeId seed, const NodeSet& forbidden = {}) {
  std::set<NodeSet> out;
  enumerate_connected_subsets(g, seed, forbidden, [&](const NodeSet& b) {
    out.insert(b);
    return true;
  });
  return out;
}

TEST(ConnectedSubsets, PathGraphCounts) {
  // On a path 0-1-2-3, connected subsets containing 0 are the prefixes.
  const auto sets = collect_connected(generators::path_graph(4), 0);
  EXPECT_EQ(sets.size(), 4u);
  EXPECT_TRUE(sets.count(NodeSet{0}));
  EXPECT_TRUE(sets.count(NodeSet{0, 1, 2, 3}));
  EXPECT_FALSE(sets.count(NodeSet{0, 2}));
}

TEST(ConnectedSubsets, MiddleSeedOnPath) {
  // Subsets containing node 1 of 0-1-2: {1},{0,1},{1,2},{0,1,2}.
  const auto sets = collect_connected(generators::path_graph(3), 1);
  EXPECT_EQ(sets.size(), 4u);
}

TEST(ConnectedSubsets, CompleteGraphCounts) {
  // On K_4 every subset containing the seed is connected: 2^3 = 8.
  const auto sets = collect_connected(generators::complete_graph(4), 0);
  EXPECT_EQ(sets.size(), 8u);
}

TEST(ConnectedSubsets, AllEnumeratedAreConnectedAndContainSeed) {
  Rng rng(5);
  const Graph g = generators::random_connected_gnp(8, 0.3, rng);
  for (const NodeSet& b : collect_connected(g, 2)) {
    EXPECT_TRUE(b.contains(2));
    EXPECT_EQ(component_of(g.induced(b), 2), b);
  }
}

TEST(ConnectedSubsets, RespectsForbidden) {
  const Graph g = generators::cycle_graph(5);
  for (const NodeSet& b : collect_connected(g, 0, NodeSet{2}))
    EXPECT_FALSE(b.contains(2));
  // Forbidding a cycle node leaves the remaining path's subsets around 0:
  // subsets of path 3-4-0-1 containing 0: 2*3 = 6 intervals.
  EXPECT_EQ(collect_connected(g, 0, NodeSet{2}).size(), 6u);
}

TEST(ConnectedSubsets, NoDuplicates) {
  const Graph g = generators::grid_graph(3, 2);
  std::size_t count = 0;
  std::set<NodeSet> distinct;
  enumerate_connected_subsets(g, 0, {}, [&](const NodeSet& b) {
    ++count;
    distinct.insert(b);
    return true;
  });
  EXPECT_EQ(count, distinct.size());
}

TEST(ConnectedSubsets, VisitorStops) {
  const Graph g = generators::complete_graph(5);
  std::size_t count = 0;
  const bool completed =
      enumerate_connected_subsets(g, 0, {}, [&](const NodeSet&) { return ++count < 3; });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 3u);
}

TEST(ConnectedSubsets, Preconditions) {
  const Graph g = generators::path_graph(3);
  EXPECT_THROW(collect_connected(g, 9), std::invalid_argument);
  EXPECT_THROW(collect_connected(g, 1, NodeSet{1}), std::invalid_argument);
}

// ---- incremental (push/pop) enumeration ----------------------------------

/// Records the full visitor event stream and rebuilds B from the deltas.
struct RecordingVisitor {
  NodeSet rebuilt;                    // maintained from push/pop only
  std::vector<NodeId> stack;          // push order, for LIFO checking
  std::vector<NodeSet> visited;       // every B, in visit order
  bool lifo_ok = true;
  bool deltas_match = true;
  std::size_t stop_after = std::size_t(-1);

  void push(NodeId v) {
    rebuilt.insert(v);
    stack.push_back(v);
  }
  void pop(NodeId v) {
    if (stack.empty() || stack.back() != v) lifo_ok = false;
    if (!stack.empty()) stack.pop_back();
    rebuilt.erase(v);
  }
  bool visit(const NodeSet& b) {
    if (rebuilt != b) deltas_match = false;
    visited.push_back(b);
    return visited.size() < stop_after;
  }
};

TEST(IncrementalEnumeration, DeltasReconstructEveryVisitedSet) {
  Rng rng(11);
  const Graph g = generators::random_connected_gnp(9, 0.3, rng);
  RecordingVisitor vis;
  const bool completed = enumerate_connected_subsets_incremental(g, 3, NodeSet{}, vis);
  EXPECT_TRUE(completed);
  EXPECT_TRUE(vis.deltas_match);  // push/pop stream always equals the visited B
  EXPECT_TRUE(vis.lifo_ok);
  EXPECT_TRUE(vis.stack.empty());   // pushes and pops balance (incl. the seed)
  EXPECT_TRUE(vis.rebuilt.empty());
}

TEST(IncrementalEnumeration, SameSetsSameOrderAsClassicApi) {
  Rng rng(12);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = generators::random_connected_gnp(8, 0.35, rng);
    const NodeSet forbidden = trial % 2 ? NodeSet{5} : NodeSet{};
    std::vector<NodeSet> classic;
    enumerate_connected_subsets(g, 0, forbidden, [&](const NodeSet& b) {
      classic.push_back(b);
      return true;
    });
    RecordingVisitor vis;
    enumerate_connected_subsets_incremental(g, 0, forbidden, vis);
    EXPECT_EQ(vis.visited, classic);  // identical sequence, not just same sets
  }
}

TEST(IncrementalEnumeration, EarlyStopStillBalancesPushesAndPops) {
  const Graph g = generators::complete_graph(5);
  RecordingVisitor vis;
  vis.stop_after = 3;
  const bool completed = enumerate_connected_subsets_incremental(g, 0, NodeSet{}, vis);
  EXPECT_FALSE(completed);
  EXPECT_EQ(vis.visited.size(), 3u);
  EXPECT_TRUE(vis.stack.empty());  // pop(seed) fires even on abort
  EXPECT_TRUE(vis.rebuilt.empty());
}

TEST(IncrementalEnumeration, Preconditions) {
  const Graph g = generators::path_graph(3);
  RecordingVisitor vis;
  EXPECT_THROW(enumerate_connected_subsets_incremental(g, 9, NodeSet{}, vis),
               std::invalid_argument);
  EXPECT_THROW(enumerate_connected_subsets_incremental(g, 1, NodeSet{1}, vis),
               std::invalid_argument);
}

TEST(ConnectedSubsets, ForbiddingTheDealersNeighbourhoodDropsOnlyDeadSets) {
  // The cut scans' candidate rule: enumerating with N[d] forbidden must
  // visit exactly the sets the unpruned enumeration (only d forbidden)
  // visits with d ∉ N(B), in the same order, through both surfaces.
  std::size_t pruned_any = 0, adjacent = 0;
  const auto check = [&](const Graph& g, NodeId d, NodeId r) {
    const std::string what = "d=" + std::to_string(d) + " r=" + std::to_string(r) + " on " +
                             std::to_string(g.num_nodes()) + " nodes";
    std::vector<NodeSet> filtered;
    std::size_t unpruned = 0;
    enumerate_connected_subsets(g, r, NodeSet::single(d), [&](const NodeSet& b) {
      ++unpruned;
      if (!g.boundary(b).contains(d)) filtered.push_back(b);
      return true;
    });
    std::vector<NodeSet> plain;
    EXPECT_TRUE(enumerate_cut_candidates(g, d, r, [&](const NodeSet& b) {
      plain.push_back(b);
      return true;
    })) << what;
    EXPECT_EQ(plain, filtered) << what;
    RecordingVisitor vis;
    EXPECT_TRUE(enumerate_cut_candidates_incremental(g, d, r, vis)) << what;
    EXPECT_EQ(vis.visited, filtered) << what;
    EXPECT_TRUE(vis.deltas_match && vis.lifo_ok && vis.stack.empty()) << what;
    if (g.has_edge(d, r)) {
      EXPECT_TRUE(filtered.empty()) << what;  // no candidate, nothing visited
      ++adjacent;
    }
    if (unpruned > filtered.size() && !filtered.empty()) ++pruned_any;
  };
  Rng rng(2016);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 6 + rng.index(6);
    const Graph g = generators::random_connected_gnp(n, 0.2 + 0.1 * double(rng.index(3)), rng);
    const NodeId d = NodeId(rng.index(n));
    NodeId r = d;
    while (r == d) r = NodeId(rng.index(n));
    check(g, d, r);
  }
  // Generalized wheels (hub 0): D on a spoke and off one, R anywhere else.
  std::size_t on_spoke = 0, off_spoke = 0;
  for (const std::size_t n : {10u, 13u, 16u}) {
    for (const std::size_t stride : {2u, 3u}) {
      const Graph g = generators::generalized_wheel(n, stride);
      for (NodeId d = 1; d < 4; ++d) {
        (g.has_edge(0, d) ? on_spoke : off_spoke) += 1;
        for (NodeId r = 0; r < NodeId(n); ++r)
          if (r != d) check(g, d, r);
      }
    }
  }
  EXPECT_GT(on_spoke, 0u);
  EXPECT_GT(off_spoke, 0u);
  EXPECT_GT(adjacent, 0u);
  EXPECT_GT(pruned_any, 0u);
}

TEST(MinVertexCut, KnownGraphs) {
  EXPECT_EQ(min_vertex_cut(generators::path_graph(5), 0, 4), 1u);
  EXPECT_EQ(min_vertex_cut(generators::cycle_graph(6), 0, 3), 2u);
  // K_5 has s,t adjacent: no separator.
  EXPECT_EQ(min_vertex_cut(generators::complete_graph(5), 0, 4), 5u);
  // 3-wide layered graph: connectivity 3.
  EXPECT_EQ(min_vertex_cut(generators::layered_graph(2, 3), 0, 7), 3u);
}

TEST(MinVertexCut, DisconnectedIsZero) {
  Graph g;
  g.add_node(0);
  g.add_node(1);
  EXPECT_EQ(min_vertex_cut(g, 0, 1), 0u);
}

TEST(MinVertexCut, MengerAgainstBoundaryEnumeration) {
  // Cross-check the flow answer against brute-force over boundary cuts.
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = generators::random_connected_gnp(8, 0.25, rng);
    const NodeId s = 0, t = 7;
    if (g.has_edge(s, t)) continue;
    std::size_t best = g.num_nodes();
    enumerate_connected_subsets(g, t, NodeSet::single(s), [&](const NodeSet& b) {
      const NodeSet c = g.boundary(b);
      if (!c.contains(s) && separates(g, c, s, t)) best = std::min(best, c.size());
      return true;
    });
    EXPECT_EQ(min_vertex_cut(g, s, t), best) << g.to_string();
  }
}

TEST(KConnected, Between) {
  const Graph g = generators::cycle_graph(6);
  EXPECT_TRUE(is_k_connected_between(g, 0, 3, 2));
  EXPECT_FALSE(is_k_connected_between(g, 0, 3, 3));
}

}  // namespace
}  // namespace rmt
