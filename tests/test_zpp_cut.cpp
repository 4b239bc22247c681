// Tests for the Z-pp cut deciders (analysis/zpp_cut.hpp) — Definitions 7
// and 10, the ad hoc characterization of Theorems 7 + 8.
#include "analysis/zpp_cut.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "analysis/rmt_cut.hpp"
#include "exec/thread_pool.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "tests/test_util.hpp"

namespace rmt::analysis {
namespace {

using testing::structure;

TEST(ZppCut, PathBottleneck) {
  const Graph g = generators::path_graph(3);
  EXPECT_TRUE(rmt_zpp_cut_exists(Instance::ad_hoc(g, structure({NodeSet{1}}), 0, 2)));
  EXPECT_FALSE(rmt_zpp_cut_exists(Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, 2)));
}

TEST(ZppCut, TriplePathPairCut) {
  // The locally-plausible pair cut: C1 = {x_i}, C2 = the two other x's —
  // each y sees only its own x, so every N(u) ∩ C2 slice is admissible.
  const Graph g = generators::parallel_paths(3, 2);
  const auto z = structure({NodeSet{1}, NodeSet{3}, NodeSet{5}});
  const Instance inst = Instance::ad_hoc(g, z, 0, NodeId(g.num_nodes() - 1));
  const auto cut = find_rmt_zpp_cut(inst);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->c1 | cut->c2, (NodeSet{1, 3, 5}));
}

TEST(ZppCut, SharedNeighborhoodDefeatsThePairCut) {
  // One hop instead of two: the bottlenecks are all adjacent to R, so R's
  // own Z_R refutes any 2-element C2 — no Z-pp cut (this is exactly the
  // basic-instance solvability condition).
  const Graph g = generators::parallel_paths(3, 1);
  const auto z = structure({NodeSet{1}, NodeSet{2}, NodeSet{3}});
  EXPECT_FALSE(rmt_zpp_cut_exists(Instance::ad_hoc(g, z, 0, NodeId(g.num_nodes() - 1))));
}

TEST(ZppCut, WitnessSatisfiesDefinition7) {
  Rng rng(61);
  for (int trial = 0; trial < 30; ++trial) {
    const Instance inst = testing::random_instance(7, 0.25, 3, 2, 0, rng);
    const auto cut = find_rmt_zpp_cut(inst);
    if (!cut) continue;
    const NodeSet c = cut->c1 | cut->c2;
    EXPECT_TRUE(separates(inst.graph(), c, inst.dealer(), inst.receiver()));
    EXPECT_TRUE(inst.adversary().contains(cut->c1));
    cut->b.for_each([&](NodeId u) {
      EXPECT_TRUE(inst.local_structure(u).contains(inst.graph().neighbors(u) & cut->c2));
    });
  }
}

// On ad hoc instances the RMT-cut of Definition 3 specializes to the
// RMT Z-pp cut of Definition 7 (V(γ(B)) ∩ N[u] = N[u]-slices): the two
// deciders must agree everywhere.
TEST(ZppCutProperty, AgreesWithRmtCutOnAdHocInstances) {
  Rng rng(67);
  for (int trial = 0; trial < 60; ++trial) {
    const Instance inst = testing::random_instance(7, 0.3, 3, 2, 0, rng);
    EXPECT_EQ(rmt_zpp_cut_exists(inst), rmt_cut_exists(inst)) << inst.to_string();
  }
}

// Richer knowledge never hurts Z-CPA's characterization relative to the
// general one: if an RMT Z-pp cut exists (Z-CPA fails) the general
// condition may still be satisfiable, but the converse cannot happen under
// ad hoc γ — covered by the agreement test above. Here: full knowledge
// solvable ⇒ not necessarily Z-pp-free (the triple-path case).
TEST(ZppCut, AdHocStrictlyWeakerThanFullKnowledge) {
  const Graph g = generators::parallel_paths(3, 2);
  const auto z = structure({NodeSet{1}, NodeSet{3}, NodeSet{5}});
  const NodeId r = NodeId(g.num_nodes() - 1);
  EXPECT_TRUE(rmt_zpp_cut_exists(Instance::ad_hoc(g, z, 0, r)));
  EXPECT_FALSE(rmt_cut_exists(Instance::full_knowledge(g, z, 0, r)));
}

// ---- incremental hot path vs. reference ----------------------------------

bool same_witness(const std::optional<ZppCutWitness>& a, const std::optional<ZppCutWitness>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->c1 == b->c1 && a->c2 == b->c2 && a->b == b->b);
}

TEST(ZppCut, IncrementalMatchesReferenceWitnessExactly) {
  Rng rng(71);
  for (int trial = 0; trial < 40; ++trial) {
    const Instance inst = testing::random_instance(7, 0.3, 3, 2, 0, rng);
    EXPECT_TRUE(same_witness(find_rmt_zpp_cut(inst), find_rmt_zpp_cut_reference(inst)))
        << inst.to_string();
  }
  // And on a full-enumeration (cut-free) instance at the decider cap.
  const Instance big =
      Instance::ad_hoc(generators::cycle_graph(26), AdversaryStructure::trivial(), 0, 13);
  EXPECT_TRUE(same_witness(find_rmt_zpp_cut(big), find_rmt_zpp_cut_reference(big)));
}

TEST(ZppCutDeciderPool, PooledWitnessIsSequentialWitness) {
  exec::ThreadPool pool(4);
  Rng rng(73);
  for (int trial = 0; trial < 25; ++trial) {
    const Instance inst = testing::random_instance(7, 0.3, 3, 2, 0, rng);
    EXPECT_TRUE(same_witness(find_rmt_zpp_cut(inst), find_rmt_zpp_cut(inst, &pool)))
        << inst.to_string();
  }
  const Instance big =
      Instance::ad_hoc(generators::cycle_graph(20), AdversaryStructure::trivial(), 0, 10);
  EXPECT_TRUE(same_witness(find_rmt_zpp_cut(big), find_rmt_zpp_cut(big, &pool)));
}

TEST(ZppCut, AdjacentEndpointsHaveNoCut) {
  // With D adjacent to R every B ∋ R has D in N(B): no Z-pp cut exists,
  // and the shipped overloads return before enumerating (R would be a
  // forbidden seed). The reference still walks every B and rejects each.
  exec::ThreadPool pool(4);
  Rng rng(2018);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 6 + rng.index(5);
    Graph g = generators::random_connected_gnp(n, 0.3, rng);
    const NodeId d = NodeId(rng.index(n));
    NodeId r = d;
    while (r == d) r = NodeId(rng.index(n));
    g.add_edge(d, r);
    const AdversaryStructure z =
        random_structure(g.nodes(), 2 + rng.index(4), 1 + rng.index(3), NodeSet{d, r}, rng);
    for (const ViewFunction& gamma : {ViewFunction::ad_hoc(g), ViewFunction::k_hop(g, 2)}) {
      const Instance inst(g, z, gamma, d, r);
      const auto want = find_rmt_zpp_cut_reference(inst);
      EXPECT_FALSE(want.has_value()) << inst.to_string();
      std::optional<ZppCutWitness> seq, pooled;
      EXPECT_NO_THROW(seq = find_rmt_zpp_cut(inst)) << inst.to_string();
      EXPECT_NO_THROW(pooled = find_rmt_zpp_cut(inst, &pool)) << inst.to_string();
      EXPECT_TRUE(same_witness(seq, want)) << inst.to_string();
      EXPECT_TRUE(same_witness(pooled, want)) << inst.to_string();
    }
  }
}

TEST(ZppCutBroadcast, ExistsIffSomeReceiverFails) {
  const Graph g = generators::parallel_paths(3, 2);
  const auto z = structure({NodeSet{1}, NodeSet{3}, NodeSet{5}});
  EXPECT_TRUE(zpp_cut_exists_broadcast(g, z, 0));
  EXPECT_FALSE(zpp_cut_exists_broadcast(g, AdversaryStructure::trivial(), 0));
}

TEST(ZppCutBroadcast, CompleteGraphWithSmallThreshold) {
  // On K_5 with a global-1 adversary every node certifies via 2 agreeing
  // neighbors... it needs a set outside Z_u, i.e. ≥ 2 backers: reachable.
  const Graph g = generators::complete_graph(5);
  const auto z = threshold_structure(NodeSet{1, 2, 3}, 1);
  EXPECT_FALSE(zpp_cut_exists_broadcast(g, z, 0));
}

}  // namespace
}  // namespace rmt::analysis
