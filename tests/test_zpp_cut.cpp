// Tests for the Z-pp cut deciders (analysis/zpp_cut.hpp) — Definitions 7
// and 10, the ad hoc characterization of Theorems 7 + 8.
#include "analysis/zpp_cut.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "adversary/threshold.hpp"
#include "analysis/rmt_cut.hpp"
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

// ---- shipped scan vs. reference -------------------------------------------

bool same_witness(const std::optional<ZppCutWitness>& a, const std::optional<ZppCutWitness>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->c1 == b->c1 && a->c2 == b->c2 && a->b == b->b);
}

TEST(ZppCut, ShippedMatchesReferenceWitnessExactly) {
  // The shipped decider tests each slice N(u) ∩ C₂ against Z and skips the
  // B below a failing locked boundary; the reference tests it against the
  // explicit Z_u = Z^{V(γ(u))} and walks every B. The view floor makes
  // the two agree under any γ, so the witness must be the same bit for bit
  // at every knowledge level — most of all where views are wide and Z_u
  // keeps more of Z.
  Rng rng(71);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t k = std::size_t(trial % 4);
    const Instance inst = testing::random_instance(7, 0.3, 3, 2, k, rng);
    EXPECT_TRUE(same_witness(find_rmt_zpp_cut(inst), find_rmt_zpp_cut_reference(inst)))
        << inst.to_string();
  }
  // Full views under 2- and 3-thresholds over the relays: 3 and 5 paths of
  // 3 hops, the shapes cold_mix serves, where a witness exists; and 2t + 1
  // one-hop paths, where none does and every candidate B is scanned.
  struct Paths {
    std::size_t k, h;
  };
  for (const std::size_t t : {2u, 3u}) {
    for (const Paths p : {Paths{3, 3}, Paths{5, 3}, Paths{2 * t + 1, 1}}) {
      const Graph g = generators::parallel_paths(p.k, p.h);
      const NodeId r = NodeId(g.num_nodes() - 1);
      const Instance inst =
          Instance::full_knowledge(g, threshold_structure(g.nodes() - NodeSet{0, r}, t), 0, r);
      const auto want = find_rmt_zpp_cut_reference(inst);
      EXPECT_EQ(want.has_value(), p.h == 3) << inst.to_string();
      EXPECT_TRUE(same_witness(find_rmt_zpp_cut(inst), want)) << inst.to_string();
    }
  }
  // And on a full-enumeration (cut-free) instance at the decider cap.
  const Instance big =
      Instance::ad_hoc(generators::cycle_graph(26), AdversaryStructure::trivial(), 0, 13);
  EXPECT_TRUE(same_witness(find_rmt_zpp_cut(big), find_rmt_zpp_cut_reference(big)));
  // The wheels where the locked-boundary rule skips the most.
  std::size_t cuts = 0;
  for (const Instance& inst : testing::pruning_wheels()) {
    const auto want = find_rmt_zpp_cut_reference(inst);
    cuts += want.has_value();
    EXPECT_TRUE(same_witness(find_rmt_zpp_cut(inst), want)) << inst.to_string();
  }
  EXPECT_GT(cuts, 0u);
}

TEST(ZppCut, AdjacentEndpointsHaveNoCut) {
  // With D adjacent to R every B ∋ R has D in N(B): no Z-pp cut exists,
  // and the shipped decider returns before enumerating (R would be a
  // forbidden seed). The reference still walks every B and rejects each.
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
      std::optional<ZppCutWitness> got;
      EXPECT_NO_THROW(got = find_rmt_zpp_cut(inst)) << inst.to_string();
      EXPECT_TRUE(same_witness(got, want)) << inst.to_string();
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
