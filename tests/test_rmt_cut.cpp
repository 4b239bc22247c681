// Tests for the RMT-cut decider (analysis/rmt_cut.hpp) — the paper's tight
// solvability characterization (Definition 3, Theorems 3 + 5).
#include "analysis/rmt_cut.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "adversary/threshold.hpp"
#include "analysis/feasibility.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "tests/test_util.hpp"

namespace rmt::analysis {
namespace {

using testing::structure;

// The canonical knowledge-separating fixture: 3 node-disjoint D–R paths
// of 2 hops, adversary = one of the first-hop bottlenecks {1}, {3}, {5}.
Instance triple_path(std::size_t knowledge /* SIZE_MAX = full */) {
  const Graph g = generators::parallel_paths(3, 2);
  const auto z = structure({NodeSet{1}, NodeSet{3}, NodeSet{5}});
  ViewFunction gamma = (knowledge == SIZE_MAX) ? ViewFunction::full(g)
                       : (knowledge == 0)      ? ViewFunction::ad_hoc(g)
                                               : ViewFunction::k_hop(g, knowledge);
  return Instance(g, z, gamma, 0, NodeId(g.num_nodes() - 1));
}

TEST(RmtCut, CorruptibleBottleneckOnPath) {
  // 0-1-2 with {1} corruptible: C1 = {1}, C2 = ∅ is an RMT-cut.
  const Graph g = generators::path_graph(3);
  const Instance inst = Instance::ad_hoc(g, structure({NodeSet{1}}), 0, 2);
  const auto cut = find_rmt_cut(inst);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->c1 | cut->c2, NodeSet{1});
  EXPECT_TRUE(cut->b.contains(2));
}

TEST(RmtCut, HonestBottleneckOnPathIsFine) {
  // 0-1-2 with nothing corruptible: no cut — trivially solvable.
  const Graph g = generators::path_graph(3);
  const Instance inst = Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, 2);
  EXPECT_FALSE(rmt_cut_exists(inst));
}

TEST(RmtCut, CorruptibleNodeOnTheOnlyPathAlwaysCuts) {
  // 0-1-2-3 with only {1} corruptible: {1} alone is a D–R cut with
  // C1 = {1} ∈ Z, C2 = ∅ — unsolvable regardless of knowledge.
  const Graph g = generators::path_graph(4);
  EXPECT_TRUE(rmt_cut_exists(Instance::ad_hoc(g, structure({NodeSet{1}}), 0, 3)));
  EXPECT_TRUE(
      rmt_cut_exists(Instance::full_knowledge(g, structure({NodeSet{1}}), 0, 3)));
}

TEST(RmtCut, CycleWithOneCorruptibleNode) {
  // 0-1-2-3-0, D=0, R=2, Z={{1}}: the other path through 3 is known-honest
  // to R (3 ∈ N(R)), so no RMT-cut.
  const Graph g = generators::cycle_graph(4);
  const Instance inst = Instance::ad_hoc(g, structure({NodeSet{1}}), 0, 2);
  EXPECT_FALSE(rmt_cut_exists(inst));
}

TEST(RmtCut, CycleWithTwoSeparatelyCorruptibleNodes) {
  // Z = {{1},{3}}: C1={1}, C2={3} is an RMT-cut (the receiver cannot tell
  // which side lies). This is also a classic two-cover cut.
  const Graph g = generators::cycle_graph(4);
  const Instance inst = Instance::ad_hoc(g, structure({NodeSet{1}, NodeSet{3}}), 0, 2);
  const auto cut = find_rmt_cut(inst);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->c1 | cut->c2, (NodeSet{1, 3}));
}

TEST(RmtCut, TriplePathSeparatesKnowledgeModels) {
  // The headline phenomenon: same (G, Z, D, R), different γ.
  EXPECT_TRUE(rmt_cut_exists(triple_path(0)));          // ad hoc: unsolvable
  EXPECT_TRUE(rmt_cut_exists(triple_path(1)));          // 1-hop: still blind
  EXPECT_FALSE(rmt_cut_exists(triple_path(2)));         // 2-hop: solvable
  EXPECT_FALSE(rmt_cut_exists(triple_path(SIZE_MAX)));  // full: solvable
}

TEST(RmtCut, TriplePathAdHocWitnessIsThePairCut) {
  const auto cut = find_rmt_cut(triple_path(0));
  ASSERT_TRUE(cut.has_value());
  // The witness must be the bottleneck row {1,3,5} with C1 one admissible
  // singleton and C2 the two others (locally plausible to the y-row).
  EXPECT_EQ(cut->c1 | cut->c2, (NodeSet{1, 3, 5}));
  EXPECT_EQ(cut->c1.size(), 1u);
  EXPECT_EQ(cut->c2.size(), 2u);
}

TEST(RmtCut, FullKnowledgeCollapsesToTwoCover) {
  // Under γ = full, Z_B = Z (⊕ is idempotent), so the RMT-cut condition is
  // exactly the classic "two admissible sets cover a cut".
  Rng rng(51);
  for (int trial = 0; trial < 40; ++trial) {
    const Instance inst = testing::random_instance(7, 0.3, 3, 2, SIZE_MAX, rng);
    EXPECT_EQ(rmt_cut_exists(inst),
              find_two_cover_cut(inst.graph(), inst.adversary(), inst.dealer(),
                                 inst.receiver())
                  .has_value())
        << inst.to_string();
  }
}

TEST(RmtCut, MonotoneInKnowledge) {
  // More knowledge can only help: if γ' ≤ γ and no cut under γ', then no
  // cut under γ. Verified over a k-hop sweep of random instances.
  Rng rng(53);
  for (int trial = 0; trial < 25; ++trial) {
    const Graph g = generators::random_connected_gnp(7, 0.25, rng);
    const auto z = random_structure(g.nodes(), 3, 2, NodeSet{0, 6}, rng);
    bool prev_solvable = false;
    for (std::size_t k = 0; k <= 4; ++k) {
      const Instance inst(g, z, ViewFunction::k_hop(g, k), 0, 6);
      const bool solvable_now = !rmt_cut_exists(inst);
      if (prev_solvable) {
        EXPECT_TRUE(solvable_now) << "k=" << k << " " << inst.to_string();
      }
      prev_solvable = solvable_now;
    }
  }
}

TEST(RmtCut, WitnessIsActuallyACut) {
  // Whatever witness the decider returns must really separate D from R and
  // satisfy Definition 3's two clauses.
  Rng rng(59);
  for (int trial = 0; trial < 30; ++trial) {
    const Instance inst = testing::random_instance(7, 0.25, 3, 2, 1, rng);
    const auto cut = find_rmt_cut(inst);
    if (!cut) continue;
    const NodeSet c = cut->c1 | cut->c2;
    EXPECT_TRUE(separates(inst.graph(), c, inst.dealer(), inst.receiver()));
    EXPECT_TRUE(inst.adversary().contains(cut->c1));
    // C2 ∩ V(γ(B)) ∈ Z_B via the conjunction characterization.
    const NodeSet gamma_b = inst.gamma().joint_view_nodes(cut->b);
    bool in_joint = true;
    cut->b.for_each([&](NodeId v) {
      const NodeSet ground = inst.gamma().view_nodes(v);
      if (!inst.local_structure(v).contains(cut->c2 & gamma_b & ground)) in_joint = false;
    });
    EXPECT_TRUE(in_joint);
  }
}

// ---- shipped decider vs. reference ---------------------------------------

bool same_witness(const std::optional<RmtCutWitness>& a, const std::optional<RmtCutWitness>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->c1 == b->c1 && a->c2 == b->c2 && a->b == b->b);
}

TEST(RmtCut, ShippedMatchesReferenceWitnessExactly) {
  // The shipped decider tests slices against Z, gates full views by the
  // two-cover and skips the B below a failing locked boundary; the
  // reference tests explicit Z_v, never gates and walks every B. Same
  // witness, bit for bit — not merely the same yes/no — across random
  // instances and every knowledge level.
  Rng rng(61);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t k = std::size_t(trial % 4);
    const Instance inst = testing::random_instance(7, 0.3, 3, 2, k, rng);
    EXPECT_TRUE(same_witness(find_rmt_cut(inst), find_rmt_cut_reference(inst)))
        << inst.to_string();
  }
  for (std::size_t k : {0u, 1u, 2u}) {
    const Instance inst = triple_path(k);
    EXPECT_TRUE(same_witness(find_rmt_cut(inst), find_rmt_cut_reference(inst)));
  }
  // The wheels where the locked-boundary rule skips the most.
  std::size_t cuts = 0;
  for (const Instance& inst : testing::pruning_wheels()) {
    const auto want = find_rmt_cut_reference(inst);
    cuts += want.has_value();
    EXPECT_TRUE(same_witness(find_rmt_cut(inst), want)) << inst.to_string();
  }
  EXPECT_GT(cuts, 0u);
}

TEST(RmtCut, HotPathNeverSpillsAt26Nodes) {
  // At the decider cap every set the scan touches is inline (NodeSet SBO):
  // a full n = 26 enumeration, and a threshold-2 scan under 1-hop views,
  // never reach the allocator through NodeSet.
  const Graph g = generators::cycle_graph(26);
  obs::set_enabled(true);
  obs::Registry::global().reset();
  EXPECT_FALSE(find_rmt_cut(Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, 13))
                   .has_value());  // no cut: full enumeration
  const Graph paths = generators::parallel_paths(3, 8);
  const NodeId r = NodeId(paths.num_nodes() - 1);
  const AdversaryStructure z = threshold_structure(paths.nodes() - NodeSet{0, r}, 2);
  EXPECT_TRUE(find_rmt_cut(Instance(paths, z, ViewFunction::k_hop(paths, 1), 0, r)).has_value());
  EXPECT_TRUE(find_rmt_cut(Instance::full_knowledge(paths, z, 0, r)).has_value());
  EXPECT_EQ(obs::Registry::global().counter("nodeset.heap_spills").value(), 0u);
  obs::Registry::global().reset();
  obs::set_enabled(false);
}

TEST(RmtCut, FullViewGateDecidesByTheTwoCover) {
  // Under full node views an instance is solvable iff no two-cover exists,
  // and the witness the gated decider enumerates for an unsolvable one is
  // the reference's. Both row kinds: 3-paths h8 and cycle-26 at threshold
  // 2 have a two-cover (unsolvable); 5-paths h4 and h3 at threshold 2 have
  // none (solvable, decided without enumerating).
  const auto check = [](const Instance& inst, bool solvable) {
    const auto cut = find_rmt_cut(inst);
    const bool cover = find_two_cover_cut(inst.graph(), inst.adversary(), inst.dealer(),
                                          inst.receiver())
                           .has_value();
    EXPECT_EQ(!cut.has_value(), solvable) << inst.to_string();
    EXPECT_EQ(cut.has_value(), cover) << inst.to_string();
    EXPECT_TRUE(same_witness(cut, find_rmt_cut_reference(inst))) << inst.to_string();
  };
  const auto paths = [](std::size_t k, std::size_t h) {
    const Graph g = generators::parallel_paths(k, h);
    const NodeId r = NodeId(g.num_nodes() - 1);
    return Instance::full_knowledge(g, threshold_structure(g.nodes() - NodeSet{0, r}, 2), 0, r);
  };
  check(paths(3, 8), false);
  check(paths(5, 4), true);
  check(paths(5, 3), true);
  const Graph ring = generators::cycle_graph(26);
  check(Instance::full_knowledge(ring, threshold_structure(ring.nodes() - NodeSet{0, 13}, 2), 0,
                                 13),
        false);
  // Random full-view instances, solvable and not.
  Rng rng(63);
  for (int trial = 0; trial < 40; ++trial) {
    const Instance inst = testing::random_instance(8, 0.35, 3, 2, SIZE_MAX, rng);
    const bool cover = find_two_cover_cut(inst.graph(), inst.adversary(), inst.dealer(),
                                          inst.receiver())
                           .has_value();
    check(inst, !cover);
  }
}

TEST(RmtCut, AdjacentEndpointsHaveNoCut) {
  // With D adjacent to R every B ∋ R has D in N(B): no cut exists, and the
  // shipped decider returns before enumerating (R would be a forbidden
  // seed). The reference still walks every B and rejects each one.
  Rng rng(2017);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 6 + rng.index(5);
    Graph g = generators::random_connected_gnp(n, 0.3, rng);
    const NodeId d = NodeId(rng.index(n));
    NodeId r = d;
    while (r == d) r = NodeId(rng.index(n));
    g.add_edge(d, r);
    const AdversaryStructure z =
        random_structure(g.nodes(), 2 + rng.index(4), 1 + rng.index(3), NodeSet{d, r}, rng);
    for (const ViewFunction& gamma :
         {ViewFunction::ad_hoc(g), ViewFunction::k_hop(g, 1), ViewFunction::full(g)}) {
      const Instance inst(g, z, gamma, d, r);
      const auto want = find_rmt_cut_reference(inst);
      EXPECT_FALSE(want.has_value()) << inst.to_string();
      std::optional<RmtCutWitness> got;
      EXPECT_NO_THROW(got = find_rmt_cut(inst)) << inst.to_string();
      EXPECT_TRUE(same_witness(got, want)) << inst.to_string();
    }
  }
}

TEST(RmtCut, RejectsOversizedInstance) {
  const Graph g = generators::path_graph(kMaxExactNodes + 2);
  const Instance inst =
      Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, NodeId(g.num_nodes() - 1));
  EXPECT_THROW(find_rmt_cut(inst), std::invalid_argument);
}

}  // namespace
}  // namespace rmt::analysis
