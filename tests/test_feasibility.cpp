// Tests for analysis/feasibility.hpp — the solvability dispatch and the
// classic full-knowledge two-cover condition.
#include "analysis/feasibility.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "graph/cuts.hpp"
#include "graph/generators.hpp"
#include "tests/test_util.hpp"

namespace rmt::analysis {
namespace {

using testing::structure;

TEST(TwoCover, GlobalThresholdNeeds2tPlus1Connectivity) {
  // Dolev's bound, recovered from the general condition: with a global-t
  // adversary, RMT is possible iff D,R are (2t+1)-connected.
  for (std::size_t width = 1; width <= 5; ++width) {
    const Graph g = generators::layered_graph(2, width);
    const NodeId r = NodeId(g.num_nodes() - 1);
    NodeSet middle = g.nodes();
    middle.erase(0);
    middle.erase(r);
    for (std::size_t t = 1; t <= 2; ++t) {
      const auto z = threshold_structure(middle, t);
      EXPECT_EQ(solvable_full_knowledge(g, z, 0, r), width >= 2 * t + 1)
          << "width=" << width << " t=" << t;
    }
  }
}

TEST(TwoCover, WitnessSeparates) {
  const Graph g = generators::cycle_graph(6);
  const auto z = structure({NodeSet{1, 2}, NodeSet{4}});
  const auto w = find_two_cover_cut(g, z, 0, 3);
  ASSERT_TRUE(w.has_value());
  EXPECT_TRUE(z.contains(w->z1));
  EXPECT_TRUE(z.contains(w->z2));
}

TEST(TwoCover, AsymmetricStructure) {
  // Z = {{1,2},{4,5}} on parallel 2-hop paths: {1,2} ∪ {4,5}? Graph:
  // D=0, paths 0-1-2-R, 0-3-4-R (R=5... use parallel_paths(2,2): ids
  // 1,2 and 3,4, R=5). Union {1,2}∪{3,4} covers both paths → cut.
  const Graph g = generators::parallel_paths(2, 2);
  const auto z = structure({NodeSet{1, 2}, NodeSet{3, 4}});
  EXPECT_FALSE(solvable_full_knowledge(g, z, 0, 5));
  // A third clean path restores solvability.
  const Graph g3 = generators::parallel_paths(3, 2);
  EXPECT_TRUE(solvable_full_knowledge(g3, z, 0, 7));
}

TEST(Solvable, DispatchMatchesCutDeciders) {
  Rng rng(71);
  for (int trial = 0; trial < 30; ++trial) {
    const Instance inst = testing::random_instance(7, 0.3, 3, 2, 1, rng);
    EXPECT_EQ(solvable(inst), !rmt_cut_exists(inst));
    EXPECT_EQ(solvable_by_zcpa(inst), !rmt_zpp_cut_exists(inst));
  }
}

TEST(Solvable, ZcpaImpliesGeneralSolvable) {
  // Z-CPA succeeding implies some safe protocol succeeds, hence no
  // RMT-cut; i.e. solvable_by_zcpa ⇒ solvable, never the reverse
  // implication's counterexamples here (γ may be richer than ad hoc).
  Rng rng(73);
  for (int trial = 0; trial < 40; ++trial) {
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
      const Instance inst = testing::random_instance(6, 0.3, 3, 2, k, rng);
      if (solvable_by_zcpa(inst)) {
        EXPECT_TRUE(solvable(inst)) << inst.to_string();
      }
    }
  }
}

TEST(TwoCover, EndpointsNeverInWitness) {
  // Instance validation keeps D, R out of Z, so no witness may name them.
  Rng rng(79);
  for (int trial = 0; trial < 20; ++trial) {
    const Instance inst = testing::random_instance(7, 0.35, 4, 2, SIZE_MAX, rng);
    const auto w = find_two_cover_cut(inst.graph(), inst.adversary(), inst.dealer(),
                                      inst.receiver());
    if (!w) continue;
    EXPECT_FALSE((w->z1 | w->z2).contains(inst.dealer()));
    EXPECT_FALSE((w->z1 | w->z2).contains(inst.receiver()));
  }
}

bool same_cover(const std::optional<TwoCoverWitness>& a,
                const std::optional<TwoCoverWitness>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->z1 == b->z1 && a->z2 == b->z2);
}

TEST(TwoCover, MatchesRowMajorReferenceAcrossTheWordBoundary) {
  // The shipped scan (pairs i <= j, one machine word per set while every
  // node id is below 64, behind the disjoint-path bound there) against the
  // full row-major NodeSet scan, at graph capacities on both sides of the
  // word boundary. Near-trees make single nodes separating, so both hits
  // and misses occur.
  exec::ThreadPool pool(2);
  for (std::size_t cap : {63u, 64u, 65u, 130u}) {
    Rng rng(83 + cap);
    std::size_t hits = 0, misses = 0;
    for (int trial = 0; trial < 40; ++trial) {
      const Graph g = generators::random_connected_gnp(cap, 1.0 / double(cap), rng);
      // Every other trial puts the endpoints at the top of the id range.
      const NodeId d = trial % 2 ? NodeId(cap - 1) : NodeId(rng.index(cap));
      NodeId r = trial % 2 ? NodeId(cap - 2) : d;
      while (r == d) r = NodeId(rng.index(cap));
      const AdversaryStructure z =
          random_structure(g.nodes(), 2 + rng.index(6), 1 + rng.index(3), NodeSet{d, r}, rng);
      const auto want = find_two_cover_cut_reference(g, z, d, r);
      EXPECT_TRUE(same_cover(find_two_cover_cut(g, z, d, r), want)) << "cap=" << cap;
      EXPECT_TRUE(same_cover(find_two_cover_cut(g, z, d, r, &pool), want)) << "cap=" << cap;
      (want ? hits : misses) += 1;
    }
    EXPECT_GT(hits, 0u) << "cap=" << cap;
    EXPECT_GT(misses, 0u) << "cap=" << cap;
  }
  // Denser graphs at the boundary, where κ(D, R) often exceeds 2·max|Z|
  // (the bound decides below 64 ids) and often does not (the scan decides).
  for (std::size_t cap : {63u, 64u, 65u}) {
    Rng rng(89 + cap);
    std::size_t beyond = 0, within = 0;
    for (int trial = 0; trial < 30; ++trial) {
      const Graph g = generators::random_connected_gnp(cap, 0.02 + 0.02 * double(trial % 4), rng);
      const NodeId d = trial % 2 ? NodeId(cap - 1) : NodeId(rng.index(cap));
      NodeId r = d;
      while (r == d || g.has_edge(d, r)) r = NodeId(rng.index(cap));
      const AdversaryStructure z =
          random_structure(g.nodes(), 2 + rng.index(6), 1 + rng.index(2), NodeSet{d, r}, rng);
      const auto want = find_two_cover_cut_reference(g, z, d, r);
      if (min_vertex_cut(g, d, r) > 2 * z.max_corruption_size()) {
        EXPECT_FALSE(want.has_value()) << "cap=" << cap;  // Menger
        ++beyond;
      } else {
        ++within;
      }
      EXPECT_TRUE(same_cover(find_two_cover_cut(g, z, d, r), want)) << "cap=" << cap;
      EXPECT_TRUE(same_cover(find_two_cover_cut(g, z, d, r, &pool), want)) << "cap=" << cap;
    }
    EXPECT_GT(beyond, 0u) << "cap=" << cap;
    EXPECT_GT(within, 0u) << "cap=" << cap;
  }
}

TEST(TwoCover, GreedyPathsThatBlockEachOtherStayExact) {
  // D=0 and R=5 have two internally disjoint paths, 0-1-3-5 and 0-4-2-5,
  // but the first shortest path the greedy count takes, 0-1-2-5, crosses
  // both: after blocking {1, 2} no path is left, so greedy counts one path
  // for κ = 2. Undercounting only lets the pair scan run, so every answer
  // must still be the reference's, under either endpoint labelling.
  Graph g;
  for (const auto& [a, b] : {std::pair<NodeId, NodeId>{0, 1}, {1, 2}, {2, 5}, {1, 3}, {3, 5},
                             {0, 4}, {4, 2}})
    g.add_edge(a, b);
  ASSERT_EQ(min_vertex_cut(g, 0, 5), 2u);
  exec::ThreadPool pool(2);
  const NodeSet relays{1, 2, 3, 4};
  const std::vector<AdversaryStructure> zs = {
      AdversaryStructure::trivial(), threshold_structure(relays, 1),
      structure({NodeSet{1}, NodeSet{4}}), structure({NodeSet{1, 4}, NodeSet{2}}),
      structure({NodeSet{3}, NodeSet{4}})};
  std::size_t covers = 0;
  for (const AdversaryStructure& z : zs) {
    for (const auto& [d, r] : {std::pair<NodeId, NodeId>{0, 5}, {5, 0}}) {
      const auto want = find_two_cover_cut_reference(g, z, d, r);
      EXPECT_TRUE(same_cover(find_two_cover_cut(g, z, d, r), want)) << z.to_string();
      EXPECT_TRUE(same_cover(find_two_cover_cut(g, z, d, r, &pool), want)) << z.to_string();
      covers += want.has_value();
    }
  }
  EXPECT_GT(covers, 0u);  // {1} ∪ {2} and {1} ∪ {4} cover cuts
}

TEST(TwoCover, DisjointPathBoundDecides) {
  // More than 2·max|Z| internally disjoint D–R paths leave no pair able to
  // cover a cut: k parallel paths against a t-threshold with k > 2t, a
  // complete graph less the D–R edge, and adjacent endpoints (no separator at all). Each
  // answer is nullopt, as the reference's full scan finds.
  exec::ThreadPool pool(2);
  const auto check = [&](const Graph& g, const AdversaryStructure& z, NodeId d, NodeId r) {
    const auto want = find_two_cover_cut_reference(g, z, d, r);
    EXPECT_FALSE(want.has_value()) << z.to_string();
    EXPECT_FALSE(find_two_cover_cut(g, z, d, r).has_value()) << z.to_string();
    EXPECT_FALSE(find_two_cover_cut(g, z, d, r, &pool).has_value()) << z.to_string();
  };
  for (const std::size_t t : {1u, 2u}) {
    const Graph g = generators::parallel_paths(2 * t + 1, 4);
    const NodeId r = NodeId(g.num_nodes() - 1);
    check(g, threshold_structure(g.nodes() - NodeSet{0, r}, t), 0, r);
  }
  Graph k8 = generators::complete_graph(8);
  k8.remove_edge(0, 7);  // κ(0, 7) = 6 > 2·2
  check(k8, threshold_structure(k8.nodes() - NodeSet{0, 7}, 2), 0, 7);
  Graph adjacent = generators::parallel_paths(2, 3);
  const NodeId r = NodeId(adjacent.num_nodes() - 1);
  adjacent.add_edge(0, r);
  check(adjacent, threshold_structure(adjacent.nodes() - NodeSet{0, r}, 3), 0, r);
  // One path short of the bound: 2t parallel paths are covered by two sets.
  const Graph four = generators::parallel_paths(4, 3);
  const NodeId r4 = NodeId(four.num_nodes() - 1);
  const AdversaryStructure t2 = threshold_structure(four.nodes() - NodeSet{0, r4}, 2);
  const auto want = find_two_cover_cut_reference(four, t2, 0, r4);
  ASSERT_TRUE(want.has_value());
  EXPECT_TRUE(same_cover(find_two_cover_cut(four, t2, 0, r4), want));
}

TEST(TwoCover, SingleMaximalSetThatSeparatesAlone) {
  // One maximal set covers a D–R cut on its own: the witness is (M, M),
  // the i == j pair, found before any two-set pair — on both sides of the
  // word boundary, with the cut at the top of the id range.
  for (std::size_t n : {64u, 65u, 128u}) {
    const Graph g = generators::path_graph(n);
    const NodeId r = NodeId(n - 1);
    const AdversaryStructure z = structure({NodeSet{1, 2}, NodeSet{NodeId(n - 2)}});
    const auto w = find_two_cover_cut(g, z, 0, r);
    ASSERT_TRUE(w.has_value()) << "n=" << n;
    EXPECT_EQ(w->z1, w->z2) << "n=" << n;
    EXPECT_TRUE(same_cover(w, find_two_cover_cut_reference(g, z, 0, r))) << "n=" << n;
  }
}

TEST(Analyze, ServedAnswerEqualsAllThreeDecidersUnconditionally) {
  // analyze() skips the decider rmt_solvable implies; its answer must be
  // the unconditional one, and both implications must hold: Z-CPA
  // solvable ⇒ RMT solvable ⇒ full-knowledge solvable.
  Rng rng(89);
  std::size_t rmt_solvable = 0, rmt_unsolvable = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t k = trial % 4 == 3 ? SIZE_MAX : std::size_t(trial % 4);
    const Instance inst = testing::random_instance(7, 0.3, 3, 2, k, rng);
    const Analysis got = analyze(inst);
    const Analysis want = analyze_reference(inst);
    EXPECT_EQ(got.rmt_cut.has_value(), want.rmt_cut.has_value()) << inst.to_string();
    if (got.rmt_cut && want.rmt_cut) {
      EXPECT_EQ(got.rmt_cut->c1, want.rmt_cut->c1);
      EXPECT_EQ(got.rmt_cut->c2, want.rmt_cut->c2);
      EXPECT_EQ(got.rmt_cut->b, want.rmt_cut->b);
    }
    EXPECT_EQ(got.zcpa_solvable, want.zcpa_solvable) << inst.to_string();
    EXPECT_EQ(got.full_knowledge_solvable, want.full_knowledge_solvable) << inst.to_string();
    if (want.zcpa_solvable) {
      EXPECT_FALSE(want.rmt_cut.has_value()) << inst.to_string();
    }
    if (!want.rmt_cut) {
      EXPECT_TRUE(want.full_knowledge_solvable) << inst.to_string();
    }
    (want.rmt_cut ? rmt_unsolvable : rmt_solvable) += 1;
  }
  EXPECT_GT(rmt_solvable, 0u);
  EXPECT_GT(rmt_unsolvable, 0u);
}

}  // namespace
}  // namespace rmt::analysis
