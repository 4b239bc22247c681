// Unit tests for the RMT-PKA decision subroutine (protocols/pka_decision.hpp)
// on hand-crafted receiver states — the full-message-set and adversary-cover
// machinery of Definitions 4–6, isolated from the network.
#include "protocols/pka_decision.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "adversary/threshold.hpp"
#include "check/reference_pka_decision.hpp"
#include "graph/generators.hpp"
#include "protocols/rmt_pka.hpp"
#include "tests/test_util.hpp"

namespace rmt::protocols {
namespace {

using testing::structure;

// Fixture: path 0-1-2 (D=0, R=2), Z = {{1}} or trivial, ad hoc views.
struct PathFixture {
  Graph g = generators::path_graph(3);
  NodeId d = 0, r = 2;

  NodeReport report(NodeId v, const AdversaryStructure& z) const {
    Graph star;
    star.add_node(v);
    g.neighbors(v).for_each([&](NodeId u) { star.add_edge(v, u); });
    return NodeReport{v, star, z.restricted_to(star.nodes())};
  }

  DecisionInput input(const AdversaryStructure& z) const {
    DecisionInput in;
    in.dealer = d;
    in.receiver = r;
    in.receiver_knowledge.self = r;
    Graph rstar;
    rstar.add_edge(1, 2);
    in.receiver_knowledge.view = rstar;
    in.receiver_knowledge.local_z = z.restricted_to(rstar.nodes());
    return in;
  }
};

TEST(PkaDecision, DealerRuleShortCircuits) {
  PathFixture f;
  DecisionInput in = f.input(AdversaryStructure::trivial());
  in.direct_value = 42;
  EXPECT_EQ(pka_decide(in, DeciderMode::kExhaustive, {}), 42u);
}

TEST(PkaDecision, NoType1NoDecision) {
  PathFixture f;
  DecisionInput in = f.input(AdversaryStructure::trivial());
  in.reports[0].push_back(f.report(0, AdversaryStructure::trivial()));
  EXPECT_EQ(pka_decide(in, DeciderMode::kExhaustive, {}), std::nullopt);
}

TEST(PkaDecision, HonestFullSetDecides) {
  // Trivial adversary: the single path delivered, all reports truthful —
  // no cover can exist (every candidate C ∩ V(γ(B)) is non-empty but the
  // joint structure only contains ∅).
  PathFixture f;
  const auto z = AdversaryStructure::trivial();
  DecisionInput in = f.input(z);
  in.type1[5].insert(Path{0, 1, 2});
  in.reports[0].push_back(f.report(0, z));
  in.reports[1].push_back(f.report(1, z));
  EXPECT_EQ(pka_decide(in, DeciderMode::kExhaustive, {}), 5u);
  EXPECT_EQ(pka_decide(in, DeciderMode::kGreedy, {}), 5u);
}

TEST(PkaDecision, CorruptibleBottleneckIsCovered) {
  // Same wire state but {1} ∈ Z: C = {1} is an adversary cover for the
  // only possible full set — the receiver must abstain (the instance has
  // an RMT-cut, deciding would be unsafe).
  PathFixture f;
  const auto z = structure({NodeSet{1}});
  DecisionInput in = f.input(z);
  in.type1[5].insert(Path{0, 1, 2});
  in.reports[0].push_back(f.report(0, z));
  in.reports[1].push_back(f.report(1, z));
  EXPECT_EQ(pka_decide(in, DeciderMode::kExhaustive, {}), std::nullopt);
  EXPECT_EQ(pka_decide(in, DeciderMode::kGreedy, {}), std::nullopt);
}

TEST(PkaDecision, ExhaustiveSearchRecoversFromAMissingPath) {
  // Two-path graph (cycle 0-1-2-3), Z = {{3}}, and the corruptible node 3
  // stayed silent: the snapshot-wide M is not full (the 0-3-2 path never
  // delivered). The exhaustive search must drop 3 and decide from the
  // smaller full set {0,1,2} — which is cover-free, because R's own Z_R
  // knows node 1 cannot be corrupted. This mirrors the sufficiency proof:
  // the honest M is built from honest-reachable nodes only.
  const Graph g = generators::cycle_graph(4);
  const auto z = structure({NodeSet{3}});
  DecisionInput in;
  in.dealer = 0;
  in.receiver = 2;
  in.receiver_knowledge.self = 2;
  Graph rview;
  rview.add_edge(1, 2);
  rview.add_edge(3, 2);
  in.receiver_knowledge.view = rview;
  in.receiver_knowledge.local_z = z.restricted_to(rview.nodes());
  auto star = [&](NodeId v) {
    Graph s;
    s.add_node(v);
    g.neighbors(v).for_each([&](NodeId u) { s.add_edge(v, u); });
    return NodeReport{v, s, z.restricted_to(s.nodes())};
  };
  in.reports[0].push_back(star(0));
  in.reports[1].push_back(star(1));
  in.reports[3].push_back(star(3));
  in.type1[9].insert(Path{0, 1, 2});  // path through 3 never delivered
  EXPECT_EQ(pka_decide(in, DeciderMode::kExhaustive, {}), 9u);
}

TEST(PkaDecision, TwoHonestPathsDecideDespiteOneCorruptible) {
  // Cycle 0-1-2-3, Z = {{1}}: both paths delivered the same value; the
  // only cover candidates C ⊆ {1,3} fail because R's own structure knows
  // {3} is honest and {1,3} ⊅…: {1} alone does not cut both paths.
  const Graph g = generators::cycle_graph(4);
  const auto z = structure({NodeSet{1}});
  DecisionInput in;
  in.dealer = 0;
  in.receiver = 2;
  in.receiver_knowledge.self = 2;
  Graph rview;
  rview.add_edge(1, 2);
  rview.add_edge(3, 2);
  in.receiver_knowledge.view = rview;
  in.receiver_knowledge.local_z = z.restricted_to(rview.nodes());
  auto star = [&](NodeId v) {
    Graph s;
    s.add_node(v);
    g.neighbors(v).for_each([&](NodeId u) { s.add_edge(v, u); });
    return NodeReport{v, s, z.restricted_to(s.nodes())};
  };
  in.reports[0].push_back(star(0));
  in.reports[1].push_back(star(1));
  in.reports[3].push_back(star(3));
  in.type1[9].insert(Path{0, 1, 2});
  in.type1[9].insert(Path{0, 3, 2});
  EXPECT_EQ(pka_decide(in, DeciderMode::kExhaustive, {}), 9u);
}

TEST(PkaDecision, ConflictingVersionsBranch) {
  // The adversary also supplies a fake report for honest node 1 claiming a
  // fake topology. The honest snapshot still exists as one branch, so the
  // exhaustive decider must still decide.
  PathFixture f;
  const auto z = AdversaryStructure::trivial();
  DecisionInput in = f.input(z);
  in.type1[5].insert(Path{0, 1, 2});
  in.reports[0].push_back(f.report(0, z));
  in.reports[1].push_back(f.report(1, z));
  Graph fake;
  fake.add_node(1);
  fake.add_edge(1, 0);
  in.reports[1].push_back(NodeReport{1, fake, AdversaryStructure::trivial()});
  EXPECT_EQ(pka_decide(in, DeciderMode::kExhaustive, {}), 5u);
}

TEST(PkaDecision, ReceiverOwnTruthPinsSubjectR) {
  // A forged report about R itself must never displace ground truth: the
  // forged version claims R has no edge to 1, which would kill the path.
  PathFixture f;
  const auto z = AdversaryStructure::trivial();
  DecisionInput in = f.input(z);
  in.type1[5].insert(Path{0, 1, 2});
  in.reports[0].push_back(f.report(0, z));
  in.reports[1].push_back(f.report(1, z));
  Graph fake_r;
  fake_r.add_node(2);
  in.reports[2].push_back(NodeReport{2, fake_r, AdversaryStructure::trivial()});
  EXPECT_EQ(pka_decide(in, DeciderMode::kExhaustive, {}), 5u);
}

TEST(PkaDecision, PhantomWorldIsCoveredByTheTruth) {
  // Fictitious second path 0-9-2 (phantom 9) carrying a lie, with a
  // claimed trivial structure; the true world is the 0-1-2 path with
  // {1} corruptible. Safety: neither value may be decided —
  //  * the lie's full set is covered by C = {1}… no wait: the lie needs
  //    node 1 excluded; its G_M = 0-9-2 and C = {9}? 9's claimed Z is
  //    trivial, but R's OWN Z_R = Z^{{1,2}} ∋ ∅ only… the cover must come
  //    from B = {2}'s knowledge: C = {9} ∩ V(γ(B)): R's view does not even
  //    contain 9 ⇒ intersection ∅ ∈ Z_B ⇒ covered. Abstain.
  //  * the truth 0-1-2 is covered by {1} as before. Abstain.
  PathFixture f;
  const auto z = structure({NodeSet{1}});
  DecisionInput in = f.input(z);
  in.type1[5].insert(Path{0, 1, 2});   // truth
  in.type1[6].insert(Path{0, 9, 2});   // phantom lie
  in.reports[0].push_back(f.report(0, z));
  in.reports[1].push_back(f.report(1, z));
  Graph phantom_view;
  phantom_view.add_edge(0, 9);
  phantom_view.add_edge(9, 2);
  in.reports[9].push_back(NodeReport{9, phantom_view, AdversaryStructure::trivial()});
  EXPECT_EQ(pka_decide(in, DeciderMode::kExhaustive, {}), std::nullopt);
  EXPECT_EQ(pka_decide(in, DeciderMode::kGreedy, {}), std::nullopt);
}

TEST(PkaDecision, StatsAreAccounted) {
  PathFixture f;
  const auto z = AdversaryStructure::trivial();
  DecisionInput in = f.input(z);
  in.type1[5].insert(Path{0, 1, 2});
  in.reports[0].push_back(f.report(0, z));
  in.reports[1].push_back(f.report(1, z));
  DeciderStats stats;
  pka_decide(in, DeciderMode::kExhaustive, {}, &stats);
  EXPECT_GT(stats.snapshots, 0u);
  EXPECT_GT(stats.subsets_tried, 0u);
  EXPECT_GT(stats.fullness_checks, 0u);
  EXPECT_FALSE(stats.budget_exhausted);
}

TEST(PkaDecision, SubsetBudgetAbstains) {
  PathFixture f;
  const auto z = AdversaryStructure::trivial();
  DecisionInput in = f.input(z);
  in.type1[5].insert(Path{0, 1, 2});
  in.reports[0].push_back(f.report(0, z));
  in.reports[1].push_back(f.report(1, z));
  // The budget counts V_M candidates tested: none abstains, and the first
  // one — all subjects, the honest M — decides.
  DeciderLimits limits;
  limits.max_subsets = 0;
  DeciderStats stats;
  EXPECT_EQ(pka_decide(in, DeciderMode::kExhaustive, limits, &stats), std::nullopt);
  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_EQ(stats.subsets_tried, 0u);
  limits.max_subsets = 1;
  DeciderStats one;
  EXPECT_EQ(pka_decide(in, DeciderMode::kExhaustive, limits, &one), 5u);
  EXPECT_FALSE(one.budget_exhausted);
  EXPECT_EQ(one.subsets_tried, 1u);
}

TEST(PkaDecision, SnapshotBudgetAbstains) {
  // Path 0-1-2-3 (R = 3): the edge {1,2} is witnessed only by the views of
  // nodes 1 and 2, so the snapshot's choice of node 1's version decides
  // whether G_M has a D–R path at all. The adversary plants fake versions
  // ahead of the honest one: a snapshot budget smaller than the honest
  // version's position must abstain (and flag the budget); a sufficient
  // budget must reach it and decide.
  const Graph g = generators::path_graph(4);
  const auto z = AdversaryStructure::trivial();
  DecisionInput in;
  in.dealer = 0;
  in.receiver = 3;
  in.receiver_knowledge.self = 3;
  Graph rview;
  rview.add_edge(2, 3);
  in.receiver_knowledge.view = rview;
  in.receiver_knowledge.local_z = AdversaryStructure::trivial();
  auto star = [&](NodeId v) {
    Graph s;
    s.add_node(v);
    g.neighbors(v).for_each([&](NodeId u) { s.add_edge(v, u); });
    return NodeReport{v, s, AdversaryStructure::trivial()};
  };
  in.type1[5].insert(Path{0, 1, 2, 3});
  in.reports[0].push_back(star(0));
  // The edge {1,2} is witnessed only by nodes 1 and 2 (the dealer's and
  // receiver's stars don't contain it). Plant fakes *for both* ahead of
  // the honest versions, so every early snapshot lacks the edge entirely.
  for (NodeId junk = 10; junk < 13; ++junk) {
    Graph fake1;
    fake1.add_edge(1, 0);
    fake1.add_node(junk);
    in.reports[1].push_back(NodeReport{1, fake1, AdversaryStructure::trivial()});
    Graph fake2;
    fake2.add_edge(2, 3);
    fake2.add_node(junk);
    in.reports[2].push_back(NodeReport{2, fake2, AdversaryStructure::trivial()});
  }
  in.reports[1].push_back(star(1));
  in.reports[2].push_back(star(2));

  DeciderLimits tight;
  tight.max_snapshots = 2;  // never reaches an honest version of 1 or 2
  DeciderStats stats;
  EXPECT_EQ(pka_decide(in, DeciderMode::kExhaustive, tight, &stats), std::nullopt);
  EXPECT_TRUE(stats.budget_exhausted);

  DeciderLimits ample;
  ample.max_snapshots = 16;
  DeciderStats stats2;
  EXPECT_EQ(pka_decide(in, DeciderMode::kExhaustive, ample, &stats2), 5u);
}

TEST(PkaDecision, TwoCandidateValuesOnlyTruthSurvives) {
  // The adversary delivers a competing value over a forged second path;
  // with trivial Z the truth's set is full and cover-free while the lie's
  // path never fits a full set (its fake relay has no report).
  PathFixture f;
  const auto z = AdversaryStructure::trivial();
  DecisionInput in = f.input(z);
  in.type1[5].insert(Path{0, 1, 2});   // truth via real node 1
  in.type1[6].insert(Path{0, 42, 2});  // lie via phantom 42, no type-2 for 42
  in.reports[0].push_back(f.report(0, z));
  in.reports[1].push_back(f.report(1, z));
  EXPECT_EQ(pka_decide(in, DeciderMode::kExhaustive, {}), 5u);
}

TEST(PkaDecision, DecidedWitnessNamesTheTrustedSet) {
  PathFixture f;
  const auto z = AdversaryStructure::trivial();
  DecisionInput in = f.input(z);
  in.type1[5].insert(Path{0, 1, 2});
  in.reports[0].push_back(f.report(0, z));
  in.reports[1].push_back(f.report(1, z));
  DeciderStats stats;
  ASSERT_EQ(pka_decide(in, DeciderMode::kExhaustive, {}, &stats), 5u);
  ASSERT_TRUE(stats.decided_vm.has_value());
  EXPECT_EQ(*stats.decided_vm, (NodeSet{0, 1, 2}));
  DeciderStats greedy_stats;
  ASSERT_EQ(pka_decide(in, DeciderMode::kGreedy, {}, &greedy_stats), 5u);
  EXPECT_TRUE(greedy_stats.decided_vm.has_value());
}

TEST(PkaDecision, MissingDealerReportBlocksDecision) {
  PathFixture f;
  const auto z = AdversaryStructure::trivial();
  DecisionInput in = f.input(z);
  in.type1[5].insert(Path{0, 1, 2});
  in.reports[1].push_back(f.report(1, z));  // no report for D
  EXPECT_EQ(pka_decide(in, DeciderMode::kExhaustive, {}), std::nullopt);
}

// ---- differential: pka_decide against the kept reference -------------------

/// A generated receiver state plus the limits to decide it under.
struct GeneratedInput {
  DecisionInput in;
  DeciderLimits limits;
};

/// A structure a liar might claim over `view`'s nodes.
AdversaryStructure forged_structure(const Graph& view, Rng& rng) {
  switch (rng.index(4)) {
    case 0: return AdversaryStructure::trivial();
    case 1: return AdversaryStructure();  // the empty family
    case 2: return AdversaryStructure::from_sets({view.nodes()});
    default: return random_structure(view.nodes(), 1 + rng.index(3), 1 + rng.index(2), {}, rng);
  }
}

/// Structure-aware DecisionInput generator: the honest reports and trails
/// of a random instance, minus some, plus forged versions (edited honest
/// views, phantom subjects, lying structures) and forged trails, under
/// limits set at the max_subsets / max_snapshots edges where a branch
/// flips between search and abstention.
GeneratedInput generate_input(Rng& rng) {
  const std::size_t n = 4 + rng.index(5);
  const std::size_t radius[] = {0, 1, 2, SIZE_MAX};
  const Instance inst = testing::random_instance(n, 0.3 + 0.1 * double(rng.index(4)),
                                                 1 + rng.index(4), 1 + rng.index(2),
                                                 radius[rng.index(4)], rng);
  const Graph& g = inst.graph();
  GeneratedInput out;
  DecisionInput& in = out.in;
  in.dealer = inst.dealer();
  in.receiver = inst.receiver();
  in.receiver_knowledge = inst.knowledge_of(in.receiver);
  const auto add_version = [&](NodeId u, Graph view, AdversaryStructure z) {
    auto& versions = in.reports[u];
    NodeReport rep{u, std::move(view), std::move(z)};
    if (std::find(versions.begin(), versions.end(), rep) == versions.end())
      versions.push_back(std::move(rep));
  };
  g.nodes().for_each([&](NodeId v) {
    if (v == in.dealer || rng.index(8) != 0) {
      const LocalKnowledge lk = inst.knowledge_of(v);
      add_version(v, lk.view, lk.local_z);
    }
  });
  const NodeId phantom = NodeId(n);
  for (std::size_t k = rng.index(4); k-- > 0;) {
    const NodeId u = rng.index(4) == 0 ? NodeId(phantom + rng.index(2)) : NodeId(rng.index(n));
    Graph view;
    if (u < n && rng.index(2) == 0) view = inst.knowledge_of(u).view;  // an edited honest view
    view.add_node(u);
    for (std::size_t e = 1 + rng.index(3); e-- > 0;) {
      const NodeId a = rng.index(2) == 0 ? u : NodeId(rng.index(n + 2));
      const NodeId b = NodeId(rng.index(n + 2));
      if (a == b) continue;
      if (view.has_edge(a, b)) view.remove_edge(a, b);
      else view.add_edge(a, b);
    }
    add_version(u, view, forged_structure(view, rng));
  }
  // The delivered trails: most honest D–R paths, and a few forgeries
  // (random walks, possibly through phantoms) for the same or another value.
  const sim::Value x = 5;
  enumerate_simple_paths(
      g, in.dealer, in.receiver,
      [&](const Path& p) {
        if (rng.index(4) != 0) in.type1[x].insert(p);
        return true;
      },
      64);
  for (std::size_t k = rng.index(3); k-- > 0;) {
    Path p{in.dealer};
    for (std::size_t hops = 1 + rng.index(3); hops-- > 0;) {
      const NodeId v = NodeId(rng.index(n + 2));
      if (std::find(p.begin(), p.end(), v) == p.end() && v != in.receiver) p.push_back(v);
    }
    p.push_back(in.receiver);
    in.type1[rng.index(3) == 0 ? x + 1 : x].insert(p);
  }
  if (rng.index(20) == 0) in.direct_value = x;

  // Limits: at the edges of the two budgets about half the time. The V_M
  // budget's edges are none, one, and what either side's exhaustive search
  // tests when it is unbounded (or one fewer).
  std::size_t snapshots = 1;  // R is pinned: one version
  for (const auto& [u, versions] : in.reports)
    if (u != in.receiver) snapshots *= versions.size();
  const auto subsets_needed = [&](RmtPka::DecideFn decide) {
    DeciderLimits unbounded;
    unbounded.max_subsets = SIZE_MAX;
    DeciderStats stats;
    decide(in, DeciderMode::kExhaustive, unbounded, &stats);
    return stats.subsets_tried - (stats.subsets_tried > 0 ? rng.index(2) : 0);
  };
  switch (rng.index(7)) {
    case 0: out.limits.max_subsets = rng.index(2); break;
    case 1: out.limits.max_subsets = subsets_needed(pka_decide); break;
    case 2: out.limits.max_subsets = subsets_needed(propcheck::reference_pka_decide); break;
    case 3: out.limits.max_snapshots = snapshots; break;
    case 4: out.limits.max_snapshots = snapshots == 0 ? 0 : snapshots - 1; break;
    case 5:
      out.limits.max_paths = 1 + rng.index(4);
      out.limits.max_cover_sets = 1 + rng.index(8);
      break;
    default: break;
  }
  return out;
}

/// Whether some choice of one version per member of `vm` makes (vm, x) a
/// full, cover-free message set by the reference's own definitions.
bool reference_accepts(const DecisionInput& in, sim::Value x, const NodeSet& vm) {
  std::vector<NodeId> members;
  vm.for_each([&](NodeId u) {
    if (u != in.receiver && in.reports.count(u)) members.push_back(u);
  });
  std::vector<std::size_t> idx(members.size(), 0);
  for (;;) {
    DecisionInput one = in;
    for (std::size_t i = 0; i < members.size(); ++i)
      one.reports[members[i]] = {in.reports.at(members[i])[idx[i]]};
    const auto judged = propcheck::reference_judge(one, x, vm);
    if (judged.full() && !judged.covered) return true;
    std::size_t i = 0;
    while (i < idx.size() && ++idx[i] == in.reports.at(members[i]).size()) idx[i++] = 0;
    if (i == idx.size()) return false;
  }
}

/// In both modes a decided V_M must be full and cover-free by the
/// reference's definitions. Where neither side ran out of budget, greedy
/// mode gives the same decision and the same DeciderStats, field by field;
/// exhaustive mode searches differently, so only its decision is compared.
/// A side's budget can run out alone: the shipped cover scan skips the B
/// below a failing locked boundary, so its max_cover_sets binds later.
/// Returns whether the decisions were compared.
bool expect_same_as_reference(const GeneratedInput& gen, DeciderMode mode,
                              const std::string& what) {
  DeciderStats got, want;
  const auto decided = pka_decide(gen.in, mode, gen.limits, &got);
  const auto expected = propcheck::reference_pka_decide(gen.in, mode, gen.limits, &want);
  if (decided && !gen.in.direct_value) {
    EXPECT_TRUE(got.decided_vm.has_value()) << what;
    if (got.decided_vm) {
      EXPECT_TRUE(reference_accepts(gen.in, *decided, *got.decided_vm)) << what;
    }
  }
  if (got.budget_exhausted || want.budget_exhausted) return false;
  EXPECT_EQ(decided, expected) << what;
  if (mode == DeciderMode::kExhaustive) return true;
  EXPECT_EQ(got.snapshots, want.snapshots) << what;
  EXPECT_EQ(got.subsets_tried, want.subsets_tried) << what;
  EXPECT_EQ(got.fullness_checks, want.fullness_checks) << what;
  EXPECT_EQ(got.cover_checks, want.cover_checks) << what;
  EXPECT_EQ(got.budget_exhausted, want.budget_exhausted) << what;
  EXPECT_EQ(got.decided_vm, want.decided_vm) << what;
  return true;
}

TEST(PkaDecision, MatchesTheReferenceOnGeneratedInputs) {
  Rng rng(2016);
  std::size_t decided = 0, abstained = 0, exhausted = 0, forged = 0, compared = 0;
  for (int i = 0; i < 1500; ++i) {
    const GeneratedInput gen = generate_input(rng);
    for (const DeciderMode mode : {DeciderMode::kExhaustive, DeciderMode::kGreedy}) {
      compared += expect_same_as_reference(
          gen, mode, "input " + std::to_string(i) + " mode " + std::to_string(int(mode)));
      DeciderStats stats;
      const auto d = pka_decide(gen.in, mode, gen.limits, &stats);
      ++(d ? decided : abstained);
      exhausted += stats.budget_exhausted;
    }
    for (const auto& [u, versions] : gen.in.reports) forged += versions.size() > 1;
  }
  // The generator reaches every branch of the search.
  EXPECT_GT(decided, 50u);
  EXPECT_GT(abstained, 50u);
  EXPECT_GT(exhausted, 20u);
  EXPECT_GT(forged, 50u);
  EXPECT_GT(compared, 2000u);
}

TEST(PkaDecision, FullnessAndCoversAreDownwardClosed) {
  // The two lemmas behind the exact search, for V' ⊆ V both holding D and
  // R: G_M(V') is a subgraph of G_M(V), so every D–R path of G_M(V') was
  // delivered when V is full; and a cover of G_M(V) restricts to one of
  // G_M(V').
  Rng rng(2017);
  std::size_t full = 0, covered = 0;
  for (int i = 0; i < 600; ++i) {
    const GeneratedInput gen = generate_input(rng);
    const DecisionInput& in = gen.in;
    NodeSet v{in.dealer, in.receiver};
    for (const auto& [u, versions] : in.reports)
      if (rng.index(4) != 0) v.insert(u);
    for (const auto& [x, trails] : in.type1) {
      const auto whole = propcheck::reference_judge(in, x, v);
      full += whole.full();
      covered += whole.covered;
      for (int k = 0; k < 4; ++k) {
        NodeSet sub{in.dealer, in.receiver};
        v.for_each([&](NodeId u) {
          if (rng.index(2) == 0) sub.insert(u);
        });
        const auto part = propcheck::reference_judge(in, x, sub);
        const std::string what = "input " + std::to_string(i) + " V=" + v.to_string() +
                                 " V'=" + sub.to_string();
        if (whole.full()) {
          EXPECT_EQ(part.undelivered, 0u) << what;
        }
        if (whole.covered) {
          EXPECT_TRUE(part.covered) << what;
        }
      }
    }
  }
  EXPECT_GT(full, 50u);
  EXPECT_GT(covered, 50u);
}

TEST(PkaDecision, MatchesTheReferenceOnTheHandBuiltStates) {
  // The fixtures above, through both deciders: a forged report about R,
  // a phantom world, and conflicting versions.
  PathFixture f;
  const auto z = structure({NodeSet{1}});
  GeneratedInput gen;
  gen.in = f.input(z);
  gen.in.type1[5].insert(Path{0, 1, 2});
  gen.in.type1[6].insert(Path{0, 9, 2});
  gen.in.reports[0].push_back(f.report(0, z));
  gen.in.reports[1].push_back(f.report(1, z));
  Graph phantom_view;
  phantom_view.add_edge(0, 9);
  phantom_view.add_edge(9, 2);
  gen.in.reports[9].push_back(NodeReport{9, phantom_view, AdversaryStructure::trivial()});
  Graph fake_r;
  fake_r.add_node(2);
  gen.in.reports[2].push_back(NodeReport{2, fake_r, AdversaryStructure()});
  for (const DeciderMode mode : {DeciderMode::kExhaustive, DeciderMode::kGreedy})
    expect_same_as_reference(gen, mode, "phantom world");
}

}  // namespace
}  // namespace rmt::protocols
