// End-to-end tests for RMT-PKA (protocols/rmt_pka.hpp) — Theorems 4 + 5
// and Corollary 6 exercised through the simulator: safety everywhere,
// resilience exactly where no RMT-cut exists.
#include "protocols/rmt_pka.hpp"

#include <gtest/gtest.h>

#include "analysis/rmt_cut.hpp"
#include "check/reference_pka_decision.hpp"
#include "graph/generators.hpp"
#include "protocols/runner.hpp"
#include "sim/strategies.hpp"
#include "tests/test_util.hpp"

namespace rmt::protocols {
namespace {

using testing::structure;

TEST(RmtPka, DealerRuleOnAdjacentReceiver) {
  const Graph g = generators::complete_graph(3);
  const Instance inst = Instance::ad_hoc(g, structure({NodeSet{1}}), 0, 2);
  sim::ValueFlipStrategy lie;
  const Outcome out = run_rmt(inst, RmtPka{}, 3, NodeSet{1}, &lie);
  EXPECT_TRUE(out.correct);
}

TEST(RmtPka, FaultFreeMultiHopDelivery) {
  const Graph g = generators::cycle_graph(6);
  const Instance inst = Instance::ad_hoc(g, structure({NodeSet{1}}), 0, 3);
  const Outcome out = run_rmt(inst, RmtPka{}, 11, NodeSet{});
  EXPECT_TRUE(out.correct);
}

TEST(RmtPka, DeliversOnCycleAgainstActiveLiar) {
  // Cycle, Z = {{1}}: solvable ad hoc (R's own structure clears node 5's
  // arc). The liar floods wrong values and forged trails.
  const Graph g = generators::cycle_graph(6);
  const Instance inst = Instance::ad_hoc(g, structure({NodeSet{1}}), 0, 3);
  ASSERT_FALSE(analysis::rmt_cut_exists(inst));
  for (auto* name : {"flip", "twofaced", "phantom"}) {
    sim::ValueFlipStrategy flip;
    sim::TwoFacedStrategy twofaced;
    sim::FictitiousWorldStrategy phantom;
    sim::AdversaryStrategy* s = std::string(name) == "flip"
                                    ? static_cast<sim::AdversaryStrategy*>(&flip)
                                : std::string(name) == "twofaced"
                                    ? static_cast<sim::AdversaryStrategy*>(&twofaced)
                                    : static_cast<sim::AdversaryStrategy*>(&phantom);
    const Outcome out = run_rmt(inst, RmtPka{}, 11, NodeSet{1}, s);
    EXPECT_TRUE(out.correct) << name;
  }
}

TEST(RmtPka, TriplePathWithTwoHopKnowledgeDelivers) {
  // THE paper headline, operational: ad hoc RMT-PKA cannot (no safe
  // protocol can), but under γ = 2-hop the same wire protocol succeeds.
  const Graph g = generators::parallel_paths(3, 2);
  const auto z = structure({NodeSet{1}, NodeSet{3}, NodeSet{5}});
  const NodeId r = NodeId(g.num_nodes() - 1);
  const Instance k2(g, z, ViewFunction::k_hop(g, 2), 0, r);
  ASSERT_FALSE(analysis::rmt_cut_exists(k2));
  for (NodeId liar : {1u, 3u, 5u}) {
    sim::TwoFacedStrategy attack;
    const Outcome out = run_rmt(k2, RmtPka{}, 5, NodeSet{liar}, &attack);
    EXPECT_TRUE(out.correct) << "liar=" << liar;
  }
  // Ad hoc: must abstain (instance has an RMT-cut), and stay safe.
  const Instance adhoc = Instance::ad_hoc(g, z, 0, r);
  ASSERT_TRUE(analysis::rmt_cut_exists(adhoc));
  sim::TwoFacedStrategy attack;
  const Outcome out = run_rmt(adhoc, RmtPka{}, 5, NodeSet{3}, &attack);
  EXPECT_FALSE(out.wrong);
  EXPECT_FALSE(out.decision.has_value());
}

TEST(RmtPka, SafetySweep) {
  // Theorem 4, operational: across random instances (any knowledge
  // level), admissible corruptions and the whole strategy suite, the
  // receiver never outputs a wrong value.
  Rng rng(127);
  std::size_t runs = 0;
  for (int trial = 0; trial < 10; ++trial) {
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, SIZE_MAX}) {
      const Instance inst = testing::random_instance(6, 0.3, 2, 2, k, rng);
      for (const NodeSet& t : inst.adversary().maximal_sets()) {
        if (t.empty()) continue;
        sim::SilentStrategy silent;
        sim::ValueFlipStrategy flip;
        sim::RandomLieStrategy chaos(rng.fork(runs), 3);
        sim::FictitiousWorldStrategy phantom;
        sim::TwoFacedStrategy twofaced;
        for (sim::AdversaryStrategy* s : std::vector<sim::AdversaryStrategy*>{
                 &silent, &flip, &chaos, &phantom, &twofaced}) {
          const Outcome out = run_rmt(inst, RmtPka{}, 5, t, s);
          ASSERT_FALSE(out.wrong)
              << inst.to_string() << " T=" << t.to_string() << " strategy#" << runs;
          ++runs;
        }
      }
    }
  }
  EXPECT_GT(runs, 50u);
}

TEST(RmtPka, UniquenessAgreementSweep) {
  // Corollary 6, operational: on solvable instances (no RMT-cut) RMT-PKA
  // delivers against every admissible corruption and strategy; on
  // unsolvable ones it abstains under the worst-case silent cut.
  Rng rng(131);
  std::size_t solvable_checked = 0;
  for (int trial = 0; trial < 12; ++trial) {
    for (std::size_t k : {std::size_t{0}, std::size_t{1}}) {
      const Instance inst = testing::random_instance(6, 0.35, 2, 1, k, rng);
      const bool ok = !analysis::rmt_cut_exists(inst);
      for (const NodeSet& t : inst.adversary().maximal_sets()) {
        sim::SilentStrategy silent;
        sim::TwoFacedStrategy twofaced;
        for (sim::AdversaryStrategy* s : std::vector<sim::AdversaryStrategy*>{
                 &silent, &twofaced}) {
          const Outcome out = run_rmt(inst, RmtPka{}, 5, t, s);
          if (ok) {
            EXPECT_TRUE(out.correct)
                << inst.to_string() << " T=" << t.to_string();
            ++solvable_checked;
          } else {
            EXPECT_FALSE(out.wrong) << inst.to_string();
          }
        }
      }
    }
  }
  EXPECT_GT(solvable_checked, 0u);
}

TEST(RmtPka, GreedyDeciderIsSafeAndUsuallyDecides) {
  Rng rng(137);
  for (int trial = 0; trial < 10; ++trial) {
    const Instance inst = testing::random_instance(6, 0.4, 2, 1, 1, rng);
    if (analysis::rmt_cut_exists(inst)) continue;
    const Outcome fault_free = run_rmt(inst, RmtPka{DeciderMode::kGreedy}, 8, NodeSet{});
    EXPECT_TRUE(fault_free.correct) << inst.to_string();
    for (const NodeSet& t : inst.adversary().maximal_sets()) {
      sim::ValueFlipStrategy flip;
      const Outcome out = run_rmt(inst, RmtPka{DeciderMode::kGreedy}, 8, t, &flip);
      EXPECT_FALSE(out.wrong) << inst.to_string();
    }
  }
}

TEST(RmtPka, SubsumesZcpaOnItsOwnTurf) {
  // Wherever Z-CPA succeeds (ad hoc, no Z-pp cut), the unique protocol
  // must succeed as well — RMT-PKA "encompasses earlier algorithms".
  const Graph g = generators::parallel_paths(3, 1);
  const auto z = threshold_structure(NodeSet{1, 2, 3}, 1);
  const Instance inst = Instance::ad_hoc(g, z, 0, 4);
  sim::ValueFlipStrategy lie;
  const Outcome out = run_rmt(inst, RmtPka{}, 6, NodeSet{2}, &lie);
  EXPECT_TRUE(out.correct);
}

TEST(RmtPka, MessageComplexityIsTracked) {
  const Graph g = generators::cycle_graph(5);
  const Instance inst = Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, 2);
  const Outcome out = run_rmt(inst, RmtPka{}, 4, NodeSet{});
  EXPECT_GT(out.stats.honest_messages, 0u);
  EXPECT_GT(out.stats.honest_payload_bytes, out.stats.honest_messages);
}

TEST(RmtPka, WholeRunsMatchTheReferenceDecider) {
  // Whole simulations, every served strategy, both decider modes: the
  // receiver deciding through pka_decide and through the kept reference
  // must produce the same Outcome — decision, rounds and every message
  // count (the relays and their replay keys are shared, so any divergence
  // is the decider's).
  Rng rng(404);
  std::size_t decided = 0;
  for (int i = 0; i < 40; ++i) {
    const std::size_t radius[] = {0, 1, SIZE_MAX};
    const Instance inst = testing::random_instance(5 + rng.index(4), 0.4, 1 + rng.index(3), 1,
                                                   radius[rng.index(3)], rng);
    const auto& sets = inst.adversary().maximal_sets();
    const NodeSet corrupted = sets[rng.index(sets.size())];
    for (const char* name : {"silent", "value-flip", "random-lies", "phantom-world", "two-faced"}) {
      for (const DeciderMode mode : {DeciderMode::kExhaustive, DeciderMode::kGreedy}) {
        const auto run = [&](RmtPka::DecideFn decide) {
          const auto strategy = sim::make_strategy(name, 17 + std::uint64_t(i));
          return run_rmt(inst, RmtPka(mode, {}, decide), 7, corrupted, strategy.get());
        };
        const Outcome got = run(pka_decide);
        const Outcome want = run(propcheck::reference_pka_decide);
        const std::string what = "instance " + std::to_string(i) + " " + name;
        EXPECT_EQ(got.decision, want.decision) << what;
        EXPECT_EQ(got.correct, want.correct) << what;
        EXPECT_EQ(got.wrong, want.wrong) << what;
        EXPECT_EQ(got.stats.rounds, want.stats.rounds) << what;
        EXPECT_EQ(got.stats.honest_messages, want.stats.honest_messages) << what;
        EXPECT_EQ(got.stats.adversary_messages, want.stats.adversary_messages) << what;
        EXPECT_EQ(got.stats.honest_payload_bytes, want.stats.honest_payload_bytes) << what;
        EXPECT_FALSE(got.wrong) << what;
        decided += got.decision.has_value();
      }
    }
  }
  EXPECT_GT(decided, 100u);
}

}  // namespace
}  // namespace rmt::protocols
