// End-to-end tests for RMT-PKA (protocols/rmt_pka.hpp) — Theorems 4 + 5
// and Corollary 6 exercised through the simulator: safety everywhere,
// resilience exactly where no RMT-cut exists.
#include "protocols/rmt_pka.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/rmt_cut.hpp"
#include "check/reference_pka_decision.hpp"
#include "graph/generators.hpp"
#include "protocols/flooding.hpp"
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

TEST(RmtPka, DecidesOnEveryFaultFreeCycle) {
  // Thm 5 on cycles of 12–26 nodes with a trivial structure and ad hoc
  // views: no RMT-cut, so every receiver must decide the dealer's value.
  // A far receiver hears from more than 14 other subjects before both
  // arcs have delivered, which a budget on V_M masks could not search.
  for (std::size_t n = 12; n <= 26; ++n) {
    const Graph g = generators::cycle_graph(n);
    for (NodeId r = 1; r < n; ++r) {
      const Instance inst = Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, r);
      sim::SilentStrategy silent;
      const Outcome out = run_rmt(inst, RmtPka{}, 7, NodeSet{}, &silent);
      EXPECT_TRUE(out.correct) << "n=" << n << " R=" << r;
    }
  }
}

/// Every receiver call's DeciderStats in the current run, recorded through
/// RmtPka's DecideFn seam (a plain function pointer, hence the static).
std::vector<DeciderStats>& recorded_calls() {
  static std::vector<DeciderStats> calls;
  return calls;
}

std::optional<sim::Value> recording_decide(const DecisionInput& in, DeciderMode mode,
                                           const DeciderLimits& limits, DeciderStats*) {
  DeciderStats call;
  const auto decided = pka_decide(in, mode, limits, &call);
  recorded_calls().push_back(call);
  return decided;
}

TEST(RmtPka, UnsolvableWheelsStayUnderTheCandidateBudget) {
  // Stride-2 wheels under a 1-threshold with 1-hop views, D = 1, R = n/2,
  // one maximal set corrupted: each has an RMT-cut, so no run may decide,
  // and the exact search must find every maximal full V_M covered. It
  // drops each covered V_M, full or not, with all its subsets, so no call
  // comes near max_subsets (2^14); under `two-faced` no budget runs out.
  for (const std::size_t n : {20u, 26u}) {
    const Graph g = generators::generalized_wheel(n, 2);
    const NodeId d = 1, r = NodeId(n / 2);
    const Instance inst(g, threshold_structure(g.nodes() - NodeSet{d, r}, 1),
                        ViewFunction::k_hop(g, 1), d, r);
    ASSERT_TRUE(analysis::find_rmt_cut(inst).has_value()) << "wheel-" << n;
    for (const std::string name : {"two-faced", "random-lies"}) {
      const std::string what = "wheel-" + std::to_string(n) + " " + name;
      recorded_calls().clear();
      const auto strategy = sim::make_strategy(name, 2016);
      const Outcome out = run_rmt(inst, RmtPka(DeciderMode::kExhaustive, {}, recording_decide),
                                  42, inst.adversary().maximal_sets().back(), strategy.get());
      EXPECT_FALSE(out.decision.has_value()) << what;
      EXPECT_FALSE(recorded_calls().empty()) << what;
      for (const DeciderStats& call : recorded_calls()) {
        EXPECT_LE(call.subsets_tried, 1024u) << what;
        if (name == "two-faced") {
          EXPECT_FALSE(call.budget_exhausted) << what;
        }
      }
    }
  }
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

// ---- Recorded whole-run outcomes ------------------------------------------

/// The shapes of cold_mix's three simulate cells (cells 0–2), plus two
/// shapes where every strategy has corrupted nodes to act through and the
/// receiver still decides: 5 parallel paths under a 2-threshold with full
/// views, and a stride-1 wheel under a 1-threshold with 1-hop views.
/// `seed` draws the size, the endpoints, the corruption set (one of Z's
/// maximal sets, as cold_mix draws it) and the dealer's value.
struct SimCase {
  Instance inst;
  NodeSet corrupted;
  sim::Value value = 0;
};

SimCase sim_case(int cell, std::uint64_t seed) {
  Rng rng(seed);
  const auto relays_of = [](const Graph& g, NodeId d, NodeId r) {
    return g.nodes() - NodeSet{d, r};
  };
  const auto wheel_ends = [&](std::size_t n) {
    const NodeId d = NodeId(1 + rng.index(n - 1));
    NodeId r = d;
    while (r == d) r = NodeId(1 + rng.index(n - 1));
    return std::pair<NodeId, NodeId>{d, r};
  };
  std::optional<Instance> inst;
  switch (cell) {
    case 0: {  // 3–4 parallel paths of 2–3 hops, 1-threshold, full views
      const Graph g = generators::parallel_paths(3 + rng.index(2), 2 + rng.index(2));
      const NodeId r = NodeId(g.num_nodes() - 1);
      inst.emplace(g, threshold_structure(relays_of(g, 0, r), 1), ViewFunction::full(g), 0, r);
      break;
    }
    case 1: {  // cycle 12–20, trivial structure, ad hoc views
      const std::size_t n = 12 + rng.index(9);
      const Graph g = generators::cycle_graph(n);
      const NodeId r = NodeId(2 + rng.index(n - 3));
      inst.emplace(Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, r));
      break;
    }
    case 2: {  // wheel 10–16 with spoke stride 2–3, trivial structure, 1-hop views
      const std::size_t n = 10 + rng.index(7);
      const Graph g = generators::generalized_wheel(n, 2 + rng.index(2));
      const auto [d, r] = wheel_ends(n);
      inst.emplace(g, AdversaryStructure::trivial(), ViewFunction::k_hop(g, 1), d, r);
      break;
    }
    case 3: {  // 5 parallel paths of 2–3 hops, 2-threshold, full views
      const Graph g = generators::parallel_paths(5, 2 + rng.index(2));
      const NodeId r = NodeId(g.num_nodes() - 1);
      inst.emplace(g, threshold_structure(relays_of(g, 0, r), 2), ViewFunction::full(g), 0, r);
      break;
    }
    default: {  // wheel 8–12 with a spoke on every rim node, 1-threshold, 1-hop views
      const std::size_t n = 8 + rng.index(5);
      const Graph g = generators::generalized_wheel(n, 1);
      const auto [d, r] = wheel_ends(n);
      inst.emplace(g, threshold_structure(relays_of(g, d, r), 1), ViewFunction::k_hop(g, 1), d,
                   r);
      break;
    }
  }
  const auto& sets = inst->adversary().maximal_sets();
  const NodeSet corrupted = sets[rng.index(sets.size())];
  const sim::Value value = rng.uniform(0, 999);
  return SimCase{std::move(*inst), corrupted, value};
}

/// One whole RMT-PKA run: the case (cell, seed), the strategy (seeded with
/// the same seed), and the Outcome fields a served `simulate` answer and
/// the payload accounting read. Recorded from the build before claim
/// blocks were shared across relays; relays must reproduce every field.
struct RecordedRun {
  int cell;
  std::uint64_t seed;
  const char* strategy;
  long long decision;  ///< -1: undecided
  int correct, wrong;
  std::size_t rounds, honest_messages, honest_payload_bytes;
  std::size_t adversary_messages, adversary_dropped, adversary_payload_bytes;
};

TEST(RmtPka, WholeRunsReproduceTheRecordedOutcomes) {
  const RecordedRun recorded[] = {
      {0, 1, "silent", 21, 1, 0, 4, 40, 4900, 0, 0, 0},
      {0, 1, "value-flip", 21, 1, 0, 4, 42, 4940, 4, 0, 48},
      {0, 1, "random-lies", 21, 1, 0, 4, 42, 4940, 16, 0, 220},
      {0, 1, "phantom-world", 21, 1, 0, 4, 48, 5308, 8, 0, 376},
      {0, 1, "two-faced", 21, 1, 0, 4, 46, 5604, 8, 0, 1008},
      {0, 2, "silent", 925, 1, 0, 5, 106, 24952, 0, 0, 0},
      {0, 2, "value-flip", 925, 1, 0, 5, 110, 25040, 4, 0, 48},
      {0, 2, "random-lies", 925, 1, 0, 5, 116, 25264, 20, 0, 424},
      {0, 2, "phantom-world", 925, 1, 0, 5, 122, 25800, 8, 0, 376},
      {0, 2, "two-faced", 925, 1, 0, 5, 118, 27408, 10, 0, 2368},
      {0, 3, "silent", 346, 1, 0, 5, 82, 14472, 0, 0, 0},
      {0, 3, "value-flip", 346, 1, 0, 5, 86, 14560, 4, 0, 48},
      {0, 3, "random-lies", 346, 1, 0, 5, 108, 15240, 20, 0, 380},
      {0, 3, "phantom-world", 346, 1, 0, 5, 98, 15336, 8, 0, 384},
      {0, 3, "two-faced", 346, 1, 0, 5, 86, 15376, 10, 0, 1856},
      {1, 1, "silent", 527, 1, 0, 3, 96, 4032, 0, 0, 0},
      {1, 1, "value-flip", 527, 1, 0, 3, 96, 4032, 0, 0, 0},
      {1, 1, "random-lies", 527, 1, 0, 3, 96, 4032, 0, 0, 0},
      {1, 1, "phantom-world", 527, 1, 0, 3, 96, 4032, 0, 0, 0},
      {1, 1, "two-faced", 527, 1, 0, 3, 96, 4032, 0, 0, 0},
      {1, 2, "silent", 629, 1, 0, 3, 146, 6272, 0, 0, 0},
      {1, 2, "value-flip", 629, 1, 0, 3, 146, 6272, 0, 0, 0},
      {1, 2, "random-lies", 629, 1, 0, 3, 146, 6272, 0, 0, 0},
      {1, 2, "phantom-world", 629, 1, 0, 3, 146, 6272, 0, 0, 0},
      {1, 2, "two-faced", 629, 1, 0, 3, 146, 6272, 0, 0, 0},
      {1, 3, "silent", 703, 1, 0, 8, 256, 12144, 0, 0, 0},
      {1, 3, "value-flip", 703, 1, 0, 8, 256, 12144, 0, 0, 0},
      {1, 3, "random-lies", 703, 1, 0, 8, 256, 12144, 0, 0, 0},
      {1, 3, "phantom-world", 703, 1, 0, 8, 256, 12144, 0, 0, 0},
      {1, 3, "two-faced", 703, 1, 0, 8, 256, 12144, 0, 0, 0},
      {2, 1, "silent", 989, 1, 0, 5, 918, 51272, 0, 0, 0},
      {2, 1, "value-flip", 989, 1, 0, 5, 918, 51272, 0, 0, 0},
      {2, 1, "random-lies", 989, 1, 0, 5, 918, 51272, 0, 0, 0},
      {2, 1, "phantom-world", 989, 1, 0, 5, 918, 51272, 0, 0, 0},
      {2, 1, "two-faced", 989, 1, 0, 5, 918, 51272, 0, 0, 0},
      {2, 2, "silent", 881, 1, 0, 4, 556, 30060, 0, 0, 0},
      {2, 2, "value-flip", 881, 1, 0, 4, 556, 30060, 0, 0, 0},
      {2, 2, "random-lies", 881, 1, 0, 4, 556, 30060, 0, 0, 0},
      {2, 2, "phantom-world", 881, 1, 0, 4, 556, 30060, 0, 0, 0},
      {2, 2, "two-faced", 881, 1, 0, 4, 556, 30060, 0, 0, 0},
      {2, 3, "silent", 360, 1, 0, 3, 388, 22180, 0, 0, 0},
      {2, 3, "value-flip", 360, 1, 0, 3, 388, 22180, 0, 0, 0},
      {2, 3, "random-lies", 360, 1, 0, 3, 388, 22180, 0, 0, 0},
      {2, 3, "phantom-world", 360, 1, 0, 3, 388, 22180, 0, 0, 0},
      {2, 3, "two-faced", 360, 1, 0, 3, 388, 22180, 0, 0, 0},
      {3, 1, "silent", 235, 1, 0, 4, 62, 32616, 0, 0, 0},
      {3, 1, "value-flip", 235, 1, 0, 4, 66, 32696, 8, 0, 96},
      {3, 1, "random-lies", 235, 1, 0, 4, 78, 33056, 32, 0, 548},
      {3, 1, "phantom-world", 235, 1, 0, 4, 78, 33432, 16, 0, 752},
      {3, 1, "two-faced", 235, 1, 0, 4, 74, 38472, 16, 0, 8688},
      {3, 2, "silent", 582, 1, 0, 4, 62, 32616, 0, 0, 0},
      {3, 2, "value-flip", 582, 1, 0, 4, 66, 32696, 8, 0, 96},
      {3, 2, "random-lies", 582, 1, 0, 4, 74, 32952, 32, 0, 632},
      {3, 2, "phantom-world", 582, 1, 0, 4, 78, 33432, 16, 0, 752},
      {3, 2, "two-faced", 582, 1, 0, 4, 74, 38472, 16, 0, 8688},
      {3, 3, "silent", 525, 1, 0, 4, 66, 34088, 0, 0, 0},
      {3, 3, "value-flip", 525, 1, 0, 4, 70, 34168, 8, 0, 96},
      {3, 3, "random-lies", 525, 1, 0, 4, 86, 34720, 32, 0, 588},
      {3, 3, "phantom-world", 525, 1, 0, 4, 82, 34912, 16, 0, 760},
      {3, 3, "two-faced", 525, 1, 0, 4, 74, 38456, 16, 0, 8704},
      {4, 1, "silent", 830, 1, 0, 2, 184, 22248, 0, 0, 0},
      {4, 1, "value-flip", 830, 1, 0, 2, 184, 22248, 6, 0, 72},
      {4, 1, "random-lies", 830, 1, 0, 2, 194, 22528, 8, 0, 88},
      {4, 1, "phantom-world", 830, 1, 0, 2, 184, 22248, 12, 0, 612},
      {4, 1, "two-faced", 830, 1, 0, 2, 200, 23848, 12, 0, 1728},
      {4, 2, "silent", 794, 1, 0, 4, 391, 35868, 0, 0, 0},
      {4, 2, "value-flip", 794, 1, 0, 4, 423, 36596, 6, 0, 72},
      {4, 2, "random-lies", 794, 1, 0, 4, 512, 39712, 16, 0, 336},
      {4, 2, "phantom-world", 794, 1, 0, 4, 519, 43260, 12, 0, 612},
      {4, 2, "two-faced", 794, 1, 0, 4, 498, 46988, 78, 0, 7860},
      {4, 3, "silent", 102, 1, 0, 4, 297, 25472, 0, 0, 0},
      {4, 3, "value-flip", 102, 1, 0, 4, 339, 26428, 6, 0, 72},
      {4, 3, "random-lies", 102, 1, 0, 4, 383, 27984, 16, 0, 324},
      {4, 3, "phantom-world", 102, 1, 0, 4, 465, 35176, 12, 0, 612},
      {4, 3, "two-faced", 102, 1, 0, 4, 480, 45440, 96, 0, 9408},
  };
  for (const RecordedRun& want : recorded) {
    const SimCase c = sim_case(want.cell, 100 * std::uint64_t(want.cell) + want.seed);
    const auto adversary = sim::make_strategy(want.strategy, want.seed);
    const Outcome got = run_rmt(c.inst, RmtPka{}, c.value, c.corrupted, adversary.get());
    const std::string what =
        "cell " + std::to_string(want.cell) + " seed " + std::to_string(want.seed) + " " +
        want.strategy;
    EXPECT_EQ(got.decision ? static_cast<long long>(*got.decision) : -1LL, want.decision)
        << what;
    EXPECT_EQ(int(got.correct), want.correct) << what;
    EXPECT_EQ(int(got.wrong), want.wrong) << what;
    EXPECT_EQ(got.stats.rounds, want.rounds) << what;
    EXPECT_EQ(got.stats.honest_messages, want.honest_messages) << what;
    EXPECT_EQ(got.stats.honest_payload_bytes, want.honest_payload_bytes) << what;
    EXPECT_EQ(got.stats.adversary_messages, want.adversary_messages) << what;
    EXPECT_EQ(got.stats.adversary_dropped, want.adversary_dropped) << what;
    EXPECT_EQ(got.stats.adversary_payload_bytes, want.adversary_payload_bytes) << what;
  }
}

TEST(RmtPka, RelayForwardsARebuiltClaimOnlyOnce) {
  // Node 1 forwards node 0's report to relay 2, sharing 0's block; then the
  // adversary at 1 sends the same report again in a block it rebuilt. The
  // replay key reads contents, so the second copy is a replay.
  const Graph view = generators::path_graph(3);
  const sim::KnowledgePayload original{0, view, AdversaryStructure::trivial(), Path{0, 1}};
  const sim::KnowledgePayload rebuilt{0, view, AdversaryStructure::trivial(), Path{0, 1}};
  ASSERT_NE(original.claim, rebuilt.claim);
  TrailRelay relay(2);
  const NodeSet neighbors{1, 3, 4};
  std::vector<sim::Message> out;
  relay.relay(sim::Message{1, 2, original}, original, neighbors, out);
  ASSERT_EQ(out.size(), 3u);
  for (const sim::Message& m : out) {
    const auto& k = std::get<sim::KnowledgePayload>(m.payload);
    EXPECT_EQ(k.claim, original.claim);  // shared with the originator, not copied
    EXPECT_EQ(k.trail, (Path{0, 1, 2}));
  }
  relay.relay(sim::Message{1, 2, rebuilt}, rebuilt, neighbors, out);
  EXPECT_EQ(out.size(), 3u);
  // A different claim on the same trail is news, and is relayed.
  const sim::KnowledgePayload other{0, generators::path_graph(2), AdversaryStructure::trivial(),
                                    Path{0, 1}};
  relay.relay(sim::Message{1, 2, other}, other, neighbors, out);
  EXPECT_EQ(out.size(), 6u);
}

TEST(RmtPka, RelayForwardsAReplayedValueOnlyOnce) {
  // A type-1 payload is its (x, trail): a replayed copy is dropped, and a
  // copy differing in the value or the trail is news.
  const sim::PathValuePayload original{7, Path{0, 1}};
  TrailRelay relay(2);
  const NodeSet neighbors{1, 3, 4};
  std::vector<sim::Message> out;
  relay.relay(sim::Message{1, 2, original}, original, neighbors, out);
  ASSERT_EQ(out.size(), 3u);
  for (const sim::Message& m : out) {
    const auto& t1 = std::get<sim::PathValuePayload>(m.payload);
    EXPECT_EQ(t1.x, 7u);
    EXPECT_EQ(t1.trail, (Path{0, 1, 2}));
  }
  const sim::PathValuePayload replayed{7, Path{0, 1}};
  relay.relay(sim::Message{1, 2, replayed}, replayed, neighbors, out);
  EXPECT_EQ(out.size(), 3u);
  const sim::PathValuePayload other_value{8, Path{0, 1}};
  relay.relay(sim::Message{1, 2, other_value}, other_value, neighbors, out);
  EXPECT_EQ(out.size(), 6u);
  const sim::PathValuePayload other_trail{7, Path{5, 1}};
  relay.relay(sim::Message{1, 2, other_trail}, other_trail, neighbors, out);
  EXPECT_EQ(out.size(), 9u);
}

}  // namespace
}  // namespace rmt::protocols
