// Parameterized property suites (TEST_P) sweeping the cross product of
// protocols × strategies × knowledge models, plus seed-indexed algebra
// properties. These are the repository's broadest invariant nets:
//   * NO protocol ever lets the receiver decide wrong (safety);
//   * solvability is monotone up the knowledge ladder;
//   * ⊕ is a semilattice operation on every sampled input;
//   * protocol outcomes are deterministic given (instance, corruption,
//     strategy seed).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "adversary/oplus.hpp"
#include "analysis/feasibility.hpp"
#include "graph/generators.hpp"
#include "protocols/cpa.hpp"
#include "protocols/dolev.hpp"
#include "protocols/ppa.hpp"
#include "protocols/rmt_pka.hpp"
#include "protocols/runner.hpp"
#include "protocols/zcpa.hpp"
#include "sim/strategies.hpp"
#include "tests/test_util.hpp"

namespace rmt {
namespace {

std::unique_ptr<protocols::Protocol> make_protocol(const std::string& name) {
  if (name == "rmt-pka") return std::make_unique<protocols::RmtPka>();
  if (name == "rmt-pka-greedy")
    return std::make_unique<protocols::RmtPka>(protocols::DeciderMode::kGreedy);
  if (name == "zcpa") return std::make_unique<protocols::Zcpa>();
  if (name == "cpa") return std::make_unique<protocols::Cpa>(1);
  if (name == "dolev") return std::make_unique<protocols::Dolev>(1);
  return std::make_unique<protocols::Ppa>();
}

// ---------------------------------------------------------------------------
// Safety matrix: protocol × strategy × knowledge.

using SafetyParam = std::tuple<std::string, std::string, std::size_t /*knowledge*/>;

class ProtocolSafetyP : public ::testing::TestWithParam<SafetyParam> {};

TEST_P(ProtocolSafetyP, NeverDecidesWrong) {
  const auto& [proto_name, strategy_name, knowledge] = GetParam();
  const auto proto = make_protocol(proto_name);
  Rng rng(1000 + knowledge);
  std::size_t salt = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Instance inst = testing::random_instance(6, 0.35, 2, 2, knowledge, rng);
    for (const NodeSet& t : inst.adversary().maximal_sets()) {
      auto strategy = sim::make_strategy(strategy_name, 31 + salt++);
      const protocols::Outcome out = protocols::run_rmt(inst, *proto, 9, t, strategy.get());
      ASSERT_FALSE(out.wrong) << proto_name << " × " << strategy_name << " on "
                              << inst.to_string() << " T=" << t.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SafetyMatrix, ProtocolSafetyP,
    // CPA is deliberately absent: its certification is only safe under
    // t-locally bounded adversaries (its model), not under arbitrary
    // general structures — that gap is precisely why the paper
    // generalizes it to Z-CPA. CPA gets its own suite below, inside its
    // guarantee zone.
    ::testing::Combine(
        ::testing::Values("rmt-pka", "rmt-pka-greedy", "zcpa"),
        ::testing::Values("silent", "value-flip", "random-lies", "phantom-world",
                          "two-faced"),
        ::testing::Values(std::size_t{0}, std::size_t{1}, SIZE_MAX)),
    [](const ::testing::TestParamInfo<SafetyParam>& param_info) {
      // NOTE: no structured bindings here — the commas inside `[p, s, k]`
      // would be split by the INSTANTIATE_TEST_SUITE_P macro.
      // Assembled with += (not chained operator+) to sidestep a GCC 12
      // -Wrestrict false positive on nested string concatenation.
      const std::size_t k = std::get<2>(param_info.param);
      std::string name = std::get<0>(param_info.param);
      name += "_";
      name += std::get<1>(param_info.param);
      name += "_";
      if (k == SIZE_MAX) {
        name += "full";
      } else {
        name += "k";
        name += std::to_string(k);
      }
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// CPA inside its model: t-locally bounded structures only.
class CpaSafetyP : public ::testing::TestWithParam<std::string> {};

TEST_P(CpaSafetyP, NeverDecidesWrongUnderTLocalAdversaries) {
  Rng rng(1500);
  std::size_t salt = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = generators::random_connected_gnp(6, 0.4, rng);
    const auto z =
        testing::shielding(t_local_structure(g, 1), g.nodes(), NodeSet{0, 5});
    const Instance inst = Instance::ad_hoc(g, z, 0, 5);
    for (const NodeSet& t : inst.adversary().maximal_sets()) {
      auto strategy = sim::make_strategy(GetParam(), 13 + salt++);
      const protocols::Outcome out =
          protocols::run_rmt(inst, protocols::Cpa{1}, 9, t, strategy.get());
      ASSERT_FALSE(out.wrong) << GetParam() << " on " << inst.to_string()
                              << " T=" << t.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TLocalMatrix, CpaSafetyP,
                         ::testing::Values("silent", "value-flip", "random-lies",
                                           "phantom-world", "two-faced"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// PPA and Dolev are full-knowledge protocols: their safety rows run on
// full-knowledge instances that are two-cover solvable (their guarantee
// zone — see ppa.hpp).
using BaselineParam = std::tuple<std::string, std::string>;

class BaselineSafetyP : public ::testing::TestWithParam<BaselineParam> {};

TEST_P(BaselineSafetyP, NeverDecidesWrongInGuaranteeZone) {
  const auto& [proto_name, strategy_name] = GetParam();
  const auto proto = make_protocol(proto_name);
  Rng rng(2000);
  std::size_t salt = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const Instance inst = testing::random_instance(6, 0.4, 2, 1, SIZE_MAX, rng);
    if (!analysis::solvable(inst)) continue;
    for (const NodeSet& t : inst.adversary().maximal_sets()) {
      auto strategy = sim::make_strategy(strategy_name, 77 + salt++);
      const protocols::Outcome out = protocols::run_rmt(inst, *proto, 9, t, strategy.get());
      ASSERT_FALSE(out.wrong) << proto_name << " × " << strategy_name << " on "
                              << inst.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BaselineMatrix, BaselineSafetyP,
    ::testing::Combine(::testing::Values("ppa", "dolev"),
                       ::testing::Values("silent", "value-flip", "two-faced")),
    [](const ::testing::TestParamInfo<BaselineParam>& param_info) {
      std::string name = std::get<0>(param_info.param) + "_" + std::get<1>(param_info.param);
      for (char& c : name)
        if (c == '-') c = '_';
      return name;
    });

// ---------------------------------------------------------------------------
// Knowledge monotonicity, seed-indexed.

class KnowledgeMonotoneP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnowledgeMonotoneP, SolvabilityClimbsTheLadder) {
  Rng rng(GetParam());
  const Graph g = generators::random_connected_gnp(7, 0.3, rng);
  const auto z = random_structure(g.nodes(), 2, 2, NodeSet{0, 6}, rng);
  bool prev = false;
  for (std::size_t k = 0; k <= 5; ++k) {
    const Instance inst(g, z, ViewFunction::k_hop(g, k), 0, 6);
    const bool now = !analysis::rmt_cut_exists(inst);
    if (prev) {
      ASSERT_TRUE(now) << "k=" << k << " " << inst.to_string();
    }
    prev = now;
  }
  if (prev) {
    const Instance full(g, z, ViewFunction::full(g), 0, 6);
    EXPECT_FALSE(analysis::rmt_cut_exists(full));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnowledgeMonotoneP,
                         ::testing::Range<std::uint64_t>(3000, 3020));

// ---------------------------------------------------------------------------
// ⊕ semilattice laws, seed-indexed (complements the brute-force checks in
// test_oplus.cpp with an independent sweep).

class OplusSemilatticeP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OplusSemilatticeP, Laws) {
  Rng rng(GetParam());
  auto mk = [&] {
    const NodeSet ground = testing::from_mask(rng.uniform(1, 255), 8);
    return RestrictedStructure(
        AdversaryStructure::from_sets({testing::from_mask(rng.uniform(0, 255), 8) & ground,
                                       testing::from_mask(rng.uniform(0, 255), 8) & ground,
                                       NodeSet{}}),
        ground);
  };
  const auto a = mk(), b = mk(), c = mk();
  EXPECT_EQ(oplus(a, b), oplus(b, a));
  EXPECT_EQ(oplus(oplus(a, b), c), oplus(a, oplus(b, c)));
  EXPECT_EQ(oplus(a, a), a);
  // Absorption-like sanity: joining with one's own restriction is a no-op
  // on the common ground.
  const auto aa = oplus(a, RestrictedStructure(a.family(), a.ground()));
  EXPECT_EQ(aa, a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OplusSemilatticeP,
                         ::testing::Range<std::uint64_t>(4000, 4040));

// ---------------------------------------------------------------------------
// Round bound: every protocol here decides (when it decides at all) within
// |V| rounds — the bound the paper's proofs rely on (Thm 5: "by round
// |V(G)|"; Thm 9: Z-CPA round complexity linear in n).

class RoundBoundP : public ::testing::TestWithParam<std::string> {};

TEST_P(RoundBoundP, DecisionWithinNRounds) {
  Rng rng(6100);
  const auto proto = make_protocol(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const Instance inst = testing::random_instance(7, 0.35, 2, 2, 1, rng);
    if (!analysis::solvable(inst)) continue;
    // Generous runner bound; assert the *actual* decision round.
    const protocols::Outcome out =
        protocols::run_rmt(inst, *proto, 4, NodeSet{}, nullptr, 3 * inst.num_players());
    ASSERT_TRUE(out.correct) << inst.to_string();
    EXPECT_LE(out.stats.rounds, inst.num_players() + 1) << inst.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, RoundBoundP,
                         ::testing::Values("rmt-pka", "zcpa"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

// ---------------------------------------------------------------------------
// Fuzz: seed-swept chaos adversary against the safe protocols. Checks the
// input-validation surface (malformed payloads, phantom ids, forged
// trails) as much as the decision logic: no crash, no wrong decision.

class FuzzP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzP, ChaosNeverBreaksSafety) {
  Rng rng(GetParam());
  const Instance inst = testing::random_instance(6, 0.4, 2, 2, rng.index(2), rng);
  for (const NodeSet& t : inst.adversary().maximal_sets()) {
    sim::RandomLieStrategy chaos(rng.fork(t.hash()), 6);
    const protocols::Outcome pka =
        protocols::run_rmt(inst, protocols::RmtPka{}, 9, t, &chaos);
    ASSERT_FALSE(pka.wrong) << inst.to_string();
    sim::RandomLieStrategy chaos2(rng.fork(t.hash() + 1), 6);
    const protocols::Outcome zcpa =
        protocols::run_rmt(inst, protocols::Zcpa{}, 9, t, &chaos2);
    ASSERT_FALSE(zcpa.wrong) << inst.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzP, ::testing::Range<std::uint64_t>(7000, 7030));

// ---------------------------------------------------------------------------
// Determinism: same inputs, same outcome — byte for byte on the stats.

class DeterminismP : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismP, RunsAreReproducible) {
  Rng rng(5001);
  const Instance inst = testing::random_instance(6, 0.4, 2, 2, 0, rng);
  const auto proto = make_protocol(GetParam());
  const NodeSet t = inst.adversary().maximal_sets().back();
  auto run_once = [&] {
    auto strategy = sim::make_strategy("random-lies", 99);  // fixed seed
    return protocols::run_rmt(inst, *proto, 5, t, strategy.get());
  };
  const protocols::Outcome a = run_once();
  const protocols::Outcome b = run_once();
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.honest_messages, b.stats.honest_messages);
  EXPECT_EQ(a.stats.adversary_messages, b.stats.adversary_messages);
  EXPECT_EQ(a.stats.honest_payload_bytes, b.stats.honest_payload_bytes);
}

INSTANTIATE_TEST_SUITE_P(Protocols, DeterminismP,
                         ::testing::Values("rmt-pka", "zcpa", "cpa"),
                         [](const ::testing::TestParamInfo<std::string>& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

}  // namespace
}  // namespace rmt
