// Tests for the Byzantine strategy suite (sim/strategies.hpp).
#include "sim/strategies.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "tests/test_util.hpp"

namespace rmt::sim {
namespace {

using testing::structure;

struct Fixture {
  Instance inst = Instance::ad_hoc(generators::cycle_graph(5),
                                   structure({NodeSet{1}, NodeSet{3}}), 0, 2);
  NodeSet corrupted{1};
  std::vector<Message> empty_inbox;
  std::vector<Message> empty_traffic;

  AdversaryView view(std::size_t round) {
    return AdversaryView{inst, corrupted, /*dealer_value=*/10, round, empty_inbox,
                         empty_traffic};
  }
};

TEST(Strategies, SilentSendsNothing) {
  Fixture f;
  SilentStrategy s;
  for (std::size_t r = 1; r <= 4; ++r) EXPECT_TRUE(s.act(f.view(r)).empty());
}

TEST(Strategies, ValueFlipBurstsInRoundTwoOnly) {
  Fixture f;
  ValueFlipStrategy s(1);
  EXPECT_TRUE(s.act(f.view(1)).empty());
  const auto burst = s.act(f.view(2));
  EXPECT_FALSE(burst.empty());
  EXPECT_TRUE(s.act(f.view(3)).empty());
  for (const Message& m : burst) {
    EXPECT_EQ(m.from, 1u);
    EXPECT_TRUE(f.inst.graph().has_edge(m.from, m.to));
    if (const auto* v = std::get_if<ValuePayload>(&m.payload)) {
      EXPECT_EQ(v->x, 11u);
    }
    if (const auto* p = std::get_if<PathValuePayload>(&m.payload)) {
      EXPECT_EQ(p->x, 11u);
      EXPECT_EQ(p->trail.back(), 1u);  // forged trails must end at the liar
    }
  }
}

TEST(Strategies, ValueFlipZeroOffsetCoerced) {
  Fixture f;
  ValueFlipStrategy s(0);  // a zero offset would be "no lie" — coerced to 1
  const auto burst = s.act(f.view(2));
  for (const Message& m : burst)
    if (const auto* v = std::get_if<ValuePayload>(&m.payload)) {
      EXPECT_NE(v->x, 10u);
    }
}

TEST(Strategies, RandomLieSendsOnlyFromCorruptedOverChannels) {
  Fixture f;
  RandomLieStrategy s(Rng(99), 6);
  for (std::size_t r = 1; r <= 3; ++r) {
    for (const Message& m : s.act(f.view(r))) {
      EXPECT_TRUE(f.corrupted.contains(m.from));
      EXPECT_TRUE(f.inst.graph().has_edge(m.from, m.to));
    }
  }
}

TEST(Strategies, RandomLieDeterministicPerSeed) {
  Fixture f;
  RandomLieStrategy a(Rng(5), 4), b(Rng(5), 4);
  const auto ma = a.act(f.view(1));
  const auto mb = b.act(f.view(1));
  ASSERT_EQ(ma.size(), mb.size());
  for (std::size_t i = 0; i < ma.size(); ++i)
    EXPECT_EQ(payload_serialize(ma[i].payload), payload_serialize(mb[i].payload));
}

TEST(Strategies, FictitiousWorldInjectsPhantomsOnce) {
  Fixture f;
  FictitiousWorldStrategy s(1, 2);
  EXPECT_TRUE(s.act(f.view(1)).empty());
  const auto burst = s.act(f.view(2));
  EXPECT_FALSE(burst.empty());
  bool phantom_seen = false;
  const std::size_t real_cap = f.inst.graph().capacity();
  for (const Message& m : burst) {
    EXPECT_EQ(m.from, 1u);
    EXPECT_TRUE(f.inst.graph().has_edge(m.from, m.to));
    if (const auto* k = std::get_if<KnowledgePayload>(&m.payload))
      if (k->subject >= real_cap) phantom_seen = true;
    if (const auto* t1 = std::get_if<PathValuePayload>(&m.payload)) {
      EXPECT_EQ(t1->x, 11u);
      EXPECT_EQ(t1->trail.front(), f.inst.dealer());  // claims a dealer origin
      EXPECT_EQ(t1->trail.back(), 1u);
    }
  }
  EXPECT_TRUE(phantom_seen);
  EXPECT_TRUE(s.act(f.view(3)).empty());  // single burst
}

TEST(Strategies, TwoFacedPublishesTruthfulKnowledgeThenFlipsValues) {
  Fixture f;
  TwoFacedStrategy s(1);
  const auto r1 = s.act(f.view(1));
  ASSERT_FALSE(r1.empty());
  for (const Message& m : r1) {
    const auto* k = std::get_if<KnowledgePayload>(&m.payload);
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->subject, 1u);
    // Truthful round-1 self-report.
    EXPECT_EQ(k->view(), f.inst.gamma().view(1));
    EXPECT_EQ(k->local_z(), f.inst.local_structure(1));
  }
  // Round 2: a type-1 arriving at the corrupted node is re-sent with the
  // flipped value and an extended trail.
  std::vector<Message> inbox{{0, 1, PathValuePayload{10, Path{0}}}};
  AdversaryView v{f.inst, f.corrupted, 10, 2, inbox, f.empty_traffic};
  const auto r2 = s.act(v);
  ASSERT_FALSE(r2.empty());
  for (const Message& m : r2) {
    const auto* t1 = std::get_if<PathValuePayload>(&m.payload);
    ASSERT_NE(t1, nullptr);
    EXPECT_EQ(t1->x, 11u);
    EXPECT_EQ(t1->trail, (Path{0, 1}));
  }
}

TEST(Strategies, TwoFacedHonorsRelayValidityChecks) {
  Fixture f;
  TwoFacedStrategy s(1);
  // A trail not ending at the true sender, and one already containing the
  // corrupted node, must both be dropped (mirroring honest relays).
  std::vector<Message> inbox{{0, 1, PathValuePayload{10, Path{3}}},
                             {0, 1, PathValuePayload{10, Path{1, 0}}}};
  AdversaryView v{f.inst, f.corrupted, 10, 2, inbox, f.empty_traffic};
  EXPECT_TRUE(s.act(v).empty());
}

}  // namespace
}  // namespace rmt::sim
