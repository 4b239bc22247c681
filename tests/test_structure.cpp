// Unit and property tests for AdversaryStructure (adversary/structure.hpp).
#include "adversary/structure.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <vector>

#include "tests/test_util.hpp"
#include "util/rng.hpp"

namespace rmt {
namespace {

TEST(Structure, EmptyFamilyContainsNothing) {
  const AdversaryStructure z;
  EXPECT_TRUE(z.empty_family());
  EXPECT_FALSE(z.contains(NodeSet{}));
  EXPECT_FALSE(z.contains(NodeSet{1}));
}

TEST(Structure, TrivialContainsOnlyEmpty) {
  const AdversaryStructure z = AdversaryStructure::trivial();
  EXPECT_FALSE(z.empty_family());
  EXPECT_TRUE(z.contains(NodeSet{}));
  EXPECT_FALSE(z.contains(NodeSet{0}));
  EXPECT_EQ(z.max_corruption_size(), 0u);
}

TEST(Structure, MonotoneMembership) {
  const auto z = AdversaryStructure::from_sets({NodeSet{1, 2, 3}});
  EXPECT_TRUE(z.contains(NodeSet{}));
  EXPECT_TRUE(z.contains(NodeSet{2}));
  EXPECT_TRUE(z.contains(NodeSet{1, 3}));
  EXPECT_TRUE(z.contains(NodeSet{1, 2, 3}));
  EXPECT_FALSE(z.contains(NodeSet{4}));
  EXPECT_FALSE(z.contains(NodeSet{1, 4}));
}

TEST(Structure, PruningKeepsAntichain) {
  const auto z = AdversaryStructure::from_sets(
      {NodeSet{1}, NodeSet{1, 2}, NodeSet{2, 1}, NodeSet{3}, NodeSet{}});
  ASSERT_EQ(z.num_maximal_sets(), 2u);
  EXPECT_TRUE(z.contains(NodeSet{1, 2}));
  EXPECT_TRUE(z.contains(NodeSet{3}));
  // No maximal set is contained in another.
  for (const NodeSet& a : z.maximal_sets())
    for (const NodeSet& b : z.maximal_sets())
      if (!(a == b)) {
        EXPECT_FALSE(a.is_subset_of(b));
      }
}

TEST(Structure, AddIsIdempotentOnMembers) {
  auto z = AdversaryStructure::from_sets({NodeSet{1, 2}});
  z.add(NodeSet{1});  // already a member
  EXPECT_EQ(z.num_maximal_sets(), 1u);
  z.add(NodeSet{3, 4});
  EXPECT_EQ(z.num_maximal_sets(), 2u);
  z.add(NodeSet{1, 2, 5});  // supersedes {1,2}
  EXPECT_EQ(z.num_maximal_sets(), 2u);
  EXPECT_TRUE(z.contains(NodeSet{1, 2, 5}));
}

TEST(Structure, RestrictedTo) {
  const auto z = AdversaryStructure::from_sets({NodeSet{1, 2, 3}, NodeSet{4, 5}});
  const auto zr = z.restricted_to(NodeSet{2, 3, 4});
  EXPECT_TRUE(zr.contains(NodeSet{2, 3}));
  EXPECT_TRUE(zr.contains(NodeSet{4}));
  EXPECT_FALSE(zr.contains(NodeSet{1}));
  EXPECT_FALSE(zr.contains(NodeSet{2, 4}));  // came from different sets
  // Restriction of the members, not of the ground: {4,5}∩A = {4}.
  EXPECT_EQ(zr.num_maximal_sets(), 2u);
}

TEST(Structure, RestrictionMembershipCharacterization) {
  // X ∈ Z^A ⇔ ∃ Z ∈ Z with X = Z ∩ A — equivalently X ⊆ A and X ∈ Z-ish.
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<NodeSet> gen;
    for (int i = 0; i < 3; ++i) gen.push_back(testing::from_mask(rng.uniform(0, 255), 8));
    const auto z = AdversaryStructure::from_sets(gen);
    const NodeSet a = testing::from_mask(rng.uniform(0, 255), 8);
    const auto zr = z.restricted_to(a);
    for (std::size_t mask = 0; mask < 256; ++mask) {
      const NodeSet x = testing::from_mask(mask, 8);
      const bool expected = x.is_subset_of(a) && z.contains(x);
      // For monotone families restriction membership is exactly
      // "subset of A and member of Z" — check both directions.
      ASSERT_EQ(zr.contains(x), expected);
    }
  }
}

TEST(Structure, UnitedWith) {
  const auto a = AdversaryStructure::from_sets({NodeSet{1}});
  const auto b = AdversaryStructure::from_sets({NodeSet{2, 3}});
  const auto u = a.united_with(b);
  EXPECT_TRUE(u.contains(NodeSet{1}));
  EXPECT_TRUE(u.contains(NodeSet{2, 3}));
  EXPECT_FALSE(u.contains(NodeSet{1, 2}));
}

TEST(Structure, Support) {
  const auto z = AdversaryStructure::from_sets({NodeSet{1, 2}, NodeSet{5}});
  EXPECT_EQ(z.support(), (NodeSet{1, 2, 5}));
  EXPECT_EQ(AdversaryStructure::trivial().support(), NodeSet{});
}

TEST(Structure, EqualityIsFamilyEquality) {
  const auto a = AdversaryStructure::from_sets({NodeSet{1}, NodeSet{1, 2}});
  const auto b = AdversaryStructure::from_sets({NodeSet{2, 1}});
  EXPECT_EQ(a, b);  // {1} was redundant
  const auto c = AdversaryStructure::from_sets({NodeSet{1}});
  EXPECT_FALSE(a == c);
}

TEST(Structure, EnumerateMembers) {
  const auto z = AdversaryStructure::from_sets({NodeSet{1, 2}, NodeSet{2, 3}});
  std::set<NodeSet> members;
  z.enumerate_members([&](const NodeSet& s) {
    members.insert(s);
    return true;
  });
  // ∅,{1},{2},{1,2},{3},{2,3} — {1,3} is NOT a member.
  EXPECT_EQ(members.size(), 6u);
  EXPECT_FALSE(members.count(NodeSet{1, 3}));
  for (const NodeSet& m : members) EXPECT_TRUE(z.contains(m));
}

TEST(Structure, EnumerateMembersStops) {
  const auto z = AdversaryStructure::from_sets({NodeSet{1, 2, 3}});
  std::size_t n = 0;
  EXPECT_FALSE(z.enumerate_members([&](const NodeSet&) { return ++n < 3; }));
  EXPECT_EQ(n, 3u);
}

TEST(Structure, ContainsMatchesSomeMaximalSuperset) {
  // contains(x) against its definition, some maximal M ⊇ x. Probes sit on
  // the popcount filters (every maximal set itself, one node fewer, one
  // node more), plus the empty set, an over-wide set and random subsets.
  // Random antichains from 2, 8 and 40 generators, and exact widths 7–9
  // around the 8 rows where the scan used to switch layouts.
  Rng rng(77);
  std::vector<AdversaryStructure> structures;
  for (const std::size_t ngen : {2u, 8u, 40u}) {
    std::vector<NodeSet> gen;
    for (std::size_t i = 0; i < ngen; ++i)
      gen.push_back(testing::from_mask(rng.uniform(1, 4095), 12));
    structures.push_back(AdversaryStructure::from_sets(gen));
  }
  for (const NodeId width : {7u, 8u, 9u}) {
    std::vector<NodeSet> pairs;
    for (NodeId v = 0; v < width; ++v) pairs.push_back(NodeSet{v, NodeId(v + 3)});
    structures.push_back(AdversaryStructure::from_sets(pairs));
    EXPECT_EQ(structures.back().num_maximal_sets(), width);
  }
  for (const AdversaryStructure& z : structures) {
    const std::size_t nsets = z.num_maximal_sets();
    std::vector<NodeSet> probes{NodeSet{}, NodeSet::full(13)};
    for (const NodeSet& m : z.maximal_sets()) {
      probes.push_back(m);
      NodeSet minus = m;
      if (!minus.empty()) minus.erase(minus.min());
      probes.push_back(minus);
      NodeSet plus = m;
      plus.insert(12);
      probes.push_back(plus);
    }
    for (int i = 0; i < 16; ++i)
      probes.push_back(testing::from_mask(rng.uniform(0, 8191), 13));
    for (std::size_t j = 0; j < probes.size(); ++j) {
      bool want = false;
      for (const NodeSet& m : z.maximal_sets()) want = want || probes[j].is_subset_of(m);
      ASSERT_EQ(z.contains(probes[j]), want) << nsets << " sets, probe " << j;
    }
  }
}

// Property: membership is monotone downward for arbitrary structures.
TEST(StructureProperty, DownwardClosure) {
  Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<NodeSet> gen;
    for (int i = 0; i < 4; ++i) gen.push_back(testing::from_mask(rng.uniform(0, 1023), 10));
    const auto z = AdversaryStructure::from_sets(gen);
    for (int probe = 0; probe < 50; ++probe) {
      const NodeSet x = testing::from_mask(rng.uniform(0, 1023), 10);
      if (z.contains(x)) {
        NodeSet smaller = x;
        if (!smaller.empty()) smaller.erase(smaller.min());
        EXPECT_TRUE(z.contains(smaller));
      }
    }
  }
}

}  // namespace
}  // namespace rmt
