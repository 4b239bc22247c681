// Tests for the ⊕ joint-view operation (adversary/oplus.hpp) — the
// algebra of paper §2 and Appendix A, checked both on hand cases and
// against a brute-force implementation of Definition 2.
#include "adversary/oplus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "tests/test_util.hpp"
#include "util/rng.hpp"

namespace rmt {
namespace {

// Brute force Definition 2: E^A ⊕ F^B = {Z1 ∪ Z2 | Z1∈E^A, Z2∈F^B,
// Z1∩B = Z2∩A}, by enumerating all members of both operands.
std::set<NodeSet> brute_oplus(const RestrictedStructure& a, const RestrictedStructure& b) {
  std::set<NodeSet> out;
  a.family().enumerate_members([&](const NodeSet& z1) {
    b.family().enumerate_members([&](const NodeSet& z2) {
      if ((z1 & b.ground()) == (z2 & a.ground())) out.insert(z1 | z2);
      return true;
    });
    return true;
  });
  return out;
}

// Compare an implementation result against brute force on every subset of
// the joint ground.
void expect_equals_brute(const RestrictedStructure& result, const std::set<NodeSet>& brute,
                         const NodeSet& joint_ground) {
  const std::vector<NodeId> elems = joint_ground.to_vector();
  ASSERT_LE(elems.size(), 16u);
  for (std::size_t mask = 0; mask < (std::size_t{1} << elems.size()); ++mask) {
    NodeSet x;
    for (std::size_t i = 0; i < elems.size(); ++i)
      if ((mask >> i) & 1) x.insert(elems[i]);
    EXPECT_EQ(result.contains(x), brute.count(x) > 0) << "X = " << x.to_string();
  }
}

RestrictedStructure rs(std::vector<NodeSet> sets, NodeSet ground) {
  sets.push_back(NodeSet{});
  return RestrictedStructure(AdversaryStructure::from_sets(sets), std::move(ground));
}

TEST(Oplus, HandExampleAgreementOnOverlap) {
  // A = {0,1}, B = {1,2}. E^A maximal {0,1}; F^B maximal {2}.
  // Members must agree on node 1: {0,1} can only pair with sets containing
  // 1 restricted... F^B has no set containing 1, so {0,1}∪… never joins.
  const auto a = rs({NodeSet{0, 1}}, NodeSet{0, 1});
  const auto b = rs({NodeSet{2}}, NodeSet{1, 2});
  const auto j = oplus(a, b);
  EXPECT_TRUE(j.contains(NodeSet{0, 2}));   // {0} and {2} agree (both miss 1)
  EXPECT_FALSE(j.contains(NodeSet{0, 1}));  // 1 ∈ B but {…,1} ∉ F^B
  EXPECT_FALSE(j.contains(NodeSet{1}));
  EXPECT_TRUE(j.contains(NodeSet{}));
  EXPECT_EQ(j.ground(), (NodeSet{0, 1, 2}));
}

TEST(Oplus, DisjointGroundsAreFreeProducts) {
  const auto a = rs({NodeSet{0}}, NodeSet{0, 1});
  const auto b = rs({NodeSet{5}}, NodeSet{5, 6});
  const auto j = oplus(a, b);
  EXPECT_TRUE(j.contains(NodeSet{0, 5}));
  EXPECT_TRUE(j.contains(NodeSet{0}));
  EXPECT_TRUE(j.contains(NodeSet{5}));
  EXPECT_FALSE(j.contains(NodeSet{1}));
}

TEST(Oplus, EmptyFamilyAnnihilates) {
  const auto a = RestrictedStructure(AdversaryStructure{}, NodeSet{0, 1});
  const auto b = rs({NodeSet{2}}, NodeSet{2});
  const auto j = oplus(a, b);
  EXPECT_TRUE(j.family().empty_family());
  EXPECT_EQ(j.ground(), (NodeSet{0, 1, 2}));
}

TEST(Oplus, MatchesBruteForceOnRandomStructures) {
  Rng rng(17);
  for (int trial = 0; trial < 60; ++trial) {
    const NodeSet ga = testing::from_mask(rng.uniform(1, 63), 6);
    const NodeSet gb = testing::from_mask(rng.uniform(1, 63), 6);
    std::vector<NodeSet> sa, sb;
    for (int i = 0; i < 3; ++i) {
      sa.push_back(testing::from_mask(rng.uniform(0, 63), 6) & ga);
      sb.push_back(testing::from_mask(rng.uniform(0, 63), 6) & gb);
    }
    const auto a = rs(sa, ga);
    const auto b = rs(sb, gb);
    expect_equals_brute(oplus(a, b), brute_oplus(a, b), ga | gb);
  }
}

// Appendix A, Theorem 11: commutativity.
TEST(OplusProperty, Commutative) {
  Rng rng(23);
  for (int trial = 0; trial < 80; ++trial) {
    const auto a = rs({testing::from_mask(rng.uniform(0, 255), 8),
                       testing::from_mask(rng.uniform(0, 255), 8)},
                      NodeSet::full(8));
    const NodeSet gb = testing::from_mask(rng.uniform(1, 255), 8);
    const auto b = rs({testing::from_mask(rng.uniform(0, 255), 8) & gb}, gb);
    EXPECT_EQ(oplus(a, b), oplus(b, a));
  }
}

// Appendix A, Theorem 13: associativity.
TEST(OplusProperty, Associative) {
  Rng rng(29);
  for (int trial = 0; trial < 60; ++trial) {
    auto mk = [&](std::size_t n) {
      const NodeSet ground = testing::from_mask(rng.uniform(1, (1u << n) - 1), n);
      return rs({testing::from_mask(rng.uniform(0, (1u << n) - 1), n) & ground,
                 testing::from_mask(rng.uniform(0, (1u << n) - 1), n) & ground},
                ground);
    };
    const auto a = mk(6), b = mk(6), c = mk(6);
    EXPECT_EQ(oplus(oplus(a, b), c), oplus(a, oplus(b, c)));
  }
}

// Appendix A, Theorem 14: idempotence.
TEST(OplusProperty, Idempotent) {
  Rng rng(31);
  for (int trial = 0; trial < 80; ++trial) {
    const NodeSet ground = testing::from_mask(rng.uniform(1, 255), 8);
    const auto a = rs({testing::from_mask(rng.uniform(0, 255), 8) & ground,
                       testing::from_mask(rng.uniform(0, 255), 8) & ground},
                      ground);
    EXPECT_EQ(oplus(a, a), a);
  }
}

// Theorem 1: the join is MAXIMAL among structures consistent with both
// restrictions — any H' with H'^A = E^A and H'^B = F^B satisfies H' ⊆ H.
TEST(OplusProperty, Theorem1Maximality) {
  Rng rng(37);
  for (int trial = 0; trial < 40; ++trial) {
    // Start from a ground-truth structure Z over 6 nodes and restrict.
    std::vector<NodeSet> gen;
    for (int i = 0; i < 3; ++i) gen.push_back(testing::from_mask(rng.uniform(0, 63), 6));
    const auto z = AdversaryStructure::from_sets(gen);
    const NodeSet a = testing::from_mask(rng.uniform(1, 63), 6);
    const NodeSet b = testing::from_mask(rng.uniform(1, 63), 6);
    const auto join = oplus(RestrictedStructure(z, a), RestrictedStructure(z, b));
    // H' := Z^{A∪B} is one consistent structure; Corollary 2 demands
    // Z^{A∪B} ⊆ join.
    const auto restricted = z.restricted_to(a | b);
    restricted.enumerate_members([&](const NodeSet& x) {
      EXPECT_TRUE(join.contains(x)) << x.to_string();
      return true;
    });
  }
}

// The conjunction characterization the deciders test instead of a join:
// X ∈ E^A ⊕ F^B  ⇔  X∩A ∈ E^A ∧ X∩B ∈ F^B.
TEST(OplusProperty, ConjunctionCharacterization) {
  Rng rng(41);
  for (int trial = 0; trial < 60; ++trial) {
    const NodeSet ga = testing::from_mask(rng.uniform(1, 127), 7);
    const NodeSet gb = testing::from_mask(rng.uniform(1, 127), 7);
    const auto a = rs({testing::from_mask(rng.uniform(0, 127), 7) & ga}, ga);
    const auto b = rs({testing::from_mask(rng.uniform(0, 127), 7) & gb,
                       testing::from_mask(rng.uniform(0, 127), 7) & gb},
                      gb);
    const auto join = oplus(a, b);
    for (std::size_t mask = 0; mask < 128; ++mask) {
      const NodeSet x = testing::from_mask(mask, 7);
      if (!x.is_subset_of(ga | gb)) continue;
      const bool conj = a.contains(x & ga) && b.contains(x & gb);
      ASSERT_EQ(join.contains(x), conj) << x.to_string();
    }
  }
}

// Appendix A, Lemma 12 — the set identity behind associativity, checked
// directly on random triples: the two 4-clause conjunctions must be
// equivalent for all Z₁ ⊆ A, Z₂ ⊆ B, Z₃ ⊆ C.
TEST(OplusProperty, Lemma12Equivalence) {
  Rng rng(301);
  for (int trial = 0; trial < 400; ++trial) {
    const NodeSet a = testing::from_mask(rng.uniform(0, 63), 6);
    const NodeSet b = testing::from_mask(rng.uniform(0, 63), 6);
    const NodeSet c = testing::from_mask(rng.uniform(0, 63), 6);
    const NodeSet z1 = testing::from_mask(rng.uniform(0, 63), 6) & a;
    const NodeSet z2 = testing::from_mask(rng.uniform(0, 63), 6) & b;
    const NodeSet z3 = testing::from_mask(rng.uniform(0, 63), 6) & c;
    const bool lhs = (z1 & b).is_subset_of(z2) && (z2 & a).is_subset_of(z1) &&
                     ((z1 | z2) & c).is_subset_of(z3) &&
                     (z3 & (a | b)).is_subset_of(z1 | z2);
    const bool rhs = (z2 & c).is_subset_of(z3) && (z3 & b).is_subset_of(z2) &&
                     ((z2 | z3) & a).is_subset_of(z1) &&
                     (z1 & (b | c)).is_subset_of(z2 | z3);
    ASSERT_EQ(lhs, rhs) << "A=" << a.to_string() << " B=" << b.to_string()
                        << " C=" << c.to_string() << " Z1=" << z1.to_string()
                        << " Z2=" << z2.to_string() << " Z3=" << z3.to_string();
  }
}

/// The k-way join of `parts`, folded with oplus.
RestrictedStructure fold_oplus(const std::vector<RestrictedStructure>& parts) {
  RestrictedStructure acc = parts.front();
  for (std::size_t i = 1; i < parts.size(); ++i) acc = oplus(acc, parts[i]);
  return acc;
}

/// Thm 1's per-part conjunction: X ∈ ⊕_i E_i^{A_i} iff X ∩ A_i ∈ E_i^{A_i}
/// for every part.
bool in_every_part(const std::vector<RestrictedStructure>& parts, const NodeSet& x) {
  return std::all_of(parts.begin(), parts.end(), [&](const RestrictedStructure& part) {
    return part.contains(x & part.ground());
  });
}

// The conjunction form of a k-way join, as the deciders evaluate Z_B, equals
// the join folded with oplus (associativity, Thm 13).
TEST(OplusProperty, KWayConjunctionMatchesFoldedJoin) {
  Rng rng(43);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<RestrictedStructure> parts;
    const int k = 1 + int(rng.index(4));
    NodeSet ground;
    for (int i = 0; i < k; ++i) {
      const NodeSet gi = testing::from_mask(rng.uniform(1, 255), 8);
      const auto zi = AdversaryStructure::from_sets(
          {testing::from_mask(rng.uniform(0, 255), 8) & gi, NodeSet{}});
      parts.emplace_back(zi, gi);
      ground |= gi;
    }
    const RestrictedStructure mat = fold_oplus(parts);
    EXPECT_EQ(mat.ground(), ground);
    for (std::size_t mask = 0; mask < 256; ++mask) {
      const NodeSet x = testing::from_mask(mask, 8);
      if (!x.is_subset_of(ground)) continue;
      ASSERT_EQ(in_every_part(parts, x), mat.contains(x)) << x.to_string();
    }
  }
}

TEST(OplusProperty, CorollaryTwoLowerBound) {
  // Z^{V(γ(B))} ⊆ Z_B: whatever the true structure admits, the joint view
  // of B admits too — the receiver can never rule out the truth. Checked
  // on the folded join and on the per-part conjunction.
  Rng rng(47);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<NodeSet> gen;
    for (int i = 0; i < 3; ++i) gen.push_back(testing::from_mask(rng.uniform(0, 255), 8));
    const auto z = AdversaryStructure::from_sets(gen);
    std::vector<RestrictedStructure> parts;
    NodeSet total_ground;
    for (int i = 0; i < 3; ++i) {
      const NodeSet gi = testing::from_mask(rng.uniform(1, 255), 8);
      parts.emplace_back(z.restricted_to(gi), gi);
      total_ground |= gi;
    }
    const RestrictedStructure join = fold_oplus(parts);
    const auto truth = z.restricted_to(total_ground);
    truth.enumerate_members([&](const NodeSet& x) {
      EXPECT_TRUE(join.contains(x)) << x.to_string();
      EXPECT_TRUE(in_every_part(parts, x)) << x.to_string();
      return true;
    });
  }
}

}  // namespace
}  // namespace rmt
