// Unit and property tests for NodeSet (graph/node_set.hpp).
#include "graph/node_set.hpp"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <utility>

#include "obs/metrics.hpp"
#include "tests/test_util.hpp"
#include "util/rng.hpp"

namespace rmt {
namespace {

TEST(NodeSet, DefaultIsEmpty) {
  NodeSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.contains(0));
  EXPECT_FALSE(s.contains(1000));
}

TEST(NodeSet, InsertContainsErase) {
  NodeSet s;
  s.insert(3);
  s.insert(70);  // second word
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(70));
  EXPECT_FALSE(s.contains(4));
  EXPECT_EQ(s.size(), 2u);
  s.erase(70);
  EXPECT_FALSE(s.contains(70));
  EXPECT_EQ(s.size(), 1u);
  s.erase(70);  // idempotent
  EXPECT_EQ(s.size(), 1u);
}

TEST(NodeSet, EraseNormalizesSoEqualityIsValueBased) {
  NodeSet a{1};
  NodeSet b{1, 200};
  b.erase(200);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(NodeSet, InitializerListAndToVector) {
  NodeSet s{5, 1, 9};
  EXPECT_EQ(s.to_vector(), (std::vector<NodeId>{1, 5, 9}));
}

TEST(NodeSet, FullSet) {
  const NodeSet s = NodeSet::full(67);
  EXPECT_EQ(s.size(), 67u);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(66));
  EXPECT_FALSE(s.contains(67));
  EXPECT_TRUE(NodeSet::full(0).empty());
  EXPECT_EQ(NodeSet::full(64).size(), 64u);  // exact word boundary
}

TEST(NodeSet, MinMax) {
  NodeSet s{7, 130, 42};
  EXPECT_EQ(s.min(), 7u);
  EXPECT_EQ(s.max(), 130u);
  EXPECT_THROW(NodeSet{}.min(), std::invalid_argument);
  EXPECT_THROW(NodeSet{}.max(), std::invalid_argument);
}

TEST(NodeSet, SetAlgebra) {
  const NodeSet a{1, 2, 3};
  const NodeSet b{3, 4};
  EXPECT_EQ(a | b, (NodeSet{1, 2, 3, 4}));
  EXPECT_EQ(a & b, (NodeSet{3}));
  EXPECT_EQ(a - b, (NodeSet{1, 2}));
  EXPECT_EQ(a ^ b, (NodeSet{1, 2, 4}));
}

TEST(NodeSet, AlgebraAcrossWordBoundaries) {
  const NodeSet a{0, 63, 64, 200};
  const NodeSet b{63, 200, 300};
  EXPECT_EQ((a & b), (NodeSet{63, 200}));
  EXPECT_EQ((a - b), (NodeSet{0, 64}));
  EXPECT_EQ((a | b).size(), 5u);
}

TEST(NodeSet, SubsetSupersetDisjoint) {
  const NodeSet a{1, 2};
  const NodeSet b{1, 2, 9};
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(b.is_superset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
  EXPECT_TRUE(NodeSet{}.is_subset_of(a));
  EXPECT_TRUE((NodeSet{5}).is_disjoint_from(a));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(NodeSet{}.intersects(a));
}

TEST(NodeSet, SubsetWithHighBitsInOther) {
  // a has a longer word vector than b — canonical-form shortcut must not lie.
  const NodeSet a{1, 100};
  const NodeSet b{1};
  EXPECT_FALSE(a.is_subset_of(b));
  EXPECT_TRUE(b.is_subset_of(a));
}

TEST(NodeSet, ForEachAscending) {
  NodeSet s{64, 2, 128, 5};
  std::vector<NodeId> seen;
  s.for_each([&](NodeId v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<NodeId>{2, 5, 64, 128}));
}

TEST(NodeSet, SingleFactory) {
  const NodeSet s = NodeSet::single(77);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.contains(77));
}

TEST(NodeSet, ToString) {
  EXPECT_EQ((NodeSet{0, 3}).to_string(), "{0, 3}");
  EXPECT_EQ(NodeSet{}.to_string(), "{}");
}

TEST(NodeSet, HashingIntoUnorderedSet) {
  std::unordered_set<NodeSet> pool;
  pool.insert(NodeSet{1, 2});
  pool.insert(NodeSet{2, 1});
  pool.insert(NodeSet{3});
  EXPECT_EQ(pool.size(), 2u);
}

// ---- small-buffer optimization boundaries --------------------------------
//
// kInlineBits = 128: ids 0..127 live in the two inline words; id 128 is the
// first to force a heap spill. Observed via the nodeset.heap_spills counter
// (the only externally visible trace of the representation).

TEST(NodeSetSbo, InlineUpToId127NeverAllocates) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  {
    NodeSet s;
    s.insert(0);
    s.insert(63);
    s.insert(64);
    s.insert(127);  // last inline id
    EXPECT_EQ(s.size(), 4u);
    NodeSet t = s;           // copy stays inline
    t |= NodeSet{1, 126};    // algebra stays inline
    t -= s;
    EXPECT_EQ(t, (NodeSet{1, 126}));
  }
  EXPECT_EQ(obs::Registry::global().counter("nodeset.heap_spills").value(), 0u);
  obs::Registry::global().reset();
  obs::set_enabled(false);
}

TEST(NodeSetSbo, Id128IsTheFirstSpill) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  obs::Counter& spills = obs::Registry::global().counter("nodeset.heap_spills");
  NodeSet s;
  s.insert(127);
  EXPECT_EQ(spills.value(), 0u);
  s.insert(128);  // third word: spills
  EXPECT_GE(spills.value(), 1u);
  const std::uint64_t after128 = spills.value();
  s.insert(129);  // same word: no further growth
  EXPECT_EQ(spills.value(), after128);
  EXPECT_TRUE(s.contains(127));
  EXPECT_TRUE(s.contains(128));
  EXPECT_TRUE(s.contains(129));
  EXPECT_EQ(s.size(), 3u);
  obs::Registry::global().reset();
  obs::set_enabled(false);
}

TEST(NodeSetSbo, SpilledThenErasedAgreesWithInlinePeer) {
  // A set that spilled and shrank back keeps its heap capacity but must be
  // observably identical to a set that never left the inline words.
  NodeSet spilled{1, 77, 128, 200};
  spilled.erase(128);
  spilled.erase(200);
  const NodeSet inline_peer{1, 77};
  EXPECT_EQ(spilled, inline_peer);
  EXPECT_EQ(spilled.hash(), inline_peer.hash());
  EXPECT_EQ(spilled <=> inline_peer, std::strong_ordering::equal);
  EXPECT_TRUE(spilled.is_subset_of(inline_peer));
  EXPECT_TRUE(inline_peer.is_subset_of(spilled));
  // And both orders against a third set agree.
  const NodeSet bigger{1, 77, 90};
  EXPECT_TRUE(spilled.is_subset_of(bigger));
  EXPECT_EQ(spilled <=> bigger, inline_peer <=> bigger);
  EXPECT_NO_THROW(spilled.debug_validate());
}

TEST(NodeSetSbo, CopyAndMoveOfSpilledSets) {
  NodeSet big;
  for (NodeId v = 0; v < 300; v += 3) big.insert(v);
  const NodeSet copy = big;
  EXPECT_EQ(copy, big);
  EXPECT_EQ(copy.hash(), big.hash());

  NodeSet moved = std::move(big);
  EXPECT_EQ(moved, copy);
  big = copy;  // NOLINT(bugprone-use-after-move) — assigning a new value is fine
  EXPECT_EQ(big, moved);

  // Self-move-safety is not required; moved-from reassignment must work.
  NodeSet other{5};
  other = std::move(moved);
  EXPECT_EQ(other, copy);
  EXPECT_NO_THROW(other.debug_validate());
}

TEST(NodeSetSbo, ClearKeepsValueSemantics) {
  NodeSet s{1, 250};
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s, NodeSet{});
  EXPECT_EQ(s.hash(), NodeSet{}.hash());
  s.insert(250);  // reuses retained capacity
  EXPECT_EQ(s, NodeSet::single(250));
}

// Property: NodeSet agrees with std::set<NodeId> under a random op sequence.
TEST(NodeSetProperty, MatchesReferenceImplementation) {
  Rng rng(42);
  NodeSet s;
  std::set<NodeId> ref;
  for (int step = 0; step < 2000; ++step) {
    const NodeId v = NodeId(rng.uniform(0, 150));
    switch (rng.index(3)) {
      case 0:
        s.insert(v);
        ref.insert(v);
        break;
      case 1:
        s.erase(v);
        ref.erase(v);
        break;
      case 2:
        ASSERT_EQ(s.contains(v), ref.count(v) > 0) << "at step " << step;
        break;
    }
    ASSERT_EQ(s.size(), ref.size());
  }
  EXPECT_EQ(s.to_vector(), std::vector<NodeId>(ref.begin(), ref.end()));
}

// word_span is the bulk export the membership scan, the graph's edge walk
// and the two-cover read words from: it must expose exactly the canonical
// no-trailing-zero-word form, inline and spilled alike, and round-trip bit
// for bit.
TEST(NodeSet, WordSpanIsCanonicalAndRoundTrips) {
  EXPECT_EQ(NodeSet{}.word_span().count, 0u);
  const NodeSet inline_set{0, 3, 64};  // two inline words
  NodeSet::WordSpan span = inline_set.word_span();
  ASSERT_EQ(span.count, 2u);
  EXPECT_EQ(span.words[0], (1ull << 0) | (1ull << 3));
  EXPECT_EQ(span.words[1], 1ull);
  NodeSet spilled{0, 200};  // beyond kInlineBits: heap representation
  spilled.erase(200);       // canonical again, still spilled
  span = spilled.word_span();
  ASSERT_EQ(span.count, 1u);
  EXPECT_EQ(span.words[0], 1ull);
  Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    const NodeSet s = testing::from_mask(rng.uniform(0, (1u << 16) - 1), 16);
    span = s.word_span();
    NodeSet rebuilt;
    for (std::size_t w = 0; w < span.count; ++w) {
      for (std::size_t b = 0; b < 64; ++b) {
        if ((span.words[w] >> b) & 1u) rebuilt.insert(NodeId(64 * w + b));
      }
    }
    EXPECT_EQ(rebuilt, s);
    if (span.count > 0) {
      EXPECT_NE(span.words[span.count - 1], 0u);
    }
  }
}

// Property: algebra laws on random sets.
TEST(NodeSetProperty, AlgebraLaws) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const NodeSet a = testing::from_mask(rng.uniform(0, (1u << 16) - 1), 16);
    const NodeSet b = testing::from_mask(rng.uniform(0, (1u << 16) - 1), 16);
    const NodeSet c = testing::from_mask(rng.uniform(0, (1u << 16) - 1), 16);
    EXPECT_EQ(a | b, b | a);
    EXPECT_EQ(a & b, b & a);
    EXPECT_EQ((a | b) | c, a | (b | c));
    EXPECT_EQ((a & b) & c, a & (b & c));
    EXPECT_EQ(a & (b | c), (a & b) | (a & c));
    EXPECT_EQ(a - b, a & (a ^ (a & b)));
    EXPECT_TRUE((a & b).is_subset_of(a));
    EXPECT_TRUE(a.is_subset_of(a | b));
    EXPECT_EQ((a - b) | (a & b), a);
  }
}

}  // namespace
}  // namespace rmt
