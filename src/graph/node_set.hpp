// graph/node_set.hpp — NodeSet: a compact dynamic bitset over node ids.
//
// NodeSet is the workhorse value type of the library: adversary structures
// are antichains of NodeSets, cuts and components are NodeSets, and the
// exact deciders enumerate millions of them. It therefore favours:
//   * value semantics (regular type: copy, ==, hash, <);
//   * word-parallel set algebra (|, &, -, subset tests);
//   * a stable iteration order (ascending node id);
//   * allocation-free storage for small sets (small-buffer optimization).
//
// Storage: ids below kInlineBits (= 128) live in two inline words; larger
// sets spill to a heap buffer that only ever grows. All observable behaviour
// (==, <=>, hash, subset tests, iteration) is defined over the *active*
// words only, so an inline set and a spilled-then-shrunk set holding the
// same ids are indistinguishable. The exact deciders cap instances at
// kMaxExactNodes = 26, so their hot loops never touch the allocator; the
// obs counter `nodeset.heap_spills` counts every heap allocation to keep
// that claim measurable.
//
// A NodeSet does not know its "universe": operations on sets built against
// different graphs are well-defined bitwise (missing high bits read as 0),
// which is exactly the semantics of subsets of a common global id space.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace rmt {

// GCC's flow analysis does not track that cap_ > kInlineWords selects the
// heap_ member of the storage union, so at -O2 it reports out-of-bounds
// subscripts / zero-size writes against the two inline words for accesses
// that are only reachable in the spilled state. False positives; suppressed
// for the SBO accessors only (clang and the sanitizers see nothing).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif

/// Node identifier. Dense, 0-based per graph.
using NodeId = std::uint32_t;

class NodeSet {
 public:
  /// Words stored inline before spilling to the heap (128 node ids).
  static constexpr std::size_t kInlineWords = 2;
  /// Largest id representable without a heap allocation.
  static constexpr std::size_t kInlineBits = kInlineWords * 64;

  NodeSet() = default;
  NodeSet(std::initializer_list<NodeId> ids) {
    for (NodeId v : ids) insert(v);
  }

  NodeSet(const NodeSet& o) { assign_from(o); }
  NodeSet(NodeSet&& o) noexcept { steal_from(o); }
  NodeSet& operator=(const NodeSet& o) {
    if (this != &o) assign_from(o);
    return *this;
  }
  NodeSet& operator=(NodeSet&& o) noexcept {
    if (this != &o) {
      release();
      steal_from(o);
    }
    return *this;
  }
  ~NodeSet() { release(); }

  /// The set {0, 1, ..., n-1}.
  static NodeSet full(std::size_t n) {
    NodeSet s;
    if (n == 0) return s;
    s.ensure_words((n + 63) / 64);
    std::uint64_t* w = s.words();
    for (std::size_t i = 0; i < s.nwords_; ++i) w[i] = ~0ull;
    const std::size_t tail = n % 64;
    if (tail != 0) w[s.nwords_ - 1] = (1ull << tail) - 1;
    return s;
  }

  /// The singleton {v}.
  static NodeSet single(NodeId v) {
    NodeSet s;
    s.insert(v);
    return s;
  }

  void insert(NodeId v) {
    const std::size_t w = v / 64;
    if (w >= nwords_) ensure_words(w + 1);
    words()[w] |= 1ull << (v % 64);
  }

  void erase(NodeId v) {
    const std::size_t w = v / 64;
    if (w < nwords_) {
      words()[w] &= ~(1ull << (v % 64));
      normalize();
    }
  }

  bool contains(NodeId v) const {
    const std::size_t w = v / 64;
    return w < nwords_ && (words()[w] >> (v % 64)) & 1;
  }

  bool empty() const { return nwords_ == 0; }
  /// Drops the elements; retained heap capacity is reused, not freed.
  void clear() { nwords_ = 0; }

  /// Number of elements.
  std::size_t size() const;

  /// Smallest element. Requires non-empty.
  NodeId min() const;
  /// Largest element. Requires non-empty.
  NodeId max() const;

  /// Elements in ascending order.
  std::vector<NodeId> to_vector() const;

  /// Apply f to each element in ascending order.
  template <typename F>
  void for_each(F&& f) const {
    const std::uint64_t* ws = words();
    for (std::size_t w = 0; w < nwords_; ++w) {
      std::uint64_t bits = ws[w];
      while (bits) {
        const int b = __builtin_ctzll(bits);
        f(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)));
        bits &= bits - 1;
      }
    }
  }

  NodeSet& operator|=(const NodeSet& o);
  NodeSet& operator&=(const NodeSet& o);
  NodeSet& operator-=(const NodeSet& o);  // set difference
  NodeSet& operator^=(const NodeSet& o);  // symmetric difference

  friend NodeSet operator|(NodeSet a, const NodeSet& b) { return a |= b; }
  friend NodeSet operator&(NodeSet a, const NodeSet& b) { return a &= b; }
  friend NodeSet operator-(NodeSet a, const NodeSet& b) { return a -= b; }
  friend NodeSet operator^(NodeSet a, const NodeSet& b) { return a ^= b; }

  /// Read-only view of the active words, lowest word first.
  struct WordSpan {
    const std::uint64_t* words;
    std::size_t count;
  };

  /// Bulk word export for the inline membership scan, the graph's edge
  /// walk and the two-cover, replacing per-bit iteration. Reads of words [0, count) are value-defined. Canonical
  /// form guarantees count == 0 or words[count-1] != 0.
  WordSpan word_span() const { return {words(), nwords_}; }

  bool is_subset_of(const NodeSet& o) const;
  bool is_superset_of(const NodeSet& o) const { return o.is_subset_of(*this); }
  bool intersects(const NodeSet& o) const;
  bool is_disjoint_from(const NodeSet& o) const { return !intersects(o); }

  friend bool operator==(const NodeSet& a, const NodeSet& b) {
    return a.nwords_ == b.nwords_ && std::equal(a.words(), a.words() + a.nwords_, b.words());
  }
  /// Lexicographic-on-words total order; used only for canonical sorting
  /// (e.g. deterministic antichain layout), not for set-theoretic meaning.
  friend std::strong_ordering operator<=>(const NodeSet& a, const NodeSet& b) {
    return std::lexicographical_compare_three_way(a.words(), a.words() + a.nwords_, b.words(),
                                                  b.words() + b.nwords_);
  }

  std::size_t hash() const;

  /// "{0, 3, 7}" — for diagnostics and DOT labels.
  std::string to_string() const;

  /// Deep invariant check (rmt::audit): canonical form — no trailing zero
  /// words, so == and hash() are value-correct — and representation sanity
  /// (active words never exceed capacity; inline capacity is exact).
  /// Throws audit::AuditError.
  void debug_validate() const;

 private:
  friend struct AuditTestAccess;  // tests corrupt internals to prove detection

  bool spilled() const { return cap_ > kInlineWords; }
  std::uint64_t* words() { return spilled() ? heap_ : inline_; }
  const std::uint64_t* words() const { return spilled() ? heap_ : inline_; }

  // Make words [0, n) addressable (new words zeroed); grows storage on the
  // cold path only. Never shrinks nwords_.
  void ensure_words(std::size_t n) {
    if (n > cap_) grow(n);
    std::uint64_t* w = words();
    for (std::size_t i = nwords_; i < n; ++i) w[i] = 0;
    if (n > nwords_) nwords_ = static_cast<std::uint32_t>(n);
  }

  void grow(std::size_t need);  // cold path: allocates, counts nodeset.heap_spills

  void assign_from(const NodeSet& o) {
    if (o.nwords_ > cap_) grow(o.nwords_);
    std::uint64_t* w = words();
    const std::uint64_t* ow = o.words();
    for (std::uint32_t i = 0; i < o.nwords_; ++i) w[i] = ow[i];
    nwords_ = o.nwords_;
  }

  void steal_from(NodeSet& o) noexcept {
    nwords_ = o.nwords_;
    cap_ = o.cap_;
    if (o.spilled()) {
      heap_ = o.heap_;
    } else {
      for (std::size_t i = 0; i < kInlineWords; ++i) inline_[i] = o.inline_[i];
    }
    o.nwords_ = 0;
    o.cap_ = kInlineWords;
  }

  void release() {
    if (spilled()) delete[] heap_;
    nwords_ = 0;
    cap_ = kInlineWords;
  }

  // Invariant: no trailing zero words (canonical form, so == is bitwise).
  void normalize() {
    const std::uint64_t* w = words();
    while (nwords_ != 0 && w[nwords_ - 1] == 0) --nwords_;
  }

  std::uint32_t nwords_ = 0;             // active (canonical) word count
  std::uint32_t cap_ = kInlineWords;     // allocated words; > kInlineWords ⇒ heap
  union {
    std::uint64_t inline_[kInlineWords] = {0, 0};
    std::uint64_t* heap_;
  };
};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace rmt

template <>
struct std::hash<rmt::NodeSet> {
  std::size_t operator()(const rmt::NodeSet& s) const { return s.hash(); }
};
