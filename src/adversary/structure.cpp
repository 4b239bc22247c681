#include "adversary/structure.hpp"

#include <algorithm>
#include <unordered_set>

#include "obs/phase.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace rmt {

AdversaryStructure AdversaryStructure::trivial() {
  AdversaryStructure z;
  z.maximal_.push_back(NodeSet{});
  z.rebuild_cache();
  return z;
}

AdversaryStructure AdversaryStructure::from_sets(std::vector<NodeSet> sets) {
  AdversaryStructure z;
  z.maximal_ = std::move(sets);
  z.prune_and_sort();
  return z;
}

void AdversaryStructure::add(const NodeSet& s) {
  // Single incremental domination pass: one sweep decides membership (s is
  // dominated ⇒ no-op), evicts the sets s strictly dominates, and finds the
  // sorted insertion point — no re-sort, no quadratic re-prune. The popcount
  // cache filters both directions: only strictly larger sets can dominate s,
  // only sets no larger can be dominated by it.
  const std::size_t n = s.size();
  for (std::size_t i = 0; i < maximal_.size(); ++i)
    if (sizes_[i] >= n && s.is_subset_of(maximal_[i])) return;
  std::size_t w = 0;
  for (std::size_t i = 0; i < maximal_.size(); ++i) {
    if (sizes_[i] <= n && maximal_[i].is_subset_of(s)) continue;  // dominated by s
    if (w != i) maximal_[w] = std::move(maximal_[i]);
    ++w;
  }
  maximal_.resize(w);
  maximal_.insert(std::lower_bound(maximal_.begin(), maximal_.end(), s), s);
  rebuild_cache();
}

bool AdversaryStructure::contains(const NodeSet& x) const {
  if (!x.is_subset_of(support_)) return false;
  const std::size_t n = x.size();
  if (n > max_size_) return false;
  // x ⊆ M word by word, inline. Canonical sets carry no trailing zero
  // word, so an x with more words than M has a bit outside M.
  const NodeSet::WordSpan xs = x.word_span();
  for (std::size_t i = 0; i < maximal_.size(); ++i) {
    if (sizes_[i] < n) continue;
    const NodeSet::WordSpan ms = maximal_[i].word_span();
    if (xs.count > ms.count) continue;
    std::uint64_t outside = 0;
    for (std::size_t w = 0; w < xs.count; ++w) outside |= xs.words[w] & ~ms.words[w];
    if (outside == 0) return true;
  }
  return false;
}

AdversaryStructure AdversaryStructure::restricted_to(const NodeSet& a) const {
  RMT_PHASE("adversary.restrict");
  RMT_AUDIT_VALIDATE(*this);
  AdversaryStructure out;
  if (a.size() <= 8) {
    // Small ground (per-node views: derive_local_knowledge for the
    // simulate kind, Instance::local_structure and the references'
    // explicit Z_v): the intersections collapse onto a few distinct sets,
    // so an incremental antichain insert dedupes as it goes — no
    // collect-then-sort over the full source antichain. Same maximal
    // family, same canonical order.
    std::vector<NodeSet>& kept = out.maximal_;
    kept.reserve(16);
    for (const NodeSet& m : maximal_) {
      NodeSet r = m & a;
      bool dominated = false;
      for (const NodeSet& k : kept) {
        if (r.is_subset_of(k)) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      std::erase_if(kept, [&](const NodeSet& k) { return k.is_subset_of(r); });
      kept.push_back(std::move(r));
    }
    std::sort(kept.begin(), kept.end());
    out.rebuild_cache();
  } else {
    out.maximal_.reserve(maximal_.size());
    for (const NodeSet& m : maximal_) out.maximal_.push_back(m & a);
    out.prune_and_sort();
  }
  RMT_AUDIT_VALIDATE(out);
  return out;
}

AdversaryStructure AdversaryStructure::united_with(const AdversaryStructure& o) const {
  AdversaryStructure out;
  out.maximal_ = maximal_;
  out.maximal_.insert(out.maximal_.end(), o.maximal_.begin(), o.maximal_.end());
  out.prune_and_sort();
  return out;
}


bool AdversaryStructure::enumerate_members(
    const std::function<bool(const NodeSet&)>& visit) const {
  std::unordered_set<NodeSet> seen;
  // Enumerate subsets of each maximal set; dedupe across overlapping
  // maximal sets.
  for (const NodeSet& m : maximal_) {
    const std::vector<NodeId> elems = m.to_vector();
    RMT_REQUIRE(elems.size() <= 24, "enumerate_members: maximal set too large to enumerate");
    const std::size_t total = std::size_t{1} << elems.size();
    for (std::size_t mask = 0; mask < total; ++mask) {
      NodeSet sub;
      for (std::size_t i = 0; i < elems.size(); ++i)
        if ((mask >> i) & 1) sub.insert(elems[i]);
      if (seen.insert(sub).second) {
        if (!visit(sub)) return false;
      }
    }
  }
  return true;
}

void AdversaryStructure::debug_validate() const {
  for (std::size_t i = 0; i < maximal_.size(); ++i) {
    maximal_[i].debug_validate();
    if (i > 0 && !(maximal_[i - 1] < maximal_[i]))
      audit::detail::fail("adversary",
                          "maximal sets not in strict canonical order at index " +
                              std::to_string(i) + ": " + maximal_[i - 1].to_string() +
                              " !< " + maximal_[i].to_string());
    for (std::size_t j = 0; j < maximal_.size(); ++j)
      if (i != j && maximal_[i].is_subset_of(maximal_[j]))
        audit::detail::fail("adversary", "antichain violated: " + maximal_[i].to_string() +
                                             " ⊆ " + maximal_[j].to_string());
  }
  // The membership accelerators must mirror maximal_ exactly — a stale
  // cache silently mis-answers contains().
  if (sizes_.size() != maximal_.size())
    audit::detail::fail("adversary", "popcount cache out of sync: " + std::to_string(sizes_.size()) +
                                         " entries for " + std::to_string(maximal_.size()) +
                                         " maximal sets");
  NodeSet expect_support;
  std::uint32_t expect_max = 0;
  for (std::size_t i = 0; i < maximal_.size(); ++i) {
    if (sizes_[i] != maximal_[i].size())
      audit::detail::fail("adversary", "popcount cache wrong at index " + std::to_string(i) +
                                           " for " + maximal_[i].to_string());
    expect_support |= maximal_[i];
    expect_max = std::max(expect_max, sizes_[i]);
  }
  if (max_size_ != expect_max)
    audit::detail::fail("adversary", "largest-set cache " + std::to_string(max_size_) +
                                         " != " + std::to_string(expect_max));
  if (!(expect_support == support_))
    audit::detail::fail("adversary", "support cache " + support_.to_string() +
                                         " != union of maximal sets " + expect_support.to_string());
}

std::string AdversaryStructure::to_string() const {
  std::string out = "Z[max: ";
  for (std::size_t i = 0; i < maximal_.size(); ++i) {
    if (i) out += ", ";
    out += maximal_[i].to_string();
  }
  return out + "]";
}

void AdversaryStructure::prune_and_sort() {
  // Remove any set contained in another; canonicalize order. Input that
  // is already canonical (a parsed canonical text) skips the sort.
  if (!std::is_sorted(maximal_.begin(), maximal_.end()))
    std::sort(maximal_.begin(), maximal_.end());
  maximal_.erase(std::unique(maximal_.begin(), maximal_.end()), maximal_.end());
  // Domination pass, popcount-bucketed: duplicates are gone, so containment
  // between distinct entries is strict and only a strictly *larger* set can
  // dominate. Checking each set against the larger-size suffix of a
  // size-descending index order skips every same-or-smaller candidate —
  // on threshold-style antichains (all sets the same size) the quadratic
  // subset sweep disappears entirely.
  const std::size_t k = maximal_.size();
  if (k <= 1) {  // nothing can dominate; skip the index machinery
    rebuild_cache();
    return;
  }
  std::vector<std::uint32_t> size_of(k);
  for (std::size_t i = 0; i < k; ++i) size_of[i] = static_cast<std::uint32_t>(maximal_[i].size());
  // Order indices by size descending with a counting sort: sizes are tiny
  // integers (≤ the universe), and the comparison sort here was the single
  // largest cost of the deciders' per-B restrictions. Bucket fill order is
  // by ascending index, so the order is stable within a size.
  std::uint32_t max_sz = 0;
  for (std::size_t i = 0; i < k; ++i) max_sz = std::max(max_sz, size_of[i]);
  std::vector<std::uint32_t> slot(max_sz + 2, 0);  // slot[max_sz - s]: next index for size s
  for (std::size_t i = 0; i < k; ++i) ++slot[max_sz - size_of[i] + 1];
  for (std::size_t b = 1; b < slot.size(); ++b) slot[b] += slot[b - 1];
  std::vector<std::uint32_t> by_size_desc(k);
  for (std::size_t i = 0; i < k; ++i)
    by_size_desc[slot[max_sz - size_of[i]]++] = static_cast<std::uint32_t>(i);
  std::vector<NodeSet> keep;
  keep.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    bool dominated = false;
    for (std::uint32_t j : by_size_desc) {
      if (size_of[j] <= size_of[i]) break;  // descending: no dominator past here
      if (maximal_[i].is_subset_of(maximal_[j])) {
        dominated = true;
        break;
      }
    }
    if (!dominated) keep.push_back(maximal_[i]);
  }
  maximal_ = std::move(keep);
  rebuild_cache();
}

void AdversaryStructure::rebuild_cache() {
  support_.clear();
  sizes_.resize(maximal_.size());
  max_size_ = 0;
  for (std::size_t i = 0; i < maximal_.size(); ++i) {
    support_ |= maximal_[i];
    sizes_[i] = static_cast<std::uint32_t>(maximal_[i].size());
    max_size_ = std::max(max_size_, sizes_[i]);
  }
}

}  // namespace rmt
