#include "adversary/bit_matrix.hpp"

#include <algorithm>

namespace rmt {

CompiledGroup CompiledGroup::complement(const NodeSet& ground,
                                        const std::vector<NodeSet>& antichain) {
  CompiledGroup g;
  // Dedup + domination-prune on the NodeSet level first: distinct maximal
  // sets can leave identical or nested complements inside `ground`.
  std::vector<NodeSet> kept;
  kept.reserve(antichain.size());
  for (const NodeSet& m : antichain) {
    NodeSet r = ground;
    r -= m;
    bool redundant = false;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      if (kept[i].is_subset_of(r)) {
        redundant = true;  // an existing row already implies this one
        break;
      }
    }
    if (redundant) continue;
    std::erase_if(kept, [&](const NodeSet& k) { return r.is_subset_of(k); });
    kept.push_back(std::move(r));
  }
  std::sort(kept.begin(), kept.end());
  for (const NodeSet& r : kept) g.row_words = std::max(g.row_words, r.word_span().count);
  g.count = kept.size();
  g.rows.assign(g.count * g.row_words, 0);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const NodeSet::WordSpan ws = kept[i].word_span();
    for (std::size_t w = 0; w < ws.count; ++w) g.rows[i * g.row_words + w] = ws.words[w];
  }
  return g;
}

void ConjunctionRows::push_group_restride(const CompiledGroup& g) {
  if (g.row_words > words_) {
    // Restride (cold: only when a wider ground arrives). Grow-only, so the
    // exact deciders — one word per row throughout — never take this path.
    const std::size_t old_words = words_;
    const std::size_t nrows = rows_.size() / old_words;
    std::vector<std::uint64_t> wide(nrows * g.row_words, 0);
    for (std::size_t r = 0; r < nrows; ++r)
      for (std::size_t w = 0; w < old_words; ++w)
        wide[r * g.row_words + w] = rows_[r * old_words + w];
    rows_ = std::move(wide);
    words_ = g.row_words;
  }
  const auto begin = static_cast<std::uint32_t>(rows_.size() / words_);
  rows_.resize(rows_.size() + g.count * words_, 0);
  for (std::size_t i = 0; i < g.count; ++i)
    for (std::size_t w = 0; w < g.row_words; ++w)
      rows_[(begin + i) * words_ + w] = g.rows[i * g.row_words + w];
  groups_.push_back(
      {begin, static_cast<std::uint32_t>(begin + g.count)});
}

bool ConjunctionRows::contains_wide(const NodeSet& x) const {
  const NodeSet::WordSpan xs = x.word_span();
  const std::size_t nw = std::min(xs.count, words_);
  for (const RowRange& g : groups_) {
    bool satisfied = false;
    for (std::uint32_t r = g.begin; r < g.end && !satisfied; ++r) {
      std::uint64_t overlap = 0;
      for (std::size_t w = 0; w < nw; ++w) overlap |= xs.words[w] & rows_[r * words_ + w];
      satisfied = overlap == 0;
    }
    if (!satisfied) return false;
  }
  return true;
}

}  // namespace rmt
