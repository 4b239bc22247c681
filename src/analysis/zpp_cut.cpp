#include "analysis/zpp_cut.hpp"

#include <limits>
#include <utility>
#include <vector>

#include "adversary/bit_matrix.hpp"
#include "analysis/rmt_cut.hpp"
#include "exec/thread_pool.hpp"
#include "graph/cuts.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace rmt::analysis {

namespace {

inline constexpr std::size_t kC2MemoSlots = 16;
inline constexpr std::size_t kC2Chunk = 16;

// The per-node plausibility constraint "N(u) ∩ C₂ ∈ Z_u", compiled to
// forbidden rows (bit_matrix.hpp): with M ranging over the maximal sets of
// Z_u, N(u) ∩ C₂ ⊆ M ⇔ C₂ ∩ (N(u) ∖ M) = ∅ (N(u)∩C₂ ⊆ N(u) makes the
// unrestricted maximal sets valid here). The whole per-B plausibility loop
// is then one ConjunctionRows probe over B's group stack.
std::vector<CompiledGroup> node_plausibility_groups(
    const Graph& g, const std::vector<AdversaryStructure>& local_z) {
  std::vector<CompiledGroup> groups(g.capacity());
  g.nodes().for_each([&](NodeId v) {
    groups[v] = CompiledGroup::complement(g.neighbors(v), local_z[v].maximal_sets());
  });
  return groups;
}

// The per-(B, C) maximal-set scan shared by the sequential and pooled
// deciders. Distinct C₂ = C ∖ M repeat across maximal sets whenever two M
// miss the (small) cut identically; the few distinct plausibility answers
// are memoized per B, and each chunk's new distinct C₂ go to the compiled
// rows as one probe_batch call. Batching and the memo only short-circuit
// *identical* tests, so the first qualifying M in canonical order still
// wins (witness identity).
std::optional<ZppCutWitness> scan_maximal_sets(const NodeSet& b, const NodeSet& cut,
                                               const ConjunctionRows& rows,
                                               const std::vector<NodeSet>& zmax) {
  if (zmax.size() == 1) {
    // One maximal set: a single plausibility probe decides the visit.
    NodeSet c2 = cut;
    c2 -= zmax[0];
    if (rows.contains(c2)) return ZppCutWitness{cut & zmax[0], std::move(c2), b};
    return std::nullopt;
  }
  NodeSet seen[kC2MemoSlots];
  bool ans[kC2MemoSlots];
  std::size_t nseen = 0;
  if (zmax.size() < kC2Chunk) {
    // Small antichains probe one by one: the chunk staging below costs
    // more than it amortizes.
    for (const NodeSet& m : zmax) {
      NodeSet c2 = cut;
      c2 -= m;
      bool plausible = false;
      bool cached = false;
      for (std::size_t i = 0; i < nseen; ++i) {
        if (seen[i] == c2) {
          plausible = ans[i];
          cached = true;
          break;
        }
      }
      if (!cached) {
        plausible = rows.contains(c2);
        if (nseen < kC2MemoSlots) {
          seen[nseen] = c2;
          ans[nseen] = plausible;
          ++nseen;
        }
      }
      if (plausible) return ZppCutWitness{cut & m, std::move(c2), b};
    }
    return std::nullopt;
  }
  NodeSet c2s[kC2Chunk];
  bool plausible[kC2Chunk];
  std::size_t fresh[kC2Chunk];
  NodeSet batch[kC2Chunk];
  bool batch_ans[kC2Chunk];
  std::size_t owner[kC2Chunk];
  for (std::size_t base = 0; base < zmax.size(); base += kC2Chunk) {
    const std::size_t len = std::min(kC2Chunk, zmax.size() - base);
    std::size_t nbatch = 0;
    for (std::size_t j = 0; j < len; ++j) {
      c2s[j] = cut;
      c2s[j] -= zmax[base + j];
      fresh[j] = kC2Chunk;
      bool cached = false;
      for (std::size_t i = 0; i < nseen; ++i) {
        if (seen[i] == c2s[j]) {
          plausible[j] = ans[i];
          cached = true;
          break;
        }
      }
      if (cached) continue;
      for (std::size_t i = 0; i < nbatch; ++i) {
        if (batch[i] == c2s[j]) {
          fresh[j] = i;
          cached = true;
          break;
        }
      }
      if (cached) continue;
      batch[nbatch] = c2s[j];
      owner[nbatch] = j;
      fresh[j] = nbatch;
      ++nbatch;
    }
    if (nbatch > 0) rows.probe_batch(batch, nbatch, batch_ans);
    for (std::size_t j = 0; j < len; ++j) {
      if (fresh[j] != kC2Chunk) {
        plausible[j] = batch_ans[fresh[j]];
        if (owner[fresh[j]] == j && nseen < kC2MemoSlots) {
          seen[nseen] = c2s[j];
          ans[nseen] = plausible[j];
          ++nseen;
        }
      }
      if (plausible[j])
        return ZppCutWitness{cut & zmax[base + j], std::move(c2s[j]), b};
    }
  }
  return std::nullopt;
}

// Incremental decider state, driven by the push/pop enumeration of cut
// candidates (graph/cuts.hpp, so N(B) never contains D): the neighbour
// union ∪_{v∈B} N(v) and the compiled-row stack follow the DFS by push/pop
// deltas; N(B) = ∪N(v) ∖ B per visit. A push is one precompiled row-group
// append — no restriction, no NodeSet temporaries.
struct IncrementalScan {
  const Graph& g;
  const std::vector<CompiledGroup>& node_groups;
  const std::vector<NodeSet>& zmax;
  NodeSet nbrs;
  ConjunctionRows rows;
  std::vector<NodeSet> nbrs_save;
  std::optional<ZppCutWitness> witness;

  void push(NodeId v) {
    rows.push_group(node_groups[v]);
    nbrs_save.push_back(nbrs);
    nbrs |= g.neighbors(v);
  }

  void pop(NodeId) {
    rows.pop_group();
    nbrs = std::move(nbrs_save.back());
    nbrs_save.pop_back();
  }

  bool visit(const NodeSet& b) {
    NodeSet cut = nbrs;
    cut -= b;
    witness = scan_maximal_sets(b, cut, rows, zmax);
    return !witness.has_value();
  }
};

std::vector<AdversaryStructure> local_structures(const Instance& inst) {
  std::vector<AdversaryStructure> local_z(inst.graph().capacity());
  inst.graph().nodes().for_each([&](NodeId v) { local_z[v] = inst.local_structure(v); });
  return local_z;
}

}  // namespace

std::optional<ZppCutWitness> find_rmt_zpp_cut(const Instance& inst) {
  RMT_OBS_SCOPE("zpp_cut.find");
  RMT_TRACE_SPAN("zpp_cut.find");
  RMT_REQUIRE(inst.num_players() <= kMaxExactNodes,
              "find_rmt_zpp_cut: instance too large for the exact decider");
  RMT_AUDIT_VALIDATE(inst);
  const Graph& g = inst.graph();
  const std::vector<AdversaryStructure> local_z = local_structures(inst);
  const std::vector<CompiledGroup> node_groups = node_plausibility_groups(g, local_z);

  IncrementalScan scan{g, node_groups, inst.adversary().maximal_sets(), {}, {}, {}, {}};
  scan.rows.reserve(g.capacity(), g.capacity());
  scan.nbrs_save.reserve(g.capacity() + 1);
  enumerate_cut_candidates_incremental(g, inst.dealer(), inst.receiver(), scan);
  return std::move(scan.witness);
}

std::optional<ZppCutWitness> find_rmt_zpp_cut_reference(const Instance& inst) {
  RMT_OBS_SCOPE("zpp_cut.find");
  RMT_TRACE_SPAN("zpp_cut.find");
  RMT_REQUIRE(inst.num_players() <= kMaxExactNodes,
              "find_rmt_zpp_cut: instance too large for the exact decider");
  RMT_AUDIT_VALIDATE(inst);
  const Graph& g = inst.graph();
  const NodeId d = inst.dealer();
  const NodeId r = inst.receiver();
  const std::vector<AdversaryStructure> local_z = local_structures(inst);

  std::optional<ZppCutWitness> witness;
  enumerate_connected_subsets(g, r, NodeSet::single(d), [&](const NodeSet& b) {
    const NodeSet cut = g.boundary(b);
    if (cut.contains(d)) return true;
    for (const NodeSet& m : inst.adversary().maximal_sets()) {
      const NodeSet c2 = cut - m;
      bool plausible = true;
      b.for_each([&](NodeId u) {
        if (plausible && !local_z[u].contains(g.neighbors(u) & c2)) plausible = false;
      });
      if (plausible) {
        witness = ZppCutWitness{cut & m, c2, b};
        return false;
      }
    }
    return true;
  });
  return witness;
}

std::optional<ZppCutWitness> find_rmt_zpp_cut(const Instance& inst, exec::ThreadPool* pool) {
  if (pool == nullptr || pool->num_workers() <= 1) return find_rmt_zpp_cut(inst);
  RMT_OBS_SCOPE("zpp_cut.find");
  RMT_TRACE_SPAN("zpp_cut.find");
  RMT_REQUIRE(inst.num_players() <= kMaxExactNodes,
              "find_rmt_zpp_cut: instance too large for the exact decider");
  RMT_AUDIT_VALIDATE(inst);
  const Graph& g = inst.graph();
  const std::vector<AdversaryStructure> local_z = local_structures(inst);
  const std::vector<CompiledGroup> node_groups = node_plausibility_groups(g, local_z);
  const std::vector<NodeSet>& zmax = inst.adversary().maximal_sets();

  const auto eval_b = [&](const NodeSet& b) -> std::optional<ZppCutWitness> {
    const NodeSet cut = g.boundary(b);
    ConjunctionRows rows;
    b.for_each([&](NodeId v) { rows.push_group(node_groups[v]); });
    return scan_maximal_sets(b, cut, rows, zmax);
  };

  // Same batched scan as the pooled find_rmt_cut: lowest-index witness ==
  // the sequential witness at any worker count.
  struct First {
    std::size_t index = std::numeric_limits<std::size_t>::max();
    std::optional<ZppCutWitness> w;
  };
  const std::size_t batch_size = 64 * pool->num_workers();
  std::vector<NodeSet> batch;
  batch.reserve(batch_size);
  std::optional<ZppCutWitness> witness;

  const auto flush = [&]() {
    if (batch.empty() || witness) return;
    First f = exec::parallel_reduce<First>(
        pool, 0, batch.size(), exec::suggest_grain(batch.size(), pool), First{},
        [&](std::size_t lo, std::size_t hi) {
          First p;
          for (std::size_t i = lo; i < hi; ++i) {
            if (std::optional<ZppCutWitness> w = eval_b(batch[i])) {
              p.index = i;
              p.w = std::move(w);
              break;
            }
          }
          return p;
        },
        [](First a, First b2) { return a.index <= b2.index ? std::move(a) : std::move(b2); });
    batch.clear();
    if (f.w) witness = std::move(*f.w);
  };

  enumerate_cut_candidates(g, inst.dealer(), inst.receiver(), [&](const NodeSet& b) {
    batch.push_back(b);
    if (batch.size() >= batch_size) flush();
    return !witness.has_value();
  });
  flush();
  return witness;
}

bool rmt_zpp_cut_exists(const Instance& inst) { return find_rmt_zpp_cut(inst).has_value(); }

bool zpp_cut_exists_broadcast(const Graph& g, const AdversaryStructure& z, NodeId dealer) {
  const NodeSet corruptible = z.support();
  bool exists = false;
  g.nodes().for_each([&](NodeId r) {
    if (exists || r == dealer || corruptible.contains(r)) return;
    const Instance inst = Instance::ad_hoc(g, z, dealer, r);
    if (rmt_zpp_cut_exists(inst)) exists = true;
  });
  return exists;
}

}  // namespace rmt::analysis
