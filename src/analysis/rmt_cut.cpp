#include "analysis/rmt_cut.hpp"

#include <limits>
#include <utility>

#include "analysis/feasibility.hpp"
#include "exec/thread_pool.hpp"
#include "graph/cuts.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace rmt::analysis {

namespace {

// The per-B test both find_rmt_cut overloads share, so their witnesses agree
// by construction. B is a cut candidate (graph/cuts.hpp), so C = N(B)
// already excludes D. With C = N(B), the first maximal M (antichain order)
// whose C₂ = C ∖ M passes Thm 1's per-node conjunction, C₂ ∩ V(γ(v)) ∈ Z_v
// for every v ∈ B. A slice x lies inside V(γ(v)), and for such x,
// x ∈ Z_v = Z^{V(γ(v))} iff x ∈ Z (monotonicity), so each slice is tested
// against Z itself. find_rmt_cut_reference keeps the explicit Z_v.
std::optional<RmtCutWitness> cut_at(const Instance& inst, const NodeSet& b) {
  const NodeSet cut = inst.graph().boundary(b);
  const AdversaryStructure& z = inst.adversary();
  for (const NodeSet& m : z.maximal_sets()) {
    NodeSet c2 = cut - m;
    bool member = true;
    b.for_each([&](NodeId v) {
      if (member && !z.contains(c2 & inst.gamma().view_nodes(v))) member = false;
    });
    if (member) return RmtCutWitness{cut & m, std::move(c2), b};
  }
  return std::nullopt;
}

// Full views: V(γ(v)) = V for every v. A property of the input, not a flag.
bool full_views(const Instance& inst) {
  const NodeSet& all = inst.graph().nodes();
  bool full = true;
  all.for_each([&](NodeId v) {
    if (full && inst.gamma().view_nodes(v) != all) full = false;
  });
  return full;
}

// Under full views Z_B = Z (⊕ is idempotent), so an RMT-cut exists iff two
// admissible sets cover a D–R cut. True when that gate already proves the
// instance solvable; the enumeration then has no witness to find.
bool solvable_by_two_cover_gate(const Instance& inst) {
  return full_views(inst) && !find_two_cover_cut(inst.graph(), inst.adversary(), inst.dealer(),
                                                 inst.receiver());
}

}  // namespace

std::optional<RmtCutWitness> find_rmt_cut(const Instance& inst) {
  RMT_OBS_SCOPE("rmt_cut.find");
  RMT_TRACE_SPAN("rmt_cut.find");
  RMT_REQUIRE(inst.num_players() <= kMaxExactNodes,
              "find_rmt_cut: instance too large for the exact decider");
  RMT_AUDIT_VALIDATE(inst);
  if (solvable_by_two_cover_gate(inst)) return std::nullopt;
  std::optional<RmtCutWitness> witness;
  enumerate_cut_candidates(inst.graph(), inst.dealer(), inst.receiver(), [&](const NodeSet& b) {
    witness = cut_at(inst, b);
    return !witness.has_value();
  });
  return witness;
}

std::optional<RmtCutWitness> find_rmt_cut_reference(const Instance& inst) {
  RMT_OBS_SCOPE("rmt_cut.find");
  RMT_TRACE_SPAN("rmt_cut.find");
  RMT_REQUIRE(inst.num_players() <= kMaxExactNodes,
              "find_rmt_cut: instance too large for the exact decider");
  RMT_AUDIT_VALIDATE(inst);
  const Graph& g = inst.graph();
  const NodeId d = inst.dealer();
  const NodeId r = inst.receiver();

  // Local structures are instance-wide constants; compute them once, not
  // once per enumerated component.
  std::vector<AdversaryStructure> local_z(g.capacity());
  g.nodes().for_each([&](NodeId v) { local_z[v] = inst.local_structure(v); });

  std::optional<RmtCutWitness> witness;
  enumerate_connected_subsets(g, r, NodeSet::single(d), [&](const NodeSet& b) {
    const NodeSet cut = g.boundary(b);
    if (cut.contains(d)) return true;  // D may not sit inside the cut
    // Z_B membership spelled out per the definition: x ∈ ⊕_{v∈B} Z_v^{Γ(v)}
    // iff every node's slice x ∩ Γ(v) lies in Z_v^{Γ(v)}. The slice is a
    // subset of Γ(v), so membership in the restriction equals membership in
    // Z_v itself — no restricted structures, no conjunction compilation;
    // this is the oracle the shipped decider is checked against.
    for (const NodeSet& m : inst.adversary().maximal_sets()) {
      const NodeSet c2 = cut - m;
      bool member = true;
      b.for_each([&](NodeId v) {
        if (member && !local_z[v].contains(c2 & inst.gamma().view_nodes(v))) member = false;
      });
      if (member) {
        witness = RmtCutWitness{cut & m, c2, b};
        return false;  // stop enumeration
      }
    }
    return true;
  });
  return witness;
}

std::optional<RmtCutWitness> find_rmt_cut(const Instance& inst, exec::ThreadPool* pool) {
  if (pool == nullptr || pool->num_workers() <= 1) return find_rmt_cut(inst);
  RMT_OBS_SCOPE("rmt_cut.find");
  RMT_TRACE_SPAN("rmt_cut.find");
  RMT_REQUIRE(inst.num_players() <= kMaxExactNodes,
              "find_rmt_cut: instance too large for the exact decider");
  RMT_AUDIT_VALIDATE(inst);
  if (solvable_by_two_cover_gate(inst)) return std::nullopt;

  // The enumeration itself is a sequential DFS, so the pipeline is:
  // collect a batch of candidate Bs, fan the batch out over the pool,
  // keep the lowest-index witness (== the first in enumeration order, so
  // the answer matches the sequential decider bit for bit), stop at the
  // first batch that produced one.
  struct First {
    std::size_t index = std::numeric_limits<std::size_t>::max();
    std::optional<RmtCutWitness> w;
  };
  const std::size_t batch_size = 64 * pool->num_workers();
  std::vector<NodeSet> batch;
  batch.reserve(batch_size);
  std::optional<RmtCutWitness> witness;

  const auto flush = [&]() {
    if (batch.empty() || witness) return;
    First f = exec::parallel_reduce<First>(
        pool, 0, batch.size(), exec::suggest_grain(batch.size(), pool), First{},
        [&](std::size_t lo, std::size_t hi) {
          First p;
          for (std::size_t i = lo; i < hi; ++i) {
            if (std::optional<RmtCutWitness> w = cut_at(inst, batch[i])) {
              p.index = i;
              p.w = std::move(w);
              break;  // lowest index within the chunk; rest cannot win
            }
          }
          return p;
        },
        [](First a, First b2) { return a.index <= b2.index ? std::move(a) : std::move(b2); });
    batch.clear();
    if (f.w) witness = std::move(*f.w);
  };

  enumerate_cut_candidates(inst.graph(), inst.dealer(), inst.receiver(), [&](const NodeSet& b) {
    batch.push_back(b);
    if (batch.size() >= batch_size) flush();
    return !witness.has_value();
  });
  flush();
  return witness;
}

bool rmt_cut_exists(const Instance& inst) { return find_rmt_cut(inst).has_value(); }

}  // namespace rmt::analysis
