// analysis/rmt_cut.hpp — the RMT-cut of Definition 3 and its exact decider.
//
//   Let C = C₁ ∪ C₂ be a cut in G partitioning V∖C into A, B' ≠ ∅ with
//   D ∈ A, R ∈ B', and let B be the connected component of R. C is an
//   RMT-cut iff C₁ ∈ Z and C₂ ∩ V(γ(B)) ∈ Z_B.
//
// Theorems 3 + 5: an RMT-cut exists iff *no* safe-and-resilient RMT
// algorithm exists for the instance — so this decider *is* the
// solvability test for the partial knowledge model.
//
// Exactness via two WLOG reductions (both from monotonicity):
//   1. It suffices to scan cuts of the form C = N(B) for connected B ∋ R
//      with D ∉ B ∪ N(B): if (C, C₁, C₂) qualifies with R-component B,
//      then N(B) ⊆ C and the restricted split (N(B)∩C₁, N(B)∩C₂) also
//      qualifies (subsets stay admissible in Z and in the monotone Z_B).
//   2. It suffices to try C₁ = N(B) ∩ M for each *maximal* M ∈ Z: any
//      admissible C₁ is inside some M, and shrinking C₂ to N(B)∖M only
//      helps.
// The scan is exponential in |G| (connected-subset enumeration) — the
// objects quantified over are exponential; instance sizes are guarded.
#pragma once

#include <optional>

#include "instance/instance.hpp"

namespace rmt::exec {
class ThreadPool;
}

namespace rmt::analysis {

/// A concrete RMT-cut, returned as proof of infeasibility.
struct RmtCutWitness {
  NodeSet c1;  ///< the part covered by an admissible set (C₁ ∈ Z)
  NodeSet c2;  ///< the part the receiver side cannot rule out
  NodeSet b;   ///< the connected component of R after removing C₁ ∪ C₂
};

/// Upper bound on instance size accepted by the exact deciders.
inline constexpr std::size_t kMaxExactNodes = 26;

/// Find an RMT-cut, or nullopt if none exists (⇒ RMT-PKA succeeds, Thm 5).
/// Requires num_players() <= kMaxExactNodes.
///
/// The definitional scan: enumerate connected B ∋ R, and per B test each
/// maximal M with Thm 1's per-node conjunction (one test per M). When every
/// view covers all of V, Z_B = Z and an RMT-cut exists iff a two-cover does
/// (find_two_cover_cut), so the two-cover decides first and the enumeration
/// runs only to produce an unsolvable instance's witness — the same first
/// witness in the same enumeration and antichain order.
std::optional<RmtCutWitness> find_rmt_cut(const Instance& inst);

/// The test and fuzz oracle: the same scan with every per-node slice tested
/// against the explicit local structure Z_v = Z^{V(γ(v))}, and no gate.
/// Tests and tools/rmt_fuzz assert find_rmt_cut returns this witness bit
/// for bit; bench_decider_hotpath measures the gap as BENCH_decider.json.
std::optional<RmtCutWitness> find_rmt_cut_reference(const Instance& inst);

/// Parallel decider: batches the connected-subset enumeration and
/// evaluates each batch across `pool` with the sequential per-B test,
/// keeping the lowest-index witness — so the returned witness is exactly
/// the sequential one at any worker count. pool == nullptr (or a
/// one-worker pool) falls back to the sequential scan above.
std::optional<RmtCutWitness> find_rmt_cut(const Instance& inst, exec::ThreadPool* pool);

bool rmt_cut_exists(const Instance& inst);

}  // namespace rmt::analysis
