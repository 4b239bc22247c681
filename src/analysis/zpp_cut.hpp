// analysis/zpp_cut.hpp — partial-pair cuts for the ad hoc model.
//
// Definition 7 (RMT Z-pp cut): a cut C partitioning V∖C into A ∋ D and
// B ∋ R such that C = C₁ ∪ C₂ with C₁ ∈ Z and ∀u ∈ B: N(u) ∩ C₂ ∈ Z_u.
// Theorems 7 + 8: Z-CPA achieves RMT iff no RMT Z-pp cut exists — the
// tight ad hoc condition.
//
// Definition 10 (Z-pp cut, [13]): the broadcast version — B is any
// non-empty dealer-free side, not necessarily containing a designated
// receiver. A Z-pp cut exists iff an RMT Z-pp cut exists towards *some*
// receiver (split B into components, pick any node of one as the
// receiver), which is how broadcast feasibility is decided here.
//
// The same two WLOG reductions as in rmt_cut.hpp apply (C = N(B) for
// connected B; C₁ = N(B) ∩ M per maximal M ∈ Z).
//
// Z_u here is the node's local structure under the instance's γ; on ad hoc
// instances this is exactly the Z_u = Z^{N[u]} of the paper. The deciders
// accept any γ, in which case they characterize Z-CPA (a protocol that
// only ever uses neighborhood knowledge) on that instance.
#pragma once

#include <optional>

#include "instance/instance.hpp"

namespace rmt::analysis {

struct ZppCutWitness {
  NodeSet c1;  ///< C₁ ∈ Z
  NodeSet c2;  ///< locally plausible part: ∀u ∈ B, N(u) ∩ C₂ ∈ Z_u
  NodeSet b;   ///< receiver-side component
};

/// Find an RMT Z-pp cut (Def. 7), or nullopt (⇒ Z-CPA succeeds, Thm 7).
/// find_rmt_cut's per-B scan (analysis/cut_scan.hpp) with the slice N(u)
/// in place of V(γ(u)): each slice N(u) ∩ C₂ is tested against Z itself,
/// which answers as Z_u does because the view floor puts N(u) inside
/// V(γ(u)), and every subtree whose locked boundary fails is skipped.
/// Allocation-free at kMaxExactNodes.
std::optional<ZppCutWitness> find_rmt_zpp_cut(const Instance& inst);

/// The straightforward per-B decider against the explicit local structures
/// Z_u, kept as the cross-check baseline for witness identity and the
/// BENCH_decider.json comparison.
std::optional<ZppCutWitness> find_rmt_zpp_cut_reference(const Instance& inst);

bool rmt_zpp_cut_exists(const Instance& inst);

/// Broadcast Z-pp cut (Def. 10) existence on (G, Z) with dealer D:
/// true iff broadcast by Z-CPA is impossible for some honest receiver.
/// γ is taken ad hoc, matching the model of [13].
bool zpp_cut_exists_broadcast(const Graph& g, const AdversaryStructure& z, NodeId dealer);

}  // namespace rmt::analysis
