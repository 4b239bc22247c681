// analysis/feasibility.hpp — one-stop solvability queries.
//
// Ties together the paper's characterizations:
//   * partial knowledge (the paper's main result): solvable ⇔ no RMT-cut
//     (Thms 3 + 5);
//   * ad hoc / Z-CPA: Z-CPA succeeds ⇔ no RMT Z-pp cut (Thms 7 + 8);
//   * full knowledge (classic, [9]/PPA): solvable ⇔ no two admissible sets
//     Z₁, Z₂ ∈ Z whose union separates D from R — recovered here both as
//     an independent "two-cover" decider and as the specialization of
//     the RMT-cut decider to full node views (where Z_B = Z by
//     idempotence, so the RMT-cut collapses to the 2-cover — find_rmt_cut
//     decides such instances by the two-cover first).
#pragma once

#include <optional>

#include "analysis/rmt_cut.hpp"
#include "analysis/zpp_cut.hpp"

namespace rmt::exec {
class ThreadPool;
}

namespace rmt::analysis {

/// Solvability of the instance by *any* safe-and-resilient protocol
/// (= by RMT-PKA, by uniqueness, Cor. 6).
bool solvable(const Instance& inst);

/// Solvability by Z-CPA on this instance (tight for the ad hoc model).
bool solvable_by_zcpa(const Instance& inst);

/// Classic full-knowledge condition: a pair (Z₁, Z₂) of admissible sets
/// covering a D–R cut, if one exists. Independent of γ. Scans the maximal
/// sets' pairs i ≤ j only (the union is symmetric, so the first row-major
/// hit already has i ≤ j), with a one-word BFS when every node id is below
/// 64; returns the first row-major witness. Below 64 node ids the scan runs
/// only after a greedy count of internally disjoint D–R paths stays at or
/// below 2·max|Z|: more paths than that (Menger) leave no pair able to
/// cover a cut, so the answer is nullopt without the scan.
struct TwoCoverWitness {
  NodeSet z1;
  NodeSet z2;
};
std::optional<TwoCoverWitness> find_two_cover_cut(const Graph& g, const AdversaryStructure& z,
                                                  NodeId dealer, NodeId receiver);

/// The test and fuzz oracle: the full row-major NodeSet scan over every
/// (Z₁, Z₂) pair. find_two_cover_cut must return its witness exactly.
std::optional<TwoCoverWitness> find_two_cover_cut_reference(const Graph& g,
                                                            const AdversaryStructure& z,
                                                            NodeId dealer, NodeId receiver);

/// Parallel variant: scans the (Z₁, Z₂) pair grid across `pool` and keeps
/// the lowest row-major witness — identical to the sequential answer at
/// any worker count. pool == nullptr falls back to the sequential scan.
std::optional<TwoCoverWitness> find_two_cover_cut(const Graph& g, const AdversaryStructure& z,
                                                  NodeId dealer, NodeId receiver,
                                                  exec::ThreadPool* pool);

/// Solvability under full knowledge (no two-cover cut).
bool solvable_full_knowledge(const Graph& g, const AdversaryStructure& z, NodeId dealer,
                             NodeId receiver);

/// The three answers of an `analyze` query.
struct Analysis {
  std::optional<RmtCutWitness> rmt_cut;  ///< nullopt ⇔ solvable (Thms 3 + 5)
  bool zcpa_solvable = false;
  bool full_knowledge_solvable = false;
};

/// The served `analyze`: find_rmt_cut, then only the decider its answer
/// leaves open. The characterizations nest — Z-CPA solvable ⇒ RMT solvable
/// ⇒ full-knowledge solvable: every RMT-cut is a Z-pp cut with the same
/// (C₁, C₂, B) (the star floor puts N(u) inside V(γ(u))), and every
/// two-cover is an RMT-cut under any γ. So an RMT-cut skips the Z-pp scan
/// (Z-CPA unsolvable) and its absence skips the two-cover scan (full
/// knowledge solvable). Tests, propcheck and tools/rmt_fuzz never skip:
/// they check this against analyze_reference and both implications.
Analysis analyze(const Instance& inst);

/// All three deciders run unconditionally.
Analysis analyze_reference(const Instance& inst);

}  // namespace rmt::analysis
