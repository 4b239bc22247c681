// check/reference_pka_decision.hpp — RMT-PKA's receiver decision as it
// was before the cheaper predicates and the exact search, kept as a
// differential oracle.
//
// protocols::pka_decide pins the receiver's own report without copying
// the report map, builds G_M in place, decides each cover test as a
// per-node conjunction over the claimed structures, and searches V_M by
// branching on undelivered paths. This is the decision it replaced, kept
// as it was but for G_M and the budgets: the report map copied on every
// call, each candidate B's Z_B tested on the explicit restrictions
// Z_v^{V(γ(v))} of its members, every V_M mask counted down from all
// subjects, and G_M rebuilt node by node and edge by edge (the per-edge
// union and induction Graph used before its row-wise operations, inlined
// so the reference shares neither with pka_decide).
// Its masks count against DeciderLimits::max_subsets, and its cover scan
// counts the B whose cut excludes D against max_cover_sets; pka_decide's
// scan skips the B below a failing locked boundary and counts only the B
// it tests, so its cover budget binds no earlier. Tests and
// bench_decider_hotpath check that pka_decide returns the same value and
// the same DeciderStats in greedy mode, and the same value in exhaustive
// mode, wherever neither side ran out of budget;
// RmtPka takes it as its decision function to replay whole simulations
// against it. Only tests, benches and the fuzzer call it.
#pragma once

#include <optional>

#include "protocols/pka_decision.hpp"

namespace rmt::propcheck {

using protocols::DeciderLimits;
using protocols::DeciderMode;
using protocols::DeciderStats;
using protocols::DecisionInput;

/// Same contract as protocols::pka_decide.
std::optional<sim::Value> reference_pka_decide(const DecisionInput& in, DeciderMode mode,
                                               const DeciderLimits& limits,
                                               DeciderStats* stats = nullptr);

/// Defs. 5 and 6 on one message set, by this file's definitions and with
/// no budget: the subjects `vm`, each with the first of its versions (R
/// with the receiver's own knowledge), and value x's delivered trails.
struct MessageSetJudgement {
  std::size_t paths = 0;        ///< simple D–R paths of G_M
  std::size_t undelivered = 0;  ///< of those, the ones missing from x's trails
  bool covered = false;         ///< some adversary cover exists (Def. 6)
  bool full() const { return paths > 0 && undelivered == 0; }
};
MessageSetJudgement reference_judge(const DecisionInput& in, sim::Value x, const NodeSet& vm);

}  // namespace rmt::propcheck
