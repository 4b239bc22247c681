// check/reference_pka_decision.hpp — RMT-PKA's receiver decision as it
// was before the cheaper predicates, kept as a differential oracle.
//
// protocols::pka_decide pins the receiver's own report without copying
// the report map, builds G_M in place, and decides each cover test as a
// per-node conjunction over the claimed structures. This is the decision
// it replaced, kept verbatim but for G_M: the report map copied on every
// call, one JointStructure per candidate B, and G_M rebuilt node by node
// and edge by edge (the per-edge union and induction Graph used before
// its row-wise operations, inlined so the reference shares neither with
// pka_decide). Tests and bench_decider_hotpath check that pka_decide
// returns the same value and the same DeciderStats on every input; RmtPka
// takes it as its decision function to replay whole simulations against
// it. Only tests, benches and the fuzzer call it.
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

}  // namespace rmt::propcheck
