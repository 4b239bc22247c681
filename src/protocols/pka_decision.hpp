// protocols/pka_decision.hpp — the receiver-side decision subroutine of
// RMT-PKA (Protocol 1, §3.1).
//
// The paper's rule is nondeterministic: "if R receives a full set M with
// value(M) = x and ∄ an adversary cover for M then return x". Concretely
// the receiver must *search* its received messages for a subset M that is
//   * valid (Def. 4): all type-1 messages carry the same value x, and at
//     most one (γ(u), Z_u) version per subject u;
//   * full (Def. 5): every simple D–R path of the reconstructed graph G_M
//     appears among M's type-1 trails;
//   * cover-free (Def. 6): no cut C of G_M between D and R satisfies
//     C ∩ V(γ(B)) ∈ Z_B for B the receiver-side component, with γ and Z_B
//     computed from M's *claimed* views and structures.
//
// A valid M is determined by (a) a value x, (b) a *snapshot* — one chosen
// version per subject — and (c) the subject subset V_M. The search is
// therefore: for each value, for each snapshot (branching only where the
// adversary created conflicting versions), for each V_M ∋ D, R.
//
// Two search modes:
//   * kExhaustive — an exact search over V_M (within budgets); matches the
//     tight characterization: decides whenever no RMT-cut exists (Thm 5).
//     Fullness and having a cover are both downward closed in V_M, so it
//     starts from all subjects, drops every covered V_M with its subsets,
//     and branches only on the ways to lose one undelivered D–R path
//     (DESIGN.md §1).
//   * kGreedy — starts from V_M = all subjects and peels nodes that break
//     fullness; fast, may abstain on crafted inputs, and abstains on a
//     snapshot whose path walk the path budget truncates.
// Both are *safe unconditionally*: Theorem 4 holds for ANY full cover-free
// M, so no search order can produce a wrong decision; budgets only ever
// cause abstention.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "adversary/structure.hpp"
#include "graph/paths.hpp"
#include "knowledge/local_knowledge.hpp"
#include "sim/message.hpp"

namespace rmt::protocols {

/// One claimed (u, γ(u), Z_u) version, as reconstructed from type-2
/// messages (trails stripped — only content identity matters for Def. 4).
struct NodeReport {
  NodeId subject = 0;
  Graph view;
  AdversaryStructure local_z;
  friend bool operator==(const NodeReport&, const NodeReport&) = default;
};

/// Everything the receiver has accumulated, in decision-ready form.
struct DecisionInput {
  NodeId dealer = 0;
  NodeId receiver = 0;
  /// The receiver's own γ(R), Z_R — ground truth for subject R.
  LocalKnowledge receiver_knowledge;
  /// Set when (x_D, {D}) arrived straight from the dealer (dealer rule).
  std::optional<sim::Value> direct_value;
  /// value → set of complete D..R trails that delivered it.
  std::map<sim::Value, std::set<Path>> type1;
  /// subject → distinct claimed versions (conflicts ⇒ adversary at work).
  std::map<NodeId, std::vector<NodeReport>> reports;
};

enum class DeciderMode { kExhaustive, kGreedy };

struct DeciderLimits {
  std::size_t max_snapshots = 64;         ///< version-combination budget
  std::size_t max_subsets = 1u << 14;     ///< V_M candidates tested per call
  std::size_t max_paths = 4096;           ///< per fullness check
  std::size_t max_cover_sets = 1u << 16;  ///< cut-candidate B budget per cover check
};

struct DeciderStats {
  std::size_t snapshots = 0;
  std::size_t subsets_tried = 0;  ///< V_M candidates tested
  std::size_t fullness_checks = 0;
  std::size_t cover_checks = 0;
  bool budget_exhausted = false;  ///< some branch was abandoned for cost
  /// On success: the V_M of the accepted full message set — the witness a
  /// receiver can log to *explain* its decision (which reports it trusted).
  std::optional<NodeSet> decided_vm;
};

/// The decision subroutine. Returns the decided value or ⊥.
std::optional<sim::Value> pka_decide(const DecisionInput& in, DeciderMode mode,
                                     const DeciderLimits& limits, DeciderStats* stats = nullptr);

}  // namespace rmt::protocols
