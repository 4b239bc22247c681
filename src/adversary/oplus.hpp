// adversary/oplus.hpp — the joint-view operation ⊕ on adversary structures
// (paper §2, Definition 2, Appendix A).
//
//   E^A ⊕ F^B = { Z₁ ∪ Z₂ | Z₁ ∈ E^A, Z₂ ∈ F^B, Z₁ ∩ B = Z₂ ∩ A }
//
// The computational key (derived from Theorem 1 / Corollary 2, proved in
// the antichain construction below) is the *conjunction characterization*:
// for X ⊆ A ∪ B,
//
//   X ∈ E^A ⊕ F^B   ⇔   X ∩ A ∈ E^A  and  X ∩ B ∈ F^B.
//
// (⇐) take Z₁ = X∩A, Z₂ = X∩B: they agree on A∩B and unite to X.
// (⇒) if X = Z₁∪Z₂ with Z₁∩B = Z₂∩A then X∩A = Z₁ ∪ (Z₂∩A) = Z₁ since
//     Z₂∩A = Z₁∩B ⊆ Z₁, and symmetrically X∩B = Z₂.
//
// Consequently the maximal sets of the join, for maximal M₁ ∈ E^A and
// M₂ ∈ F^B, are X(M₁,M₂) = (M₁∖B) ∪ (M₂∖A) ∪ (M₁∩M₂): inside A∩B a node
// must sit in both, inside A∖B in M₁, inside B∖A in M₂. The antichain of
// the join is the pruned set of all such X(M₁,M₂) — an O(|E|·|F|) exact
// materialization used by the algebra tests. Protocol code uses the lazy
// conjunction form instead (joint.hpp) which never materializes.
#pragma once

#include <string>

#include "adversary/bit_matrix.hpp"
#include "adversary/structure.hpp"

namespace rmt {

/// An adversary structure together with the node set it is a structure
/// *over* — the object the ⊕ algebra is defined on ("(E, A) ∈ S" in
/// Theorem 15). Invariant: every admissible set is a subset of `ground`.
class RestrictedStructure {
 public:
  RestrictedStructure() = default;

  /// Restrict `z` to `ground`: carries Z^ground over ground.
  RestrictedStructure(const AdversaryStructure& z, NodeSet ground);

  const AdversaryStructure& family() const { return family_; }
  const NodeSet& ground() const { return ground_; }

  bool contains(const NodeSet& x) const { return family_.contains(x); }

  /// The constraint's precompiled forbidden rows ground ∖ M (see
  /// adversary/bit_matrix.hpp): x ∩ ground ∈ family ⇔ some row is disjoint
  /// from x. Built once at construction; JointStructure appends these rows
  /// instead of re-deriving them per membership test.
  const CompiledGroup& compiled() const { return compiled_; }

  /// Semilattice equality: same ground set and same family.
  friend bool operator==(const RestrictedStructure& a, const RestrictedStructure& b) {
    return a.ground_ == b.ground_ && a.family_ == b.family_;
  }

  std::string to_string() const;

  /// Deep invariant check (rmt::audit): the family is canonical and every
  /// admissible set lies inside `ground`. Throws audit::AuditError.
  void debug_validate() const;

 private:
  friend struct AuditTestAccess;  // tests corrupt internals to prove detection

  AdversaryStructure family_;
  NodeSet ground_;
  CompiledGroup compiled_;  // derived cache; debug_validate re-derives it
};

/// The ⊕ join of Definition 2, materialized exactly on antichains.
RestrictedStructure oplus(const RestrictedStructure& a, const RestrictedStructure& b);

}  // namespace rmt
