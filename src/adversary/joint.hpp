// adversary/joint.hpp — lazy joint adversary structures.
//
// The paper constantly evaluates membership in joins like
//
//   Z_B = ⊕_{v ∈ B} Z^{V(γ(v))}          (§2)
//
// whose explicit antichain can blow up multiplicatively per operand. By the
// conjunction characterization (oplus.hpp, a consequence of Theorem 1 and
// associativity, Thm 13):
//
//   X ∈ ⊕_i E_i^{A_i}   ⇔   ∀i:  X ∩ A_i ∈ E_i^{A_i}
//
// so membership can be decided against the *constraint list* directly, in
// O(Σ_i |E_i|) set operations, without ever materializing the join. That is
// what JointStructure does; materialize() folds the explicit ⊕ for
// cross-validation and for small-instance tooling.
//
// This is exactly how a receiver "safely utilizes the maximal valid
// information" from other players' reported local structures: the join is
// the *largest* structure consistent with every report (Thm 1), so testing
// a candidate cut against it is sound no matter which report came from a
// liar — lies only ever shrink the honest players' options, never create
// false negatives for the true structure (Cor. 2: Z^{∪A_i} ⊆ ⊕ Z^{A_i}).
#pragma once

#include <vector>

#include "adversary/bit_matrix.hpp"
#include "adversary/oplus.hpp"

namespace rmt {

class JointStructure {
 public:
  /// Add the constraint "restricted to `ground`, the structure looks like
  /// z^ground". Typically: add_constraint(V(γ(v)), Z_v) for each v ∈ B.
  void add_constraint(const NodeSet& ground, const AdversaryStructure& z);

  /// Add a constraint whose restriction was already computed (copied).
  void add_constraint(const RestrictedStructure& c);

  /// Conjunction membership test (see header), evaluated against the
  /// compiled forbidden rows (adversary/bit_matrix.hpp) with the SIMD
  /// kernels. With no constraints every set is a member (the join over an
  /// empty index set is the full structure over ∅ — every X restricted to
  /// ∅ is ∅ ∈ anything monotone); callers that need a stricter default add
  /// constraints first.
  bool contains(const NodeSet& x) const { return rows_.contains(x); }

  /// Union of constraint grounds — the ground set of the join.
  NodeSet ground() const;

  std::size_t num_constraints() const { return constraints_.size(); }

  /// Fold the explicit ⊕ over all constraints (exponential-size output
  /// possible; for tests and small tooling).
  RestrictedStructure materialize() const;

 private:
  std::vector<RestrictedStructure> constraints_;
  ConjunctionRows rows_;  // compiled rows, one group per constraint
};

}  // namespace rmt
