#include "adversary/joint.hpp"

namespace rmt {

void JointStructure::add_constraint(const NodeSet& ground, const AdversaryStructure& z) {
  constraints_.emplace_back(z, ground);
  rows_.push_group(constraints_.back().compiled());
}

void JointStructure::add_constraint(const RestrictedStructure& c) {
  constraints_.push_back(c);
  rows_.push_group(constraints_.back().compiled());
}

NodeSet JointStructure::ground() const {
  NodeSet g;
  for (const RestrictedStructure& c : constraints_) g |= c.ground();
  return g;
}

RestrictedStructure JointStructure::materialize() const {
  if (constraints_.empty()) {
    // Join over the empty index set: the unique structure over ∅ that
    // contains ∅ (consistent with contains(): every X ∩ ∅ = ∅ is a member).
    return RestrictedStructure(AdversaryStructure::trivial(), NodeSet{});
  }
  RestrictedStructure acc = constraints_.front();
  for (std::size_t i = 1; i < constraints_.size(); ++i) acc = oplus(acc, constraints_[i]);
  return acc;
}

}  // namespace rmt
