#include "adversary/oplus.hpp"

#include <vector>

#include "obs/phase.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace rmt {

RestrictedStructure::RestrictedStructure(const AdversaryStructure& z, NodeSet ground)
    : family_(z.restricted_to(ground)), ground_(std::move(ground)) {}

std::string RestrictedStructure::to_string() const {
  return family_.to_string() + "^" + ground_.to_string();
}

void RestrictedStructure::debug_validate() const {
  family_.debug_validate();
  ground_.debug_validate();
  const NodeSet support = family_.support();
  if (!support.is_subset_of(ground_))
    audit::detail::fail("restricted", "family mentions nodes outside its ground set: " +
                                          (support - ground_).to_string() + " ⊄ " +
                                          ground_.to_string());
}

RestrictedStructure oplus(const RestrictedStructure& a, const RestrictedStructure& b) {
  RMT_PHASE("adversary.oplus");
  RMT_AUDIT_VALIDATE(a);
  RMT_AUDIT_VALIDATE(b);
  // Degenerate operands: an empty *family* joined with anything is the
  // empty family (no Z₁ exists to pair), mirroring Definition 2 literally.
  const NodeSet joint_ground = a.ground() | b.ground();
  if (a.family().empty_family() || b.family().empty_family())
    return RestrictedStructure(AdversaryStructure{}, joint_ground);

  std::vector<NodeSet> joined;
  joined.reserve(a.family().num_maximal_sets() * b.family().num_maximal_sets());
  for (const NodeSet& m1 : a.family().maximal_sets()) {
    for (const NodeSet& m2 : b.family().maximal_sets()) {
      // Maximal candidate for this pair (see header derivation).
      NodeSet x = (m1 - b.ground()) | (m2 - a.ground()) | (m1 & m2);
      joined.push_back(std::move(x));
    }
  }
  RestrictedStructure out(AdversaryStructure::from_sets(joined), joint_ground);
  RMT_AUDIT_VALIDATE(out);
  return out;
}

}  // namespace rmt
