#include "instance/instance.hpp"

#include "util/audit.hpp"
#include "util/check.hpp"

namespace rmt {

Instance::Instance(Graph g, AdversaryStructure z, ViewFunction gamma, NodeId dealer,
                   NodeId receiver)
    : g_(std::move(g)), z_(std::move(z)), gamma_(std::move(gamma)), dealer_(dealer),
      receiver_(receiver) {
  RMT_REQUIRE(g_.has_node(dealer_), "Instance: dealer not in graph");
  RMT_REQUIRE(g_.has_node(receiver_), "Instance: receiver not in graph");
  RMT_REQUIRE(dealer_ != receiver_, "Instance: dealer equals receiver");
  RMT_REQUIRE(z_.contains(NodeSet{}), "Instance: adversary structure must contain the empty set");
  const NodeSet support = z_.support();
  RMT_REQUIRE(!support.contains(dealer_), "Instance: dealer must be honest (not in any Z ∈ Z)");
  RMT_REQUIRE(!support.contains(receiver_),
              "Instance: receiver must be honest (not in any Z ∈ Z)");
  RMT_REQUIRE(support.is_subset_of(g_.nodes()), "Instance: Z mentions nodes outside G");
  // A view function grounded on G itself has already held every view to
  // these conditions (ViewFunction::set_view), so only a view function
  // built over some other graph is checked view by view.
  if (gamma_.ground() == g_) return;
  g_.nodes().for_each([&](NodeId v) {
    const Graph& view = gamma_.view(v);  // throws if missing
    RMT_REQUIRE(view.has_node(v), "Instance: view must contain its owner");
    RMT_REQUIRE(g_.contains_subgraph(view), "Instance: view is not a subgraph of G");
  });
}

Instance Instance::ad_hoc(Graph g, AdversaryStructure z, NodeId dealer, NodeId receiver) {
  ViewFunction gamma = ViewFunction::ad_hoc(g);
  return Instance(std::move(g), std::move(z), std::move(gamma), dealer, receiver);
}

Instance Instance::full_knowledge(Graph g, AdversaryStructure z, NodeId dealer,
                                  NodeId receiver) {
  ViewFunction gamma = ViewFunction::full(g);
  return Instance(std::move(g), std::move(z), std::move(gamma), dealer, receiver);
}

AdversaryStructure Instance::local_structure(NodeId v) const {
  return z_.restricted_to(gamma_.view_nodes(v));
}

LocalKnowledge Instance::knowledge_of(NodeId v) const {
  return derive_local_knowledge(g_, z_, gamma_, v);
}

void Instance::debug_validate() const {
  if (!g_.has_node(dealer_)) audit::detail::fail("instance", "dealer not in graph");
  if (!g_.has_node(receiver_)) audit::detail::fail("instance", "receiver not in graph");
  if (dealer_ == receiver_) audit::detail::fail("instance", "dealer equals receiver");
  if (!z_.contains(NodeSet{}))
    audit::detail::fail("instance", "adversary structure does not contain ∅");
  const NodeSet support = z_.support();
  if (support.contains(dealer_))
    audit::detail::fail("instance", "dealer is a member of an admissible set");
  if (support.contains(receiver_))
    audit::detail::fail("instance", "receiver is a member of an admissible set");
  if (!support.is_subset_of(g_.nodes()))
    audit::detail::fail("instance", "Z mentions nodes outside G: " +
                                        (support - g_.nodes()).to_string());
  if (!(gamma_.ground() == g_))
    audit::detail::fail("instance", "view function is grounded on a different graph");
}

std::string Instance::to_string() const {
  return "Instance(D=" + std::to_string(dealer_) + ", R=" + std::to_string(receiver_) +
         ", " + g_.to_string() + ", " + z_.to_string() + ")";
}

}  // namespace rmt
