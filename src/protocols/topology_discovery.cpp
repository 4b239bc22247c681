#include "protocols/topology_discovery.hpp"

#include <map>
#include <vector>

#include "protocols/flooding.hpp"
#include "sim/network.hpp"
#include "util/check.hpp"

namespace rmt::protocols {

namespace {

using sim::KnowledgePayload;
using sim::Message;

class DiscoveryNode final : public sim::ProtocolNode {
 public:
  explicit DiscoveryNode(const LocalKnowledge& lk)
      : self_(lk.self), knowledge_(lk), relay_(lk.self) {
    neighbors_ = lk.view.neighbors(self_);
  }

  std::vector<Message> on_start() override {
    std::vector<Message> out;
    // One claim block for (γ(self), Z_self), shared by every copy.
    const KnowledgePayload own{self_, knowledge_.view, knowledge_.local_z, Path{self_}};
    neighbors_.for_each([&](NodeId u) { out.push_back({self_, u, own}); });
    return out;
  }

  std::vector<Message> on_round(std::size_t, const std::vector<Message>& inbox) override {
    std::vector<Message> out;
    for (const Message& m : inbox) {
      const auto* t2 = std::get_if<KnowledgePayload>(&m.payload);
      if (!t2) continue;
      if (!relay_.admissible(t2->trail, m.from)) continue;
      if (!t2->view().has_node(t2->subject)) continue;  // structurally impossible
      record(t2->subject, t2->view());
      relay_.relay(m, *t2, neighbors_, out);
    }
    return out;
  }

  std::optional<sim::Value> decision() const override { return std::nullopt; }

  DiscoveryReport report() const {
    DiscoveryReport rep;
    // Self knowledge is ground truth.
    rep.certified = knowledge_.view;

    // Single-version subjects only; conflicted ones certify nothing.
    std::map<NodeId, const Graph*> accepted;
    for (const auto& [subject, versions] : reports_) {
      rep.claims_seen += versions.size();
      if (versions.size() == 1 && !(subject == self_)) {
        accepted[subject] = &versions.front();
      } else if (versions.size() > 1) {
        rep.conflicted.insert(subject);
      }
    }
    // Certify edges vouched for by BOTH endpoints' accepted self-reports.
    for (const auto& [a, view_a] : accepted) {
      rep.certified.add_node(a);
      view_a->neighbors(a).for_each([&](NodeId b) {
        const bool b_vouches =
            (b == self_) ? knowledge_.view.has_edge(a, b)
                         : (accepted.count(b) && accepted.at(b)->has_node(b) &&
                            accepted.at(b)->has_edge(a, b));
        if (b_vouches) rep.certified.add_edge(a, b);
      });
    }
    return rep;
  }

 private:
  void record(NodeId subject, const Graph& view) {
    auto& versions = reports_[subject];
    for (const Graph& v : versions)
      if (v == view) return;
    versions.push_back(view);
  }

  NodeId self_;
  LocalKnowledge knowledge_;
  NodeSet neighbors_;
  TrailRelay relay_;
  std::map<NodeId, std::vector<Graph>> reports_;
};

}  // namespace

std::unique_ptr<sim::ProtocolNode> TopologyDiscovery::make_node(const LocalKnowledge& lk,
                                                                const PublicInfo&) const {
  return std::make_unique<DiscoveryNode>(lk);
}

DiscoveryReport TopologyDiscovery::report_of(const sim::ProtocolNode& node) {
  const auto* discovery = dynamic_cast<const DiscoveryNode*>(&node);
  RMT_REQUIRE(discovery != nullptr, "report_of: node was not built by TopologyDiscovery");
  return discovery->report();
}

std::vector<DiscoveryReport> run_topology_discovery(const Instance& inst,
                                                    const NodeSet& corruption,
                                                    sim::AdversaryStrategy* strategy) {
  RMT_REQUIRE(inst.admissible_corruption(corruption),
              "run_topology_discovery: corruption not admissible");
  const TopologyDiscovery proto;
  std::vector<std::unique_ptr<sim::ProtocolNode>> nodes(inst.graph().capacity());
  inst.graph().nodes().for_each([&](NodeId v) {
    if (corruption.contains(v)) return;
    PublicInfo pub;  // discovery has no dealer/receiver roles
    pub.dealer = inst.dealer();
    pub.receiver = NodeId(inst.graph().capacity());
    nodes[v] = proto.make_node(inst.knowledge_of(v), pub);
  });
  sim::Network net(inst, std::move(nodes), corruption, strategy, /*dealer_value=*/0);
  for (std::size_t i = 0; i < inst.num_players() + 1; ++i) net.step();

  std::vector<DiscoveryReport> out(inst.graph().capacity());
  inst.graph().nodes().for_each([&](NodeId v) {
    if (!corruption.contains(v)) out[v] = TopologyDiscovery::report_of(net.node(v));
  });
  return out;
}

}  // namespace rmt::protocols
