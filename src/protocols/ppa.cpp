#include "protocols/ppa.hpp"

#include <map>
#include <set>

#include "graph/paths.hpp"
#include "protocols/flooding.hpp"
#include "util/check.hpp"

namespace rmt::protocols {

namespace {

using sim::Message;
using sim::PathValuePayload;

class PpaNode final : public sim::ProtocolNode {
 public:
  PpaNode(const LocalKnowledge& lk, const PublicInfo& pub, std::size_t max_paths)
      : self_(lk.self), pub_(pub), knowledge_(lk), relay_(lk.self), max_paths_(max_paths) {
    neighbors_ = lk.view.neighbors(self_);
  }

  std::vector<Message> on_start() override {
    if (self_ != pub_.dealer) return {};
    RMT_CHECK(pub_.dealer_value.has_value(), "dealer node without a value");
    decision_ = *pub_.dealer_value;
    std::vector<Message> out;
    neighbors_.for_each([&](NodeId u) {
      out.push_back({self_, u, PathValuePayload{*pub_.dealer_value, Path{self_}}});
    });
    return out;
  }

  std::vector<Message> on_round(std::size_t, const std::vector<Message>& inbox) override {
    if (self_ == pub_.dealer) return {};
    std::vector<Message> out;
    for (const Message& m : inbox) {
      const auto* t1 = std::get_if<PathValuePayload>(&m.payload);
      if (!t1) continue;
      if (self_ == pub_.receiver) {
        if (relay_.admissible(t1->trail, m.from)) {
          delivered_[t1->x].insert(t1->trail.path_to(self_));
        }
      } else {
        relay_.relay(m, *t1, neighbors_, out);
      }
    }
    if (self_ == pub_.receiver && !decision_) try_decide();
    return out;
  }

  std::optional<sim::Value> decision() const override { return decision_; }

 private:
  void try_decide() {
    const Graph& g = knowledge_.view;  // = G under full knowledge
    for (const auto& [x, paths] : delivered_) {
      for (const NodeSet& z : knowledge_.local_z.maximal_sets()) {
        if (z.contains(pub_.dealer) || z.contains(self_)) continue;
        // All simple D–R paths in G − Z must have delivered x.
        const Graph avoid = g.induced(g.nodes() - z);
        if (!avoid.has_node(pub_.dealer) || !avoid.has_node(self_)) continue;
        bool all_delivered = true;
        std::size_t found = 0;
        const EnumStatus st = enumerate_simple_paths(
            avoid, pub_.dealer, self_,
            [&](const Path& p) {
              ++found;
              if (!paths.count(p)) {
                all_delivered = false;
                return false;
              }
              return true;
            },
            max_paths_);
        if (st == EnumStatus::kTruncated && all_delivered) continue;  // budget: abstain
        if (all_delivered && found > 0) {
          decision_ = x;
          return;
        }
      }
    }
  }

  NodeId self_;
  PublicInfo pub_;
  LocalKnowledge knowledge_;
  NodeSet neighbors_;
  TrailRelay relay_;
  std::size_t max_paths_;
  std::map<sim::Value, std::set<Path>> delivered_;
  std::optional<sim::Value> decision_;
};

}  // namespace

Ppa::Ppa(std::size_t max_paths) : max_paths_(max_paths) {}

std::unique_ptr<sim::ProtocolNode> Ppa::make_node(const LocalKnowledge& lk,
                                                  const PublicInfo& pub) const {
  return std::make_unique<PpaNode>(lk, pub, max_paths_);
}

}  // namespace rmt::protocols
