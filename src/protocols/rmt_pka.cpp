#include "protocols/rmt_pka.hpp"

#include <algorithm>

#include "protocols/flooding.hpp"
#include "util/check.hpp"

namespace rmt::protocols {

namespace {

using sim::KnowledgePayload;
using sim::Message;
using sim::PathValuePayload;

class PkaNode final : public sim::ProtocolNode {
 public:
  PkaNode(const LocalKnowledge& lk, const PublicInfo& pub, DeciderMode mode,
          const DeciderLimits& limits, RmtPka::DecideFn decide)
      : self_(lk.self), pub_(pub), knowledge_(lk), relay_(lk.self), mode_(mode),
        limits_(limits), decide_(decide) {
    neighbors_ = lk.view.neighbors(self_);
    if (self_ == pub_.receiver) {
      input_.dealer = pub_.dealer;
      input_.receiver = pub_.receiver;
      input_.receiver_knowledge = lk;
    }
  }

  std::vector<Message> on_start() override {
    std::vector<Message> out;
    if (self_ == pub_.receiver) return out;
    // One claim block for (γ(self), Z_self), shared by every copy.
    const KnowledgePayload own{self_, knowledge_.view, knowledge_.local_z, Path{self_}};
    if (self_ == pub_.dealer) {
      RMT_CHECK(pub_.dealer_value.has_value(), "dealer node without a value");
      decision_ = *pub_.dealer_value;
      neighbors_.for_each([&](NodeId u) {
        out.push_back({self_, u, PathValuePayload{*pub_.dealer_value, Path{self_}}});
        out.push_back({self_, u, own});
      });
    } else {
      neighbors_.for_each([&](NodeId u) { out.push_back({self_, u, own}); });
    }
    return out;
  }

  std::vector<Message> on_round(std::size_t, const std::vector<Message>& inbox) override {
    if (self_ == pub_.dealer) return {};
    std::vector<Message> out;
    bool received_anything = false;
    for (const Message& m : inbox) {
      if (const auto* t1 = std::get_if<PathValuePayload>(&m.payload)) {
        received_anything = true;
        if (self_ == pub_.receiver) {
          absorb_type1(m, *t1);
        } else {
          relay_.relay(m, *t1, neighbors_, out);
        }
      } else if (const auto* t2 = std::get_if<KnowledgePayload>(&m.payload)) {
        received_anything = true;
        if (self_ == pub_.receiver) {
          absorb_type2(m, *t2);
        } else {
          relay_.relay(m, *t2, neighbors_, out);
        }
      }
      // Other payload kinds: erroneous for this protocol — discard.
    }
    if (self_ == pub_.receiver && !decision_ && received_anything) {
      decision_ = decide_(input_, mode_, limits_, &stats_);
    }
    return out;
  }

  std::optional<sim::Value> decision() const override { return decision_; }

  const DeciderStats& stats() const { return stats_; }

 private:
  void absorb_type1(const Message& m, const PathValuePayload& t1) {
    if (!relay_.admissible(t1.trail, m.from)) return;
    // Dealer propagation rule: (x_D, {D}) straight from D over the
    // authenticated channel.
    if (m.from == pub_.dealer && t1.trail == Path{pub_.dealer}) input_.direct_value = t1.x;
    Path full = t1.trail;
    full.push_back(self_);
    input_.type1[t1.x].insert(std::move(full));
  }

  void absorb_type2(const Message& m, const KnowledgePayload& t2) {
    if (!relay_.admissible(t2.trail, m.from)) return;
    // Reject structurally impossible claims outright: a view must contain
    // its subject (γ(u) ∋ u by definition).
    if (!t2.view().has_node(t2.subject)) return;
    auto& versions = input_.reports[t2.subject];
    const bool known = std::any_of(versions.begin(), versions.end(), [&](const NodeReport& r) {
      return r.view == t2.view() && r.local_z == t2.local_z();
    });
    if (!known) versions.push_back(NodeReport{t2.subject, t2.view(), t2.local_z()});
  }

  NodeId self_;
  PublicInfo pub_;
  LocalKnowledge knowledge_;
  NodeSet neighbors_;
  TrailRelay relay_;
  DeciderMode mode_;
  DeciderLimits limits_;
  RmtPka::DecideFn decide_;
  DecisionInput input_;
  DeciderStats stats_;
  std::optional<sim::Value> decision_;
};

}  // namespace

RmtPka::RmtPka(DeciderMode mode, DeciderLimits limits, DecideFn decide)
    : mode_(mode), limits_(limits), decide_(decide) {}

std::unique_ptr<sim::ProtocolNode> RmtPka::make_node(const LocalKnowledge& lk,
                                                     const PublicInfo& pub) const {
  return std::make_unique<PkaNode>(lk, pub, mode_, limits_, decide_);
}

}  // namespace rmt::protocols
