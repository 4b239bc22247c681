#include "sim/network.hpp"

#include <algorithm>

#include "obs/phase.hpp"
#include "sim/trace.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace rmt::sim {

Network::Network(const Instance& instance, std::vector<std::unique_ptr<ProtocolNode>> nodes,
                 NodeSet corrupted, AdversaryStrategy* strategy, Value dealer_value)
    : instance_(instance), nodes_(std::move(nodes)), corrupted_(std::move(corrupted)),
      strategy_(strategy), dealer_value_(dealer_value), inboxes_(instance.graph().capacity()) {
  RMT_REQUIRE(instance_.admissible_corruption(corrupted_),
              "Network: corruption set is not admissible under Z");
  RMT_REQUIRE(nodes_.size() == instance_.graph().capacity(),
              "Network: node table must be indexed by node id");
  instance_.graph().nodes().for_each([&](NodeId v) {
    const bool is_corrupted = corrupted_.contains(v);
    RMT_REQUIRE(is_corrupted == (nodes_[v] == nullptr),
                "Network: exactly the corrupted ids must have null protocol nodes");
  });
}

std::size_t Network::queued_messages() const {
  std::size_t n = 0;
  for (const std::vector<Message>& inbox : inboxes_) n += inbox.size();
  return n;
}

void Network::debug_validate() const {
  for (std::size_t v = 0; v < inboxes_.size(); ++v) {
    for (const Message& m : inboxes_[v]) {
      if (m.to != NodeId(v))
        audit::detail::fail("sim", "message from " + std::to_string(m.from) + " to " +
                                       std::to_string(m.to) + " queued in inbox of " +
                                       std::to_string(v));
      if (!instance_.graph().has_edge(m.from, m.to))
        audit::detail::fail("sim", "queued message travels a non-channel {" +
                                       std::to_string(m.from) + "," + std::to_string(m.to) +
                                       "}");
    }
  }
}

const ProtocolNode& Network::node(NodeId v) const {
  RMT_REQUIRE(v < nodes_.size() && nodes_[v] != nullptr, "Network::node: no honest node here");
  return *nodes_[v];
}

std::vector<Message> Network::collect_honest_sends() {
  RMT_PHASE("sim.honest_round");
  std::vector<Message> out;
  instance_.graph().nodes().for_each([&](NodeId v) {
    if (!nodes_[v]) return;
    std::vector<Message> sends =
        started_ ? nodes_[v]->on_round(round_, inboxes_[v]) : nodes_[v]->on_start();
    inboxes_[v].clear();
    for (Message& m : sends) {
      // Honest nodes are trusted code; a violation here is a protocol bug.
      RMT_CHECK(m.from == v, "honest node forged its sender id");
      RMT_CHECK(instance_.graph().has_edge(m.from, m.to), "honest node used a non-channel");
      stats_.honest_payload_bytes += payload_bytes(m.payload);
      out.push_back(std::move(m));
    }
  });
  stats_.honest_messages += out.size();
  return out;
}

void Network::route(std::vector<Message>&& honest, std::vector<Message>&& adversarial) {
  RMT_PHASE("sim.route");
  const std::size_t delivered = honest.size() + adversarial.size();
  stats_.peak_round_messages = std::max(stats_.peak_round_messages, delivered);
  if (delivered == 0) ++stats_.quiet_rounds;
  for (Message& m : honest) {
    if (observer_) observer_->on_delivery(m, /*adversarial=*/false);
    inboxes_[m.to].push_back(std::move(m));
  }
  for (Message& m : adversarial) {
    if (observer_) observer_->on_delivery(m, /*adversarial=*/true);
    inboxes_[m.to].push_back(std::move(m));
  }
  // Deterministic delivery order regardless of production order. Honest
  // sends arrive in node order, so most inboxes are sorted already.
  const auto by_sender = [](const Message& a, const Message& b) { return a.from < b.from; };
  instance_.graph().nodes().for_each([&](NodeId v) {
    std::vector<Message>& inbox = inboxes_[v];
    if (!std::is_sorted(inbox.begin(), inbox.end(), by_sender))
      std::stable_sort(inbox.begin(), inbox.end(), by_sender);
  });
}

void Network::step() {
  ++round_;
  if (observer_) observer_->on_round_begin(round_);
  std::vector<Message> honest = collect_honest_sends();
  started_ = true;

  std::vector<Message> adversarial;
  if (strategy_ && !corrupted_.empty()) {
    RMT_PHASE("sim.adversary_act");
    // The corrupted inbox for this round was populated by the previous
    // route(); gather it for the strategy.
    std::vector<Message> corrupted_inbox;
    corrupted_.for_each([&](NodeId v) {
      for (Message& m : inboxes_[v]) corrupted_inbox.push_back(std::move(m));
      inboxes_[v].clear();
    });
    const AdversaryView view{instance_, corrupted_, dealer_value_, round_, corrupted_inbox,
                             honest};
    for (Message& m : strategy_->act(view)) {
      // Physical model enforcement: true sender must be corrupted and the
      // channel must exist. Violations are silently dropped (and counted):
      // the adversary may *try* anything; the network is what stops it.
      if (corrupted_.contains(m.from) && instance_.graph().has_edge(m.from, m.to)) {
        ++stats_.adversary_messages;
        stats_.adversary_payload_bytes += payload_bytes(m.payload);
        adversarial.push_back(std::move(m));
      } else {
        ++stats_.adversary_dropped;
      }
    }
  } else {
    corrupted_.for_each([&](NodeId v) { inboxes_[v].clear(); });
  }

  // Message conservation: routing must deliver exactly what this round
  // produced (post-drop) — nothing lost, nothing duplicated, and only over
  // real channels. The pre/post counts are only computed under audit.
  std::size_t produced = 0, queued_before = 0;
  if constexpr (audit::kEnabled) {
    produced = honest.size() + adversarial.size();
    queued_before = queued_messages();
  }
  route(std::move(honest), std::move(adversarial));
  if constexpr (audit::kEnabled) {
    if (queued_messages() != queued_before + produced)
      audit::detail::fail("sim", "round " + std::to_string(round_) + " routed " +
                                     std::to_string(produced) + " messages but inboxes grew by " +
                                     std::to_string(queued_messages() - queued_before));
    RMT_AUDIT_VALIDATE(*this);
  }
  stats_.rounds = round_;
}

std::optional<Value> Network::run(std::size_t max_rounds) {
  for (std::size_t i = 0; i < max_rounds; ++i) {
    step();
    if (auto d = nodes_[instance_.receiver()]->decision()) return d;
  }
  // One final quiet round so last-round deliveries can be consumed by the
  // receiver's decision logic.
  step();
  return nodes_[instance_.receiver()]->decision();
}

}  // namespace rmt::sim
