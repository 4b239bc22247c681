#include "protocols/runner.hpp"

#include "obs/metrics.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace rmt::protocols {

namespace {

/// Fold one run's NetworkStats into the global "sim.*" counters, so any
/// driver that enables observability gets aggregate simulator totals in
/// its registry snapshot without threading stats by hand.
void publish_sim_counters(const sim::NetworkStats& s) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::global();
  reg.counter("sim.runs").inc();
  reg.counter("sim.rounds").inc(s.rounds);
  reg.counter("sim.honest_messages").inc(s.honest_messages);
  reg.counter("sim.adversary_messages").inc(s.adversary_messages);
  reg.counter("sim.adversary_dropped").inc(s.adversary_dropped);
  reg.counter("sim.honest_payload_bytes").inc(s.honest_payload_bytes);
  reg.counter("sim.adversary_payload_bytes").inc(s.adversary_payload_bytes);
  reg.histogram("sim.peak_round_messages").observe(double(s.peak_round_messages));
}

std::vector<std::unique_ptr<sim::ProtocolNode>> build_nodes(const Instance& inst,
                                                            const Protocol& proto,
                                                            Value dealer_value,
                                                            const NodeSet& corruption,
                                                            NodeId receiver_label) {
  std::vector<std::unique_ptr<sim::ProtocolNode>> nodes(inst.graph().capacity());
  inst.graph().nodes().for_each([&](NodeId v) {
    if (corruption.contains(v)) return;
    PublicInfo pub;
    pub.dealer = inst.dealer();
    pub.receiver = receiver_label;
    if (v == inst.dealer()) pub.dealer_value = dealer_value;
    nodes[v] = proto.make_node(inst.knowledge_of(v), pub);
  });
  return nodes;
}

}  // namespace

Outcome run_rmt(const Instance& inst, const Protocol& proto, Value dealer_value,
                const NodeSet& corruption, sim::AdversaryStrategy* strategy,
                std::size_t max_rounds, sim::NetworkObserver* observer) {
  RMT_REQUIRE(inst.admissible_corruption(corruption),
              "run_rmt: corruption set not admissible under Z");
  RMT_AUDIT_VALIDATE(inst);
  if (max_rounds == 0) max_rounds = proto.default_max_rounds(inst);

  Outcome out;
  {
    obs::ScopedCollector collect(out.phases);
    RMT_PHASE("runner.run_rmt");
    sim::Network net(inst, build_nodes(inst, proto, dealer_value, corruption, inst.receiver()),
                     corruption, strategy, dealer_value);
    net.set_observer(observer);
    out.decision = net.run(max_rounds);
    out.correct = out.decision.has_value() && *out.decision == dealer_value;
    out.wrong = out.decision.has_value() && *out.decision != dealer_value;
    out.stats = net.stats();
  }
  publish_sim_counters(out.stats);
  return out;
}

BroadcastOutcome run_broadcast(const Instance& inst, const Protocol& proto, Value dealer_value,
                               const NodeSet& corruption, sim::AdversaryStrategy* strategy,
                               std::size_t max_rounds) {
  RMT_REQUIRE(inst.admissible_corruption(corruption),
              "run_broadcast: corruption set not admissible under Z");
  RMT_AUDIT_VALIDATE(inst);
  if (max_rounds == 0) max_rounds = proto.default_max_rounds(inst);

  // Broadcast semantics ([13]'s Z-CPA): there is no designated receiver —
  // every player relays on decision. Label the receiver with a sentinel id
  // that matches no node, so no player takes the output-and-stop role.
  BroadcastOutcome out;
  {
    obs::ScopedCollector collect(out.phases);
    RMT_PHASE("runner.run_broadcast");
    const NodeId no_receiver = NodeId(inst.graph().capacity());
    sim::Network net(inst, build_nodes(inst, proto, dealer_value, corruption, no_receiver),
                     corruption, strategy, dealer_value);
    for (std::size_t i = 0; i < max_rounds + 1; ++i) net.step();

    out.decisions.assign(inst.graph().capacity(), std::nullopt);
    inst.graph().nodes().for_each([&](NodeId v) {
      if (corruption.contains(v)) return;
      ++out.honest_total;
      const auto d = net.node(v).decision();
      out.decisions[v] = d;
      if (d) {
        ++out.honest_decided;
        (*d == dealer_value) ? void(++out.honest_correct) : void(++out.honest_wrong);
      }
    });
    out.stats = net.stats();
  }
  publish_sim_counters(out.stats);
  return out;
}

}  // namespace rmt::protocols
