// Tests for the synchronous network substrate (sim/network.hpp) — channel
// authentication, delivery order, round semantics and accounting.
#include "sim/network.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "tests/test_util.hpp"

namespace rmt::sim {
namespace {

using testing::structure;

// A probe node: sends a fixed script in round 1 and records everything it
// receives.
class ProbeNode final : public ProtocolNode {
 public:
  explicit ProbeNode(std::vector<Message> script) : script_(std::move(script)) {}

  std::vector<Message> on_start() override { return script_; }
  std::vector<Message> on_round(std::size_t, const std::vector<Message>& inbox) override {
    for (const Message& m : inbox) received.push_back(m);
    return {};
  }
  std::optional<Value> decision() const override { return decision_v; }

  std::vector<Message> received;
  std::optional<Value> decision_v;

 private:
  std::vector<Message> script_;
};

// A strategy replaying a fixed script every round.
class ScriptStrategy final : public AdversaryStrategy {
 public:
  explicit ScriptStrategy(std::vector<Message> script) : script_(std::move(script)) {}
  std::vector<Message> act(const AdversaryView&) override { return script_; }

 private:
  std::vector<Message> script_;
};

struct Fixture {
  // Path 0-1-2, node 1 corruptible.
  Instance inst = Instance::ad_hoc(generators::path_graph(3),
                                   structure({NodeSet{1}}), 0, 2);

  std::vector<std::unique_ptr<ProtocolNode>> nodes(std::vector<Message> dealer_script,
                                                   bool corrupt_middle) {
    std::vector<std::unique_ptr<ProtocolNode>> out(3);
    out[0] = std::make_unique<ProbeNode>(std::move(dealer_script));
    if (!corrupt_middle) out[1] = std::make_unique<ProbeNode>(std::vector<Message>{});
    out[2] = std::make_unique<ProbeNode>(std::vector<Message>{});
    return out;
  }
};

TEST(Network, DeliversAlongChannels) {
  Fixture f;
  auto nodes = f.nodes({{0, 1, ValuePayload{42}}}, false);
  auto* middle = static_cast<ProbeNode*>(nodes[1].get());
  Network net(f.inst, std::move(nodes), NodeSet{}, nullptr, 42);
  net.step();  // round 1: sends collected
  net.step();  // round 2: delivered
  ASSERT_EQ(middle->received.size(), 1u);
  EXPECT_EQ(middle->received[0].from, 0u);
  EXPECT_EQ(std::get<ValuePayload>(middle->received[0].payload).x, 42u);
  EXPECT_EQ(net.stats().honest_messages, 1u);
}

TEST(Network, HonestNonChannelSendIsAProtocolBug) {
  Fixture f;
  // 0 and 2 are not adjacent on the path: honest code must never do this.
  auto nodes = f.nodes({{0, 2, ValuePayload{1}}}, false);
  Network net(f.inst, std::move(nodes), NodeSet{}, nullptr, 1);
  EXPECT_THROW(net.step(), std::logic_error);
}

TEST(Network, AdversarySpoofedSenderDropped) {
  Fixture f;
  // Corrupted node 1 tries to send "from 0" and over a non-channel 1→...:
  // both must be dropped silently, and counted.
  ScriptStrategy strategy({{0, 2, ValuePayload{9}},    // spoofed sender (0 not corrupted)
                           {1, 1, ValuePayload{9}}});  // non-channel (self)
  auto nodes = f.nodes({}, true);
  auto* receiver = static_cast<ProbeNode*>(nodes[2].get());
  Network net(f.inst, std::move(nodes), NodeSet{1}, &strategy, 7);
  net.step();
  net.step();
  EXPECT_TRUE(receiver->received.empty());
  EXPECT_EQ(net.stats().adversary_messages, 0u);
  EXPECT_EQ(net.stats().adversary_dropped, 4u);  // 2 per round × 2 rounds
}

TEST(Network, AdversaryLegalSendDelivered) {
  Fixture f;
  ScriptStrategy strategy({{1, 2, ValuePayload{13}}});
  auto nodes = f.nodes({}, true);
  auto* receiver = static_cast<ProbeNode*>(nodes[2].get());
  Network net(f.inst, std::move(nodes), NodeSet{1}, &strategy, 7);
  net.step();
  net.step();
  ASSERT_FALSE(receiver->received.empty());
  EXPECT_EQ(receiver->received[0].from, 1u);
  EXPECT_GT(net.stats().adversary_messages, 0u);
}

TEST(Network, RejectsInadmissibleCorruption) {
  Fixture f;
  auto nodes = f.nodes({}, false);
  nodes[2].reset();  // pretend 2 is corrupted — but {2} ∉ Z
  EXPECT_THROW(Network(f.inst, std::move(nodes), NodeSet{2}, nullptr, 0),
               std::invalid_argument);
}

TEST(Network, RejectsMismatchedNodeTable) {
  Fixture f;
  auto nodes = f.nodes({}, true);  // slot 1 null…
  EXPECT_THROW(Network(f.inst, std::move(nodes), NodeSet{}, nullptr, 0),
               std::invalid_argument);  // …but corruption set says honest
}

TEST(Network, DeterministicDeliveryOrder) {
  // Two senders to one target: inbox sorted by sender id.
  const Graph g = generators::parallel_paths(2, 1);  // 0-{1,2}-3
  const Instance inst = Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, 3);
  std::vector<std::unique_ptr<ProtocolNode>> nodes(4);
  nodes[0] = std::make_unique<ProbeNode>(std::vector<Message>{});
  nodes[2] = std::make_unique<ProbeNode>(std::vector<Message>{{2, 3, ValuePayload{2}}});
  nodes[1] = std::make_unique<ProbeNode>(std::vector<Message>{{1, 3, ValuePayload{1}}});
  nodes[3] = std::make_unique<ProbeNode>(std::vector<Message>{});
  auto* target = static_cast<ProbeNode*>(nodes[3].get());
  Network net(inst, std::move(nodes), NodeSet{}, nullptr, 0);
  net.step();
  net.step();
  ASSERT_EQ(target->received.size(), 2u);
  EXPECT_EQ(target->received[0].from, 1u);
  EXPECT_EQ(target->received[1].from, 2u);
}

TEST(Network, RunStopsOnReceiverDecision) {
  Fixture f;
  auto nodes = f.nodes({}, false);
  static_cast<ProbeNode*>(nodes[2].get())->decision_v = 5;  // decides instantly
  Network net(f.inst, std::move(nodes), NodeSet{}, nullptr, 5);
  const auto d = net.run(10);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 5u);
  EXPECT_EQ(net.stats().rounds, 1u);
}

TEST(Network, PayloadAccounting) {
  EXPECT_EQ(payload_bytes(ValuePayload{1}), sizeof(Value));
  EXPECT_GT(payload_bytes(PathValuePayload{1, {0, 1, 2}}), sizeof(Value));
  const KnowledgePayload k{0, generators::path_graph(3), AdversaryStructure::trivial(), {0}};
  EXPECT_GT(payload_bytes(Payload{k}), payload_bytes(Payload{PathValuePayload{1, {0}}}));
}

TEST(Network, PayloadSerializeIsInjectiveOnDistinctContent) {
  const Payload a = PathValuePayload{1, {0, 1}};
  const Payload b = PathValuePayload{1, {0, 2}};
  const Payload c = PathValuePayload{2, {0, 1}};
  const Payload d = ValuePayload{1};
  EXPECT_NE(payload_serialize(a), payload_serialize(b));
  EXPECT_NE(payload_serialize(a), payload_serialize(c));
  EXPECT_NE(payload_serialize(a), payload_serialize(d));
  EXPECT_EQ(payload_serialize(a), payload_serialize(PathValuePayload{1, {0, 1}}));
  // Knowledge payloads differing only in the claimed structure.
  const KnowledgePayload k1{3, generators::path_graph(2), AdversaryStructure::trivial(), {3}};
  const KnowledgePayload k2{3, generators::path_graph(2),
                            AdversaryStructure::from_sets({NodeSet{0}}), {3}};
  EXPECT_NE(payload_serialize(Payload{k1}), payload_serialize(Payload{k2}));
  EXPECT_NE(k1, k2);
}

TEST(Network, KnowledgeClaimsCompareAndSerializeByContent) {
  const KnowledgePayload a{3, generators::path_graph(4), threshold_structure(NodeSet{1, 2}, 1),
                           {3, 2}};
  const KnowledgePayload b{3, generators::path_graph(4), threshold_structure(NodeSet{1, 2}, 1),
                           {3, 2}};
  // Two blocks with equal contents: equal payloads, equal bytes.
  ASSERT_NE(a.claim, b.claim);
  EXPECT_EQ(a, b);
  EXPECT_EQ(Payload{a}, Payload{b});
  EXPECT_EQ(payload_serialize(Payload{a}), payload_serialize(Payload{b}));
  EXPECT_EQ(payload_bytes(Payload{a}), payload_bytes(Payload{b}));
  // A copy shares the block; only its trail is its own.
  KnowledgePayload relayed = a;
  relayed.trail.push_back(1);
  EXPECT_EQ(relayed.claim, a.claim);
  EXPECT_NE(relayed, a);
  EXPECT_EQ(a.trail, (Path{3, 2}));
  // Equal trails but a claim differing in one edge.
  Graph other = generators::path_graph(4);
  other.add_edge(0, 3);
  const KnowledgePayload c{3, other, threshold_structure(NodeSet{1, 2}, 1), {3, 2}};
  EXPECT_NE(a, c);
  EXPECT_NE(payload_serialize(Payload{a}), payload_serialize(Payload{c}));
}

}  // namespace
}  // namespace rmt::sim
