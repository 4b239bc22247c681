// Tests for the deep invariant validators (util/audit.hpp). The validators
// are always compiled, so most of this file runs identically in audited and
// unaudited builds; the hook-macro tests branch on audit::kEnabled to pin
// down both the detecting (RMT_AUDIT=ON) and the zero-overhead (OFF)
// behavior from one source.
//
// Each audited class befriends AuditTestAccess, which mutates private state
// to plant exactly the corruption its debug_validate() claims to detect —
// the public API cannot produce these states, which is the point.
#include "util/audit.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "adversary/oplus.hpp"
#include "adversary/structure.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "instance/instance.hpp"
#include "knowledge/local_knowledge.hpp"
#include "knowledge/view.hpp"
#include "obs/metrics.hpp"
#include "sim/network.hpp"
#include "tests/test_util.hpp"

namespace rmt {

/// The friend every audited class declares: static mutators that corrupt
/// private representation state so tests can prove each validator detects
/// the violation it documents.
struct AuditTestAccess {
  static void push_trailing_zero_word(NodeSet& s) { s.ensure_words(s.nwords_ + 1); }
  static void overrun_active_words(NodeSet& s) {
    // Claim more active words than the storage holds. The validator must
    // reject this from the counters alone, *before* dereferencing words().
    s.nwords_ = s.cap_ + 1;
  }
  static void bump_popcount_cache(AdversaryStructure& z) { z.sizes_.front() += 1; }
  static void inflate_support_cache(AdversaryStructure& z) { z.support_.insert(31); }
  static void bump_largest_size_cache(AdversaryStructure& z) { z.max_size_ += 1; }
  static void add_one_directional_edge(Graph& g, NodeId u, NodeId v) { g.adj_[u].insert(v); }
  static void add_self_loop(Graph& g, NodeId v) { g.adj_[v].insert(v); }
  static void append_maximal_set(AdversaryStructure& z, NodeSet s) {
    z.maximal_.push_back(std::move(s));
  }
  static void shrink_ground(RestrictedStructure& r, NodeId v) { r.ground_.erase(v); }
  static void corrupt_view_node_cache(ViewFunction& gamma, NodeId v, NodeId bogus) {
    gamma.view_nodes_[v].insert(bogus);
  }
  static void drop_view_owner(ViewFunction& gamma, NodeId v) { gamma.views_[v].remove_node(v); }
  static AdversaryStructure& adversary(Instance& inst) { return inst.z_; }
  static ViewFunction& gamma(Instance& inst) { return inst.gamma_; }
  static void misdeliver(sim::Network& net, sim::Message m, NodeId inbox) {
    net.inboxes_[inbox].push_back(std::move(m));
  }
};

namespace {

using testing::structure;

/// Runs f; returns the component of the AuditError it throws, or "" if it
/// completed (or threw something else — which the test harness surfaces).
template <typename F>
std::string failing_component(F&& f) {
  try {
    std::forward<F>(f)();
  } catch (const audit::AuditError& e) {
    return e.component();
  }
  return "";
}

/// Path 0-1-2 with only the middle node corruptible — the smallest
/// instance on which every validator has something real to re-derive.
Instance path_instance() {
  return Instance::ad_hoc(generators::path_graph(3), structure({NodeSet{1}}), 0, 2);
}

// -- clean objects pass ------------------------------------------------------

TEST(AuditValidate, CleanObjectsPass) {
  EXPECT_NO_THROW(audit::validate(NodeSet{}));
  EXPECT_NO_THROW(audit::validate(NodeSet{0, 3, 200}));
  EXPECT_NO_THROW(audit::validate(Graph{}));
  EXPECT_NO_THROW(audit::validate(generators::path_graph(5)));
  EXPECT_NO_THROW(audit::validate(AdversaryStructure{}));
  EXPECT_NO_THROW(audit::validate(structure({NodeSet{1}, NodeSet{2, 3}})));
  const Instance inst = path_instance();
  EXPECT_NO_THROW(audit::validate(inst.gamma()));
  EXPECT_NO_THROW(audit::validate(inst));
  EXPECT_NO_THROW(audit::validate(inst.knowledge_of(1), inst.adversary(), inst.gamma()));
}

// -- each corruption is caught, attributed to the right component ------------

TEST(AuditValidate, NodeSetTrailingZeroWordDetected) {
  NodeSet s{0, 3};
  AuditTestAccess::push_trailing_zero_word(s);
  EXPECT_EQ(failing_component([&] { audit::validate(s); }), "node_set");
}

TEST(AuditValidate, NodeSetSpilledTrailingZeroWordDetected) {
  NodeSet s{0, 200};  // beyond kInlineBits: heap representation
  s.erase(200);       // canonical again, still spilled
  EXPECT_NO_THROW(audit::validate(s));
  AuditTestAccess::push_trailing_zero_word(s);
  EXPECT_EQ(failing_component([&] { audit::validate(s); }), "node_set");
}

TEST(AuditValidate, NodeSetInlineCapacityOverrunDetected) {
  NodeSet s{0, 3};  // inline representation
  AuditTestAccess::overrun_active_words(s);
  EXPECT_EQ(failing_component([&] { audit::validate(s); }), "node_set");
}

TEST(AuditValidate, AdversaryPopcountCacheDriftDetected) {
  AdversaryStructure z = structure({NodeSet{1}, NodeSet{2, 3}});
  AuditTestAccess::bump_popcount_cache(z);
  EXPECT_EQ(failing_component([&] { audit::validate(z); }), "adversary");
}

TEST(AuditValidate, AdversaryLargestSizeCacheDriftDetected) {
  AdversaryStructure z = structure({NodeSet{1}, NodeSet{2, 3}});
  ASSERT_EQ(z.max_corruption_size(), 2u);
  AuditTestAccess::bump_largest_size_cache(z);
  EXPECT_EQ(failing_component([&] { audit::validate(z); }), "adversary");
}

TEST(AuditValidate, AdversarySupportCacheDriftDetected) {
  AdversaryStructure z = structure({NodeSet{1}, NodeSet{2, 3}});
  AuditTestAccess::inflate_support_cache(z);
  EXPECT_EQ(failing_component([&] { audit::validate(z); }), "adversary");
}

TEST(AuditValidate, GraphAsymmetricAdjacencyDetected) {
  Graph g = generators::path_graph(3);
  AuditTestAccess::add_one_directional_edge(g, 0, 2);
  EXPECT_EQ(failing_component([&] { audit::validate(g); }), "graph");
}

TEST(AuditValidate, GraphSelfLoopDetected) {
  Graph g = generators::path_graph(3);
  AuditTestAccess::add_self_loop(g, 1);
  EXPECT_EQ(failing_component([&] { audit::validate(g); }), "graph");
}

TEST(AuditValidate, AdversaryAntichainViolationDetected) {
  AdversaryStructure z = structure({NodeSet{1}});
  AuditTestAccess::append_maximal_set(z, NodeSet{1, 2});  // superset of {1}
  EXPECT_EQ(failing_component([&] { audit::validate(z); }), "adversary");
}

TEST(AuditValidate, AdversaryOrderingViolationDetected) {
  AdversaryStructure z = structure({NodeSet{2}, NodeSet{5}});
  AuditTestAccess::append_maximal_set(z, NodeSet{1});  // sorts before both
  EXPECT_EQ(failing_component([&] { audit::validate(z); }), "adversary");
}

TEST(AuditValidate, RestrictedGroundEscapeDetected) {
  const AdversaryStructure z = structure({NodeSet{1}, NodeSet{2}});
  RestrictedStructure r(z, NodeSet{1, 2, 3});
  EXPECT_NO_THROW(audit::validate(r));
  AuditTestAccess::shrink_ground(r, 2);  // family still mentions 2
  EXPECT_EQ(failing_component([&] { audit::validate(r); }), "restricted");
}

TEST(AuditValidate, ViewNodeCacheMismatchDetected) {
  ViewFunction gamma = ViewFunction::ad_hoc(generators::path_graph(3));
  AuditTestAccess::corrupt_view_node_cache(gamma, 1, 7);
  EXPECT_EQ(failing_component([&] { audit::validate(gamma); }), "view");
}

TEST(AuditValidate, ViewMissingOwnerDetected) {
  ViewFunction gamma = ViewFunction::ad_hoc(generators::path_graph(3));
  AuditTestAccess::drop_view_owner(gamma, 1);
  EXPECT_EQ(failing_component([&] { audit::validate(gamma); }), "view");
}

TEST(AuditValidate, InstanceCorruptibleDealerDetected) {
  Instance inst = path_instance();
  AuditTestAccess::adversary(inst).add(NodeSet::single(inst.dealer()));
  EXPECT_EQ(failing_component([&] { audit::validate(inst); }), "instance");
}

TEST(AuditValidate, KnowledgeDriftedLocalStructureDetected) {
  const Instance inst = path_instance();
  LocalKnowledge lk = inst.knowledge_of(1);
  lk.local_z.add(NodeSet{0});  // claims more corruption power than Z grants
  EXPECT_EQ(failing_component(
                [&] { audit::validate(lk, inst.adversary(), inst.gamma()); }),
            "knowledge");
}

TEST(AuditValidate, KnowledgeDriftedViewDetected) {
  const Instance inst = path_instance();
  LocalKnowledge lk = inst.knowledge_of(1);
  lk.view.add_node(9);  // not in γ(1)
  EXPECT_EQ(failing_component(
                [&] { audit::validate(lk, inst.adversary(), inst.gamma()); }),
            "knowledge");
}

// -- simulator inbox invariants ----------------------------------------------

class SilentNode final : public sim::ProtocolNode {
 public:
  std::vector<sim::Message> on_start() override { return {}; }
  std::vector<sim::Message> on_round(std::size_t, const std::vector<sim::Message>&) override {
    return {};
  }
  std::optional<sim::Value> decision() const override { return std::nullopt; }
};

std::vector<std::unique_ptr<sim::ProtocolNode>> silent_nodes(std::size_t n) {
  std::vector<std::unique_ptr<sim::ProtocolNode>> out(n);
  for (auto& p : out) p = std::make_unique<SilentNode>();
  return out;
}

TEST(AuditValidate, SimMisaddressedMessageDetected) {
  const Instance inst = path_instance();
  sim::Network net(inst, silent_nodes(3), NodeSet{}, nullptr, 0);
  EXPECT_NO_THROW(audit::validate(net));
  AuditTestAccess::misdeliver(net, {0, 2, sim::ValuePayload{7}}, /*inbox=*/1);
  EXPECT_EQ(failing_component([&] { audit::validate(net); }), "sim");
}

TEST(AuditValidate, SimNonChannelMessageDetected) {
  const Instance inst = path_instance();
  sim::Network net(inst, silent_nodes(3), NodeSet{}, nullptr, 0);
  // Correctly addressed, but 0-2 is not an edge of the path.
  AuditTestAccess::misdeliver(net, {0, 2, sim::ValuePayload{7}}, /*inbox=*/2);
  EXPECT_EQ(failing_component([&] { audit::validate(net); }), "sim");
}

// -- collected diagnostics (the `rmt_cli validate` backend) ------------------

TEST(AuditCheckInstance, CleanInstanceYieldsNoDiagnostics) {
  EXPECT_TRUE(audit::check_instance(path_instance()).empty());
}

TEST(AuditCheckInstance, CollectsComponentDiagnostics) {
  Instance inst = path_instance();
  AuditTestAccess::adversary(inst).add(NodeSet::single(inst.dealer()));
  AuditTestAccess::corrupt_view_node_cache(AuditTestAccess::gamma(inst), 1, 7);
  const std::vector<audit::Diagnostic> diags = audit::check_instance(inst);
  ASSERT_GE(diags.size(), 2u);
  bool saw_instance = false, saw_view = false;
  for (const audit::Diagnostic& d : diags) {
    EXPECT_FALSE(d.message.empty());
    saw_instance |= d.component == "instance";
    saw_view |= d.component == "view";
  }
  EXPECT_TRUE(saw_instance);
  EXPECT_TRUE(saw_view);
}

// -- metrics surface ---------------------------------------------------------

TEST(AuditCounters, PassingValidatorsBumpPerComponentChecks) {
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  const Instance inst = path_instance();
  audit::validate(NodeSet{0});
  audit::validate(inst.graph());
  audit::validate(inst.adversary());
  audit::validate(RestrictedStructure(inst.adversary(), inst.graph().nodes()));
  audit::validate(inst.gamma());
  audit::validate(inst);
  audit::validate(inst.knowledge_of(1), inst.adversary(), inst.gamma());
  sim::Network net(inst, silent_nodes(3), NodeSet{}, nullptr, 0);
  audit::validate(net);
  for (const char* component : {"node_set", "graph", "adversary", "restricted", "view",
                                "instance", "knowledge", "sim"}) {
    EXPECT_GE(reg.counter("audit.checks", {{"component", component}}).value(), 1u)
        << component;
  }
}

TEST(AuditCounters, ViolationsBumpPerComponentViolations) {
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  NodeSet s{1};
  AuditTestAccess::push_trailing_zero_word(s);
  EXPECT_THROW(audit::validate(s), audit::AuditError);
  EXPECT_EQ(reg.counter("audit.violations", {{"component", "node_set"}}).value(), 1u);
  EXPECT_EQ(reg.counter("audit.checks", {{"component", "node_set"}}).value(), 0u);
}

// -- the hook macro: live exactly when the build says so ---------------------

TEST(AuditHook, EntryPointHooksMatchBuildMode) {
  AdversaryStructure z = structure({NodeSet{1}});
  AuditTestAccess::append_maximal_set(z, NodeSet{1, 2});
  // restricted_to audits its operand on entry — but only in audited builds;
  // with the option off the hook must not even evaluate its argument.
  if constexpr (audit::kEnabled) {
    EXPECT_THROW(static_cast<void>(z.restricted_to(NodeSet{1, 2})), audit::AuditError);
  } else {
    EXPECT_NO_THROW(static_cast<void>(z.restricted_to(NodeSet{1, 2})));
  }
}

TEST(AuditHook, KEnabledAgreesWithMacro) {
#ifdef RMT_AUDIT
  EXPECT_TRUE(audit::kEnabled);
#else
  EXPECT_FALSE(audit::kEnabled);
#endif
}

}  // namespace
}  // namespace rmt
