#include "sim/adversary_search.hpp"

#include <algorithm>
#include <limits>

#include "exec/thread_pool.hpp"
#include "knowledge/local_knowledge.hpp"
#include "util/check.hpp"

namespace rmt::sim {

PerNodeModeStrategy::PerNodeModeStrategy(std::map<NodeId, NodeMode> modes, Value lie_offset)
    : modes_(std::move(modes)), offset_(lie_offset == 0 ? 1 : lie_offset) {}

std::vector<Message> PerNodeModeStrategy::act(const AdversaryView& view) {
  const Graph& g = view.instance.graph();
  std::vector<Message> out;

  auto mode_of = [&](NodeId c) {
    const auto it = modes_.find(c);
    return it == modes_.end() ? NodeMode::kSilent : it->second;
  };

  // Round 1: truthful knowledge publication for every non-silent node —
  // both kTruth and kLie mirror the honest round-1 behavior exactly (the
  // mirror construction lies about values, never about initial knowledge).
  if (view.round == 1) {
    view.corrupted.for_each([&](NodeId c) {
      if (mode_of(c) == NodeMode::kSilent) return;
      LocalKnowledge lk = view.instance.knowledge_of(c);
      const KnowledgePayload own{c, std::move(lk.view), std::move(lk.local_z), Path{c}};
      g.neighbors(c).for_each([&](NodeId u) { out.push_back({c, u, own}); });
    });
    return out;
  }

  for (const Message& m : view.corrupted_inbox) {
    const NodeId c = m.to;
    const NodeMode mode = mode_of(c);
    if (mode == NodeMode::kSilent) continue;
    const bool flip = mode == NodeMode::kLie;
    struct Relay {
      std::vector<Message>& out;
      const Graph& g;
      NodeId c;
      NodeId from;
      Value offset;
      bool flip;
      void operator()(const ValuePayload& v) const {
        const Value x = flip ? v.x + offset : v.x;
        g.neighbors(c).for_each([&](NodeId u) { out.push_back({c, u, ValuePayload{x}}); });
      }
      void operator()(const PathValuePayload& p) const {
        if (std::find(p.trail.begin(), p.trail.end(), c) != p.trail.end()) return;
        if (p.trail.empty() || p.trail.back() != from) return;
        PathValuePayload next = p;
        if (flip) next.x += offset;
        next.trail.push_back(c);
        g.neighbors(c).for_each([&](NodeId u) { out.push_back({c, u, next}); });
      }
      void operator()(const KnowledgePayload& k) const {
        if (std::find(k.trail.begin(), k.trail.end(), c) != k.trail.end()) return;
        if (k.trail.empty() || k.trail.back() != from) return;
        KnowledgePayload next = k;
        next.trail.push_back(c);
        g.neighbors(c).for_each([&](NodeId u) { out.push_back({c, u, next}); });
      }
    };
    std::visit(Relay{out, g, c, m.from, offset_, flip}, m.payload);
  }
  return out;
}

namespace {

/// Decode a base-3 behavior code into a per-node mode assignment; the
/// code <-> modes bijection is shared by the sequential and exhaustive
/// searches so their witnesses are comparable.
std::map<NodeId, NodeMode> modes_for_code(const std::vector<NodeId>& nodes, std::size_t code) {
  std::map<NodeId, NodeMode> modes;
  std::size_t rest = code;
  for (NodeId v : nodes) {
    modes[v] = static_cast<NodeMode>(rest % 3);
    rest /= 3;
  }
  return modes;
}

std::size_t combos_for(const std::vector<NodeId>& nodes) {
  RMT_REQUIRE(nodes.size() <= 8, "search_behaviors: corruption set too large to enumerate");
  std::size_t combos = 1;
  for (std::size_t i = 0; i < nodes.size(); ++i) combos *= 3;
  return combos;
}

}  // namespace

SearchResult search_behaviors(const Instance& inst, const protocols::Protocol& proto,
                              Value dealer_value, const NodeSet& corruption) {
  const std::vector<NodeId> nodes = corruption.to_vector();
  SearchResult result;
  const std::size_t combos = combos_for(nodes);
  for (std::size_t code = 0; code < combos; ++code) {
    std::map<NodeId, NodeMode> modes = modes_for_code(nodes, code);
    PerNodeModeStrategy strategy(modes);
    const protocols::Outcome out =
        protocols::run_rmt(inst, proto, dealer_value, corruption, &strategy);
    ++result.behaviors_tried;
    if (out.wrong && !result.safety_violation)
      result.safety_violation = BehaviorWitness{modes, out};
    if (!out.decision && !result.liveness_block)
      result.liveness_block = BehaviorWitness{modes, out};
    if (result.safety_violation) break;  // the fatal witness; stop early
  }
  return result;
}

SearchResult search_all_corruptions(const Instance& inst, const protocols::Protocol& proto,
                                    Value dealer_value) {
  SearchResult total;
  for (const NodeSet& t : inst.adversary().maximal_sets()) {
    SearchResult r = search_behaviors(inst, proto, dealer_value, t);
    total.behaviors_tried += r.behaviors_tried;
    if (!total.safety_violation) total.safety_violation = std::move(r.safety_violation);
    if (!total.liveness_block) total.liveness_block = std::move(r.liveness_block);
    if (total.safety_violation) break;
  }
  return total;
}

namespace {

/// Lowest-code witnesses of one exhaustive scan; the reduction identity
/// is "no witness found" and combine keeps the smaller code per field —
/// associative, commutative, and independent of chunk boundaries.
struct ScanPartial {
  std::size_t safety_code = std::numeric_limits<std::size_t>::max();
  std::size_t liveness_code = std::numeric_limits<std::size_t>::max();
};

ScanPartial merge_partials(ScanPartial a, ScanPartial b) {
  a.safety_code = std::min(a.safety_code, b.safety_code);
  a.liveness_code = std::min(a.liveness_code, b.liveness_code);
  return a;
}

}  // namespace

SearchResult search_behaviors_exhaustive(const Instance& inst, const protocols::Protocol& proto,
                                         Value dealer_value, const NodeSet& corruption,
                                         exec::ThreadPool* pool) {
  const std::vector<NodeId> nodes = corruption.to_vector();
  const std::size_t combos = combos_for(nodes);

  const auto scan = [&](std::size_t lo, std::size_t hi) {
    ScanPartial p;
    for (std::size_t code = lo; code < hi; ++code) {
      PerNodeModeStrategy strategy(modes_for_code(nodes, code));
      const protocols::Outcome out =
          protocols::run_rmt(inst, proto, dealer_value, corruption, &strategy);
      if (out.wrong && code < p.safety_code) p.safety_code = code;
      if (!out.decision && code < p.liveness_code) p.liveness_code = code;
    }
    return p;
  };

  const ScanPartial found = exec::parallel_reduce<ScanPartial>(
      pool, 0, combos, exec::suggest_grain(combos, pool), ScanPartial{}, scan, merge_partials);

  SearchResult result;
  result.behaviors_tried = combos;
  // Re-run the winning codes once to recover their outcomes; cheaper than
  // shipping Outcome objects through every partial of the reduction.
  const auto rerun = [&](std::size_t code) {
    std::map<NodeId, NodeMode> modes = modes_for_code(nodes, code);
    PerNodeModeStrategy strategy(modes);
    const protocols::Outcome out =
        protocols::run_rmt(inst, proto, dealer_value, corruption, &strategy);
    return BehaviorWitness{std::move(modes), out};
  };
  if (found.safety_code != std::numeric_limits<std::size_t>::max())
    result.safety_violation = rerun(found.safety_code);
  if (found.liveness_code != std::numeric_limits<std::size_t>::max())
    result.liveness_block = rerun(found.liveness_code);
  return result;
}

SearchResult search_all_corruptions_exhaustive(const Instance& inst,
                                               const protocols::Protocol& proto,
                                               Value dealer_value, exec::ThreadPool* pool) {
  SearchResult total;
  for (const NodeSet& t : inst.adversary().maximal_sets()) {
    SearchResult r = search_behaviors_exhaustive(inst, proto, dealer_value, t, pool);
    total.behaviors_tried += r.behaviors_tried;
    if (!total.safety_violation) total.safety_violation = std::move(r.safety_violation);
    if (!total.liveness_block) total.liveness_block = std::move(r.liveness_block);
  }
  return total;
}

std::string modes_to_string(const std::map<NodeId, NodeMode>& modes) {
  std::string out = "{";
  bool first = true;
  for (const auto& [v, mode] : modes) {
    if (!first) out += ", ";
    first = false;
    out += std::to_string(v);
    out += mode == NodeMode::kSilent ? ":silent" : (mode == NodeMode::kTruth ? ":truth" : ":lie");
  }
  return out + "}";
}

}  // namespace rmt::sim
