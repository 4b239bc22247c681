#include "analysis/minimal_knowledge.hpp"

#include "analysis/rmt_cut.hpp"
#include "obs/phase.hpp"
#include "util/audit.hpp"

namespace rmt::analysis {

bool knowledge_leq(const ViewFunction& smaller, const ViewFunction& larger) {
  return smaller.refined_by(larger);
}

namespace {

bool sufficient(const Instance& base, const ViewFunction& gamma) {
  const Instance trial(base.graph(), base.adversary(), gamma, base.dealer(), base.receiver());
  return !rmt_cut_exists(trial);
}

}  // namespace

std::optional<MinimalKnowledge> find_minimal_sufficient_view(const Instance& inst) {
  RMT_PHASE("minimal_knowledge.search");
  RMT_AUDIT_VALIDATE(inst);
  if (rmt_cut_exists(inst)) return std::nullopt;

  ViewFunction gamma = inst.gamma();
  std::size_t removed_edges = 0;
  std::size_t removed_nodes = 0;

  // Pass 1: drop view edges one at a time (each is one unit of topology
  // knowledge). Pass 2: drop isolated known nodes (knowledge of a node's
  // existence — and with it the reach of Z_v, since Z_v = Z^{V(γ(v))}).
  // Repeat until a fixpoint: deleting one piece can make another deletable.
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<NodeId> owners = inst.graph().nodes().to_vector();
    for (NodeId v : owners) {
      for (const Edge& e : gamma.view(v).edges()) {
        // Edges incident to the owner are the model floor (every player
        // knows its own channels) — not knowledge that can be shed.
        if (e.a == v || e.b == v) continue;
        // The edge list was snapshotted before this inner loop; earlier
        // deletions in the same sweep may have removed e already.
        if (!gamma.view(v).has_edge(e.a, e.b)) continue;
        Graph shrunk = gamma.view(v);
        shrunk.remove_edge(e.a, e.b);
        ViewFunction trial = gamma;
        trial.set_view(v, shrunk);
        if (sufficient(inst, trial)) {
          gamma = std::move(trial);
          ++removed_edges;
          changed = true;
        }
      }
      // Isolated nodes (degree 0 in the view) other than v itself.
      Graph view = gamma.view(v);
      std::vector<NodeId> isolated;
      view.nodes().for_each([&](NodeId u) {
        if (u != v && view.degree(u) == 0) isolated.push_back(u);
      });
      for (NodeId u : isolated) {
        Graph shrunk = gamma.view(v);
        if (!shrunk.has_node(u) || shrunk.degree(u) != 0) continue;
        shrunk.remove_node(u);
        ViewFunction trial = gamma;
        trial.set_view(v, shrunk);
        if (sufficient(inst, trial)) {
          gamma = std::move(trial);
          ++removed_nodes;
          changed = true;
        }
      }
    }
  }
  return MinimalKnowledge{std::move(gamma), removed_edges, removed_nodes};
}

}  // namespace rmt::analysis
