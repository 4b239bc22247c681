// knowledge/view.hpp — the Partial Knowledge Model's view function γ (§1.3).
//
// γ maps each player v to the subgraph γ(v) of G it knows, with v ∈ γ(v).
// The joint view of a set S is the graph union γ(S) = (∪ V_v, ∪ E_v).
// The model subsumes:
//   * full knowledge:  γ(v) = G for every v;
//   * ad hoc:          γ(v) = the star of v's incident channels
//                      ("knowledge limited to its own neighborhood");
//   * k-hop:           γ(v) = induced subgraph on the radius-k ball —
//                      the natural interpolation used by the experiments
//                      (k_hop(1) already exceeds ad hoc: it also contains
//                      edges *among* neighbors).
//
// Views are ordered pointwise by the subgraph relation (§3.1 "minimal
// knowledge"): γ' ≤ γ iff γ'(v) ⊆ γ(v) for all v.
//
// Model floor: every view must contain its owner's incident star —
// γ(v) ⊇ ({v} ∪ N(v), {{v,u} : u ∈ N(v)}). A player physically knows its
// own authenticated channels (it must, to communicate at all), and the
// paper's partial knowledge model "encompasses the ad hoc model" as its
// minimum. The floor is also load-bearing for Theorem 5's tightness: the
// sufficiency proof identifies the receiver-side component of a cover in
// the reconstructed graph G_M with the component in the real G, which
// holds exactly because honest members of V_M contribute at least their
// stars to G_M. set_view enforces the floor.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace rmt {

class ViewFunction {
 public:
  ViewFunction() = default;

  /// Full-knowledge model over g.
  static ViewFunction full(const Graph& g);

  /// Ad hoc model: each node sees exactly its incident edges.
  static ViewFunction ad_hoc(const Graph& g);

  /// Induced subgraph on the k-ball around each node, floored with the
  /// owner's star. k = 0 coincides with ad hoc; large k converges to full
  /// knowledge.
  static ViewFunction k_hop(const Graph& g, std::size_t k);

  /// Minimal legal view function (γ = ad hoc stars), to be enriched with
  /// set_view for hand-built partial-knowledge scenarios.
  static ViewFunction custom(const Graph& g);

  /// γ(v) = make_view(v) for every node v of g, in ascending order. Each
  /// view is built once and validated once, by set_view, as it is made, so
  /// the first invalid view in node order is the one rejected. The
  /// factories above and io's parser build their views through it.
  template <typename F>
  static ViewFunction from_views(const Graph& g, F&& make_view) {
    ViewFunction f(g);
    g.nodes().for_each([&](NodeId v) { f.set_view(v, make_view(v)); });
    return f;
  }

  /// "Social proximity" model, after the paper's motivation (§1: proximity
  /// correlates with available information): each node knows its k-hop
  /// ball, plus — independently with probability p per edge — random
  /// further edges of G (whose endpoints it then also knows). Deterministic
  /// in the seed.
  static ViewFunction social(const Graph& g, std::size_t base_k, double extra_edge_p,
                             Rng& rng);

  /// Replace v's view. Requires: the view is a subgraph of the ground
  /// graph containing v's full incident star (the model floor above).
  void set_view(NodeId v, Graph view);

  /// γ(v). Requires the node to exist in the ground graph.
  const Graph& view(NodeId v) const;

  /// V(γ(v)) — the node set of v's view (used pervasively: Z_v lives on it).
  const NodeSet& view_nodes(NodeId v) const;

  /// Joint view γ(S): union of the members' views.
  Graph joint_view(const NodeSet& s) const;

  /// Node set of the joint view, V(γ(S)), computed without building the
  /// union graph.
  NodeSet joint_view_nodes(const NodeSet& s) const;

  /// Pointwise subgraph order: true iff γ(v) ⊆ o.γ(v) for all v (i.e.
  /// *this carries at most the knowledge of o*).
  bool refined_by(const ViewFunction& o) const;

  const Graph& ground() const { return ground_; }

  /// Deep invariant check (rmt::audit): every view is a subgraph of the
  /// ground graph containing its owner's star, and the cached view-node
  /// sets match the views they cache. Throws audit::AuditError.
  void debug_validate() const;

 private:
  friend struct AuditTestAccess;  // tests corrupt internals to prove detection

  explicit ViewFunction(const Graph& g) : ground_(g), views_(g.capacity()) {}

  Graph ground_;
  std::vector<Graph> views_;           // indexed by node id
  std::vector<NodeSet> view_nodes_;    // cached V(γ(v))
};

}  // namespace rmt
