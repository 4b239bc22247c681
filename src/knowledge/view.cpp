#include "knowledge/view.hpp"

#include "graph/connectivity.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace rmt {

ViewFunction ViewFunction::full(const Graph& g) {
  return from_views(g, [&](NodeId) { return g; });
}

ViewFunction ViewFunction::ad_hoc(const Graph& g) {
  return from_views(g, [&](NodeId v) { return g.star(v); });
}

ViewFunction ViewFunction::k_hop(const Graph& g, std::size_t k) {
  // The induced k-ball, floored with the owner's star: a ball of radius
  // k >= 1 already holds N[v] and so the star's edges, and the k = 0 ball
  // is just {v}, whose floor is the star itself.
  return from_views(g, [&](NodeId v) { return k == 0 ? g.star(v) : g.induced(ball(g, v, k)); });
}

ViewFunction ViewFunction::custom(const Graph& g) { return ad_hoc(g); }

ViewFunction ViewFunction::social(const Graph& g, std::size_t base_k, double extra_edge_p,
                                  Rng& rng) {
  ViewFunction base = k_hop(g, base_k);
  const std::vector<Edge> edges = g.edges();
  g.nodes().for_each([&](NodeId v) {
    Graph view = base.view(v);
    for (const Edge& e : edges)
      if (!view.has_edge(e.a, e.b) && rng.chance(extra_edge_p)) view.add_edge(e.a, e.b);
    base.set_view(v, std::move(view));
  });
  return base;
}

void ViewFunction::set_view(NodeId v, Graph view) {
  RMT_REQUIRE(ground_.has_node(v), "set_view: node absent from ground graph");
  RMT_REQUIRE(view.has_node(v), "set_view: a view must include its owner");
  RMT_REQUIRE(ground_.contains_subgraph(view), "set_view: view is not a subgraph of G");
  bool has_star = true;
  ground_.neighbors(v).for_each([&](NodeId u) {
    if (!view.has_edge(v, u)) has_star = false;
  });
  RMT_REQUIRE(has_star, "set_view: a view must contain its owner's incident star");
  if (view_nodes_.size() < views_.size()) view_nodes_.resize(views_.size());
  view_nodes_[v] = view.nodes();
  views_[v] = std::move(view);
}

const Graph& ViewFunction::view(NodeId v) const {
  RMT_REQUIRE(v < views_.size() && ground_.has_node(v), "view: absent node");
  return views_[v];
}

const NodeSet& ViewFunction::view_nodes(NodeId v) const {
  RMT_REQUIRE(v < view_nodes_.size() && ground_.has_node(v), "view_nodes: absent node");
  return view_nodes_[v];
}

Graph ViewFunction::joint_view(const NodeSet& s) const {
  Graph out;
  (s & ground_.nodes()).for_each([&](NodeId v) { out = out.united(view(v)); });
  return out;
}

NodeSet ViewFunction::joint_view_nodes(const NodeSet& s) const {
  NodeSet out;
  (s & ground_.nodes()).for_each([&](NodeId v) { out |= view_nodes(v); });
  return out;
}

void ViewFunction::debug_validate() const {
  ground_.debug_validate();
  if (views_.size() < ground_.capacity())
    audit::detail::fail("view", "view table smaller than the ground graph's id space");
  ground_.nodes().for_each([&](NodeId v) {
    const Graph& view = views_[v];
    view.debug_validate();
    if (!view.has_node(v))
      audit::detail::fail("view", "γ(" + std::to_string(v) + ") does not contain its owner");
    if (!ground_.contains_subgraph(view))
      audit::detail::fail("view", "γ(" + std::to_string(v) + ") is not a subgraph of G");
    ground_.neighbors(v).for_each([&](NodeId u) {
      if (!view.has_edge(v, u))
        audit::detail::fail("view", "γ(" + std::to_string(v) +
                                        ") is missing incident-star edge {" +
                                        std::to_string(v) + "," + std::to_string(u) + "}");
    });
    if (v >= view_nodes_.size() || view_nodes_[v] != view.nodes())
      audit::detail::fail("view", "cached V(γ(" + std::to_string(v) +
                                      ")) does not match the view's node set");
  });
}

bool ViewFunction::refined_by(const ViewFunction& o) const {
  bool ok = true;
  ground_.nodes().for_each([&](NodeId v) {
    if (ok && !(o.ground().has_node(v) && o.view(v).contains_subgraph(view(v)))) ok = false;
  });
  return ok;
}

}  // namespace rmt
