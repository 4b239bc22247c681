#include "graph/graph.hpp"

#include <algorithm>

#include "util/audit.hpp"
#include "util/check.hpp"

namespace rmt {

void Graph::add_node(NodeId v) {
  if (v >= adj_.size()) adj_.resize(v + 1);
  nodes_.insert(v);
}

void Graph::add_edge(NodeId u, NodeId v) {
  RMT_REQUIRE(u != v, "self-loop edges are not allowed");
  add_node(u);
  add_node(v);
  adj_[u].insert(v);
  adj_[v].insert(u);
}

void Graph::remove_edge(NodeId u, NodeId v) {
  if (u < adj_.size()) adj_[u].erase(v);
  if (v < adj_.size()) adj_[v].erase(u);
}

void Graph::remove_node(NodeId v) {
  if (!has_node(v)) return;
  adj_[v].for_each([&](NodeId u) { adj_[u].erase(v); });
  adj_[v].clear();
  nodes_.erase(v);
}

std::size_t Graph::num_edges() const {
  std::size_t twice = 0;
  nodes_.for_each([&](NodeId v) { twice += adj_[v].size(); });
  return twice / 2;
}

const NodeSet& Graph::neighbors(NodeId v) const {
  RMT_REQUIRE(has_node(v), "neighbors() of absent node " + std::to_string(v));
  return adj_[v];
}

NodeSet Graph::closed_neighborhood(NodeId v) const {
  NodeSet s = neighbors(v);
  s.insert(v);
  return s;
}

NodeSet Graph::boundary(const NodeSet& s) const {
  NodeSet out;
  (s & nodes_).for_each([&](NodeId v) { out |= adj_[v]; });
  out -= s;
  return out;
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  for_each_edge([&](NodeId a, NodeId b) { out.push_back({a, b}); });
  return out;
}

Graph Graph::star(NodeId v, const NodeSet& extra) const {
  const NodeSet& around = neighbors(v);
  Graph s;
  s.nodes_ = around | extra;
  s.nodes_.insert(v);
  s.adj_.resize(std::size_t(s.nodes_.max()) + 1);
  s.adj_[v] = around;
  around.for_each([&](NodeId u) { s.adj_[u].insert(v); });
  return s;
}

Graph Graph::induced(const NodeSet& s) const {
  Graph g;
  g.nodes_ = s & nodes_;
  if (g.nodes_.empty()) return g;
  g.adj_.resize(std::size_t(g.nodes_.max()) + 1);
  g.nodes_.for_each([&](NodeId v) { g.adj_[v] = adj_[v] & g.nodes_; });
  return g;
}

void Graph::unite(const Graph& o) {
  if (o.nodes_.empty()) return;
  if (o.nodes_.max() >= adj_.size()) adj_.resize(std::size_t(o.nodes_.max()) + 1);
  nodes_ |= o.nodes_;
  o.nodes_.for_each([&](NodeId v) { adj_[v] |= o.adj_[v]; });
}

Graph Graph::united(const Graph& o) const {
  Graph g = *this;
  g.unite(o);
  return g;
}

bool Graph::contains_subgraph(const Graph& o) const {
  if (!o.nodes_.is_subset_of(nodes_)) return false;
  bool ok = true;
  o.nodes_.for_each([&](NodeId v) {
    if (!o.adj_[v].is_subset_of(adj_[v])) ok = false;
  });
  return ok;
}

bool operator==(const Graph& a, const Graph& b) {
  if (a.nodes_ != b.nodes_) return false;
  bool eq = true;
  a.nodes_.for_each([&](NodeId v) {
    if (a.adj_[v] != b.adj_[v]) eq = false;
  });
  return eq;
}

void Graph::debug_validate() const {
  // Messages are assembled with += (not chained operator+) to sidestep a
  // GCC 12 -Wrestrict false positive on nested string concatenation.
  const auto fail_at = [](const char* what, std::size_t v, const std::string& detail) {
    std::string msg = what;
    msg += " at node ";
    msg += std::to_string(v);
    if (!detail.empty()) {
      msg += ": ";
      msg += detail;
    }
    audit::detail::fail("graph", msg);
  };
  nodes_.debug_validate();
  if (!nodes_.empty() && nodes_.max() >= adj_.size())
    fail_at("missing adjacency row", nodes_.max(),
            "capacity " + std::to_string(adj_.size()));
  for (std::size_t v = 0; v < adj_.size(); ++v) {
    adj_[v].debug_validate();
    if (!nodes_.contains(NodeId(v))) {
      if (!adj_[v].empty())
        fail_at("non-empty adjacency row for absent node", v, adj_[v].to_string());
      continue;
    }
    if (adj_[v].contains(NodeId(v))) fail_at("self-loop", v, "");
    if (!adj_[v].is_subset_of(nodes_))
      fail_at("adjacency to non-nodes", v, (adj_[v] - nodes_).to_string());
    adj_[v].for_each([&](NodeId u) {
      if (!adj_[u].contains(NodeId(v)))
        fail_at("asymmetric adjacency", v,
                "edge to " + std::to_string(u) + " recorded in one direction only");
    });
  }
}

std::string Graph::to_string() const {
  // Assembled with += (not chained operator+) to sidestep a GCC 12
  // -Wrestrict false positive on nested string concatenation.
  std::string out = "Graph(V=";
  out += nodes_.to_string();
  out += ", E={";
  bool first = true;
  for (const Edge& e : edges()) {
    if (!first) out += ", ";
    first = false;
    out += "{";
    out += std::to_string(e.a);
    out += ",";
    out += std::to_string(e.b);
    out += "}";
  }
  out += "})";
  return out;
}

}  // namespace rmt
