#include "graph/cuts.hpp"

#include <algorithm>
#include <deque>
#include <vector>

#include "util/check.hpp"

namespace rmt {

namespace {

// The std::function API is a thin adapter over the visitor template —
// one enumerator, two surfaces, identical order by construction.
struct FnVisitor {
  const std::function<bool(const NodeSet&)>& visit_fn;
  bool visit(const NodeSet& b) const { return visit_fn(b); }
};

}  // namespace

bool enumerate_connected_subsets(const Graph& g, NodeId seed, const NodeSet& forbidden,
                                 const std::function<bool(const NodeSet&)>& visit) {
  FnVisitor vis{visit};
  return enumerate_connected_subsets(g, seed, forbidden, vis);
}

namespace {

// Node-split max-flow (unit capacities) for vertex connectivity. Each node v
// becomes v_in -> v_out with capacity 1 (infinite for s, t); each edge {u,v}
// becomes u_out -> v_in and v_out -> u_in. Max flow = min vertex cut
// (Menger). Sizes here are tiny, so BFS augmentation is plenty.
struct FlowNet {
  // arc: to, capacity, index of reverse arc
  struct Arc {
    int to;
    int cap;
    std::size_t rev;
  };
  std::vector<std::vector<Arc>> adj;

  explicit FlowNet(std::size_t n) : adj(n) {}

  void add(int from, int to, int cap) {
    adj[from].push_back({to, cap, adj[to].size()});
    adj[to].push_back({from, 0, adj[from].size() - 1});
  }

  int max_flow(int s, int t) {
    int total = 0;
    for (;;) {
      // BFS for an augmenting path.
      std::vector<std::pair<int, std::size_t>> parent(adj.size(), {-1, 0});
      std::deque<int> q{s};
      parent[s] = {s, 0};
      while (!q.empty() && parent[t].first < 0) {
        const int u = q.front();
        q.pop_front();
        for (std::size_t i = 0; i < adj[u].size(); ++i) {
          const Arc& a = adj[u][i];
          if (a.cap > 0 && parent[a.to].first < 0) {
            parent[a.to] = {u, i};
            q.push_back(a.to);
          }
        }
      }
      if (parent[t].first < 0) return total;
      for (int v = t; v != s;) {
        auto [u, i] = parent[v];
        adj[u][i].cap -= 1;
        adj[adj[u][i].to][adj[u][i].rev].cap += 1;
        v = u;
      }
      ++total;
    }
  }
};

}  // namespace

std::size_t min_vertex_cut(const Graph& g, NodeId s, NodeId t) {
  RMT_REQUIRE(g.has_node(s) && g.has_node(t) && s != t, "min_vertex_cut: bad endpoints");
  if (g.has_edge(s, t)) return g.num_nodes();  // no separator exists
  const std::size_t cap = g.capacity();
  const int big = static_cast<int>(g.num_nodes()) + 1;
  FlowNet net(2 * cap);
  auto in = [](NodeId v) { return static_cast<int>(2 * v); };
  auto out = [](NodeId v) { return static_cast<int>(2 * v + 1); };
  g.nodes().for_each([&](NodeId v) {
    net.add(in(v), out(v), (v == s || v == t) ? big : 1);
  });
  for (const Edge& e : g.edges()) {
    net.add(out(e.a), in(e.b), big);
    net.add(out(e.b), in(e.a), big);
  }
  const int f = net.max_flow(in(s), out(t));
  return static_cast<std::size_t>(f);
}

bool is_k_connected_between(const Graph& g, NodeId s, NodeId t, std::size_t k) {
  return min_vertex_cut(g, s, t) >= k;
}

}  // namespace rmt
