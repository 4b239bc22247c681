#include "check/reference_parser.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "io/serialize.hpp"

namespace rmt::propcheck {

using io::kMaxParseNodes;

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& msg) {
  throw std::invalid_argument("instance parse error at line " + std::to_string(line) + ": " +
                              msg);
}

/// A node-id mention whose range check must wait until `nodes` is known
/// (directives may come in any order); `line` keeps the diagnostic exact.
struct IdRef {
  NodeId id = 0;
  std::size_t line = 0;
  const char* context = "";  ///< "dealer", "corruptible set", ...
};

struct Builder {
  std::size_t n = 0;
  std::size_t nodes_line = 0;  ///< 0 = not seen yet (also duplicate guard)
  std::vector<Edge> edges;
  std::vector<std::size_t> edge_lines;  ///< source line of each edge, for diagnostics
  std::optional<NodeId> dealer, receiver;
  std::size_t dealer_line = 0, receiver_line = 0, knowledge_line = 0;
  std::vector<NodeSet> sets;
  enum class Knowledge { kUnset, kAdHoc, kFull, kKHop, kCustom } knowledge = Knowledge::kUnset;
  std::size_t k = 0;
  std::size_t khop_line = 0;
  // custom-view extras: per node, extra known nodes / edges above the star
  std::map<NodeId, NodeSet> extra_nodes;
  std::map<NodeId, std::vector<Edge>> extra_edges;
  std::vector<IdRef> id_refs;  ///< deferred range checks (see IdRef)
};

/// Read one node id with the absolute cap applied immediately — ids are
/// inserted into NodeSets during parsing, so an uncapped id would allocate
/// before any end-of-parse validation runs.
NodeId parse_node(std::istringstream& ss, std::size_t line) {
  long long v = -1;
  if (!(ss >> v) || v < 0) fail(line, "expected a node id");
  if (std::size_t(v) >= kMaxParseNodes)
    fail(line, "node id " + std::to_string(v) + " out of range (ids must be < " +
                   std::to_string(kMaxParseNodes) + ")");
  return NodeId(v);
}

Instance reference_parse_stream(std::istream& in) {
  Builder b;
  std::string line;
  std::size_t lineno = 0;
  bool header = false;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ss(line);
    std::string word;
    if (!(ss >> word)) continue;  // blank / comment-only
    if (!header) {
      if (word != "rmt-instance") fail(lineno, "missing 'rmt-instance v1' header");
      std::string version;
      ss >> version;
      if (version != "v1") fail(lineno, "unsupported version '" + version + "'");
      header = true;
      continue;
    }
    if (word == "nodes") {
      if (b.nodes_line != 0)
        fail(lineno, "duplicate 'nodes' directive (first at line " +
                         std::to_string(b.nodes_line) + ")");
      long long n = -1;
      if (!(ss >> n) || n <= 0) fail(lineno, "expected a positive node count");
      if (std::size_t(n) > kMaxParseNodes)
        fail(lineno, "node count " + std::to_string(n) + " out of range (max " +
                         std::to_string(kMaxParseNodes) + ")");
      b.n = std::size_t(n);
      b.nodes_line = lineno;
    } else if (word == "edge") {
      const NodeId u = parse_node(ss, lineno), v = parse_node(ss, lineno);
      b.edges.push_back({u, v});
      b.edge_lines.push_back(lineno);
    } else if (word == "dealer") {
      if (b.dealer_line != 0)
        fail(lineno, "duplicate 'dealer' directive (first at line " +
                         std::to_string(b.dealer_line) + ")");
      b.dealer = parse_node(ss, lineno);
      b.dealer_line = lineno;
      b.id_refs.push_back({*b.dealer, lineno, "dealer"});
    } else if (word == "receiver") {
      if (b.receiver_line != 0)
        fail(lineno, "duplicate 'receiver' directive (first at line " +
                         std::to_string(b.receiver_line) + ")");
      b.receiver = parse_node(ss, lineno);
      b.receiver_line = lineno;
      b.id_refs.push_back({*b.receiver, lineno, "receiver"});
    } else if (word == "corruptible") {
      NodeSet s;
      long long v;
      while (ss >> v) {
        if (v < 0) fail(lineno, "negative node id");
        if (std::size_t(v) >= kMaxParseNodes)
          fail(lineno, "node id " + std::to_string(v) + " out of range (ids must be < " +
                           std::to_string(kMaxParseNodes) + ")");
        if (s.contains(NodeId(v)))
          fail(lineno, "duplicate node id " + std::to_string(v) + " in corruptible set");
        s.insert(NodeId(v));
        b.id_refs.push_back({NodeId(v), lineno, "corruptible set"});
      }
      b.sets.push_back(std::move(s));
    } else if (word == "knowledge") {
      if (b.knowledge_line != 0)
        fail(lineno, "duplicate 'knowledge' directive (first at line " +
                         std::to_string(b.knowledge_line) + ")");
      b.knowledge_line = lineno;
      std::string kind;
      if (!(ss >> kind)) fail(lineno, "expected a knowledge kind");
      if (kind == "adhoc") b.knowledge = Builder::Knowledge::kAdHoc;
      else if (kind == "full") b.knowledge = Builder::Knowledge::kFull;
      else if (kind == "custom") b.knowledge = Builder::Knowledge::kCustom;
      else if (kind == "k-hop") {
        b.knowledge = Builder::Knowledge::kKHop;
        long long k = -1;
        if (!(ss >> k) || k < 0) fail(lineno, "k-hop needs a radius");
        b.k = std::size_t(k);
        b.khop_line = lineno;
      } else
        fail(lineno, "unknown knowledge kind '" + kind + "'");
    } else if (word == "view" || word == "view-edge") {
      const NodeId owner = parse_node(ss, lineno);
      b.id_refs.push_back({owner, lineno, "view owner"});
      std::string colon;
      if (!(ss >> colon) || colon != ":") fail(lineno, "expected ':' after view owner");
      if (word == "view") {
        long long v;
        while (ss >> v) {
          if (v < 0) fail(lineno, "negative node id");
          if (std::size_t(v) >= kMaxParseNodes)
            fail(lineno, "node id " + std::to_string(v) + " out of range (ids must be < " +
                             std::to_string(kMaxParseNodes) + ")");
          NodeSet& extras = b.extra_nodes[owner];
          if (extras.contains(NodeId(v)))
            fail(lineno, "duplicate node id " + std::to_string(v) + " in view of node " +
                             std::to_string(owner));
          extras.insert(NodeId(v));
          b.id_refs.push_back({NodeId(v), lineno, "view"});
        }
      } else {
        const NodeId u = parse_node(ss, lineno), v = parse_node(ss, lineno);
        b.extra_edges[owner].push_back({u, v});
        b.id_refs.push_back({u, lineno, "view-edge"});
        b.id_refs.push_back({v, lineno, "view-edge"});
      }
    } else {
      fail(lineno, "unknown directive '" + word + "'");
    }
  }
  if (!header) fail(lineno, "empty input");
  if (b.n == 0) fail(lineno, "missing 'nodes'");
  if (!b.dealer || !b.receiver) fail(lineno, "missing dealer/receiver");
  // Deferred range checks: directives may precede `nodes`, so node-id and
  // radius bounds are validated here, each against its recorded line.
  for (const IdRef& ref : b.id_refs)
    if (ref.id >= b.n)
      fail(ref.line, std::string(ref.context) + " node id " + std::to_string(ref.id) +
                         " out of range (nodes " + std::to_string(b.n) + ")");
  if (b.knowledge == Builder::Knowledge::kKHop && b.k > b.n)
    fail(b.khop_line, "k-hop radius " + std::to_string(b.k) +
                          " out of range for " + std::to_string(b.n) +
                          " nodes (a radius above n adds nothing)");

  Graph g(b.n);
  std::set<std::pair<NodeId, NodeId>> seen_edges;
  for (std::size_t i = 0; i < b.edges.size(); ++i) {
    const Edge& e = b.edges[i];
    const std::size_t at = b.edge_lines[i];
    if (e.a >= b.n || e.b >= b.n) fail(at, "edge endpoint out of range");
    const auto normalized = std::minmax(e.a, e.b);
    if (!seen_edges.insert({normalized.first, normalized.second}).second)
      fail(at, "duplicate edge " + std::to_string(e.a) + " " + std::to_string(e.b));
    g.add_edge(e.a, e.b);
  }
  std::vector<NodeSet> sets = b.sets;
  sets.push_back(NodeSet{});
  AdversaryStructure z = AdversaryStructure::from_sets(sets);

  ViewFunction gamma = [&] {
    switch (b.knowledge) {
      case Builder::Knowledge::kFull:
        return ViewFunction::full(g);
      case Builder::Knowledge::kKHop:
        return ViewFunction::k_hop(g, b.k);
      case Builder::Knowledge::kUnset:
      case Builder::Knowledge::kAdHoc:
      case Builder::Knowledge::kCustom:
        return ViewFunction::ad_hoc(g);
    }
    return ViewFunction::ad_hoc(g);
  }();
  if (b.knowledge == Builder::Knowledge::kCustom) {
    // Extend the ad hoc floor with the declared extras.
    NodeSet owners;
    for (const auto& [owner, _] : b.extra_nodes) owners.insert(owner);
    for (const auto& [owner, _] : b.extra_edges) owners.insert(owner);
    owners.for_each([&](NodeId owner) {
      Graph view = gamma.view(owner);
      if (auto it = b.extra_nodes.find(owner); it != b.extra_nodes.end())
        it->second.for_each([&](NodeId v) { view.add_node(v); });
      if (auto it = b.extra_edges.find(owner); it != b.extra_edges.end())
        for (const Edge& e : it->second) view.add_edge(e.a, e.b);
      gamma.set_view(owner, std::move(view));  // validates against G
    });
  }
  return Instance(std::move(g), std::move(z), std::move(gamma), *b.dealer, *b.receiver);
}

}  // namespace

Instance reference_parse_instance(const std::string& text) {
  std::istringstream ss(text);
  return reference_parse_stream(ss);
}

}  // namespace rmt::propcheck
