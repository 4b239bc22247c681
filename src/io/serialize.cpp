#include "io/serialize.hpp"

#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rmt::io {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& msg) {
  throw std::invalid_argument("instance parse error at line " + std::to_string(line) + ": " +
                              msg);
}

/// The C locale's isspace set — exactly what `operator>>` skips.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r';
}

/// Reads one comment-stripped line with `std::istream >>` semantics, minus
/// the stream: a word is a maximal run of non-space bytes; an integer is a
/// `long long` with an optional sign, read up to the first non-digit (not
/// consumed), and a read with no digits or out of range fails. A failed
/// read is sticky, like a stream's failbit.
class Cursor {
 public:
  explicit Cursor(std::string_view line) : s_(line) {}

  bool word(std::string_view& out) {
    if (!skip_space()) return false;
    const std::size_t start = pos_;
    while (pos_ < s_.size() && !is_space(s_[pos_])) ++pos_;
    out = s_.substr(start, pos_ - start);
    return true;
  }

  bool integer(long long& out) {
    if (!skip_space()) return false;
    const bool negative = s_[pos_] == '-';
    if (negative || s_[pos_] == '+') ++pos_;
    // |LLONG_MIN| = LLONG_MAX + 1 is in range only with the minus sign.
    const unsigned long long max =
        static_cast<unsigned long long>(std::numeric_limits<long long>::max()) + negative;
    const std::size_t first_digit = pos_;
    unsigned long long acc = 0;
    bool overflow = false;
    for (; pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9'; ++pos_) {
      const unsigned digit = unsigned(s_[pos_] - '0');
      if (overflow || acc > (max - digit) / 10) overflow = true;
      else acc = acc * 10 + digit;
    }
    if (pos_ == first_digit || overflow) {
      failed_ = true;
      return false;
    }
    out = negative ? static_cast<long long>(0ull - acc) : static_cast<long long>(acc);
    return true;
  }

 private:
  /// Skips spaces; false (and failed from now on) when the line is done.
  bool skip_space() {
    if (failed_) return false;
    while (pos_ < s_.size() && is_space(s_[pos_])) ++pos_;
    if (pos_ == s_.size()) failed_ = true;
    return !failed_;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

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
  /// Admissible sets; ∅ first, so the sets of a canonical text (listed in
  /// AdversaryStructure's sorted order) reach from_sets already sorted.
  std::vector<NodeSet> sets{NodeSet{}};
  enum class Knowledge { kUnset, kAdHoc, kFull, kKHop, kCustom } knowledge = Knowledge::kUnset;
  std::size_t k = 0;
  std::size_t khop_line = 0;
  // custom-view extras: per node, extra known nodes / edges above the star
  std::map<NodeId, NodeSet> extra_nodes;
  std::map<NodeId, std::vector<Edge>> extra_edges;
  std::vector<IdRef> id_refs;  ///< deferred range checks (see IdRef)
};

/// Range-check one id read from a list (corruptible, view) with the
/// absolute cap applied immediately — ids are inserted into NodeSets during
/// parsing, so an uncapped id would allocate before any end-of-parse
/// validation runs.
NodeId capped_id(long long v, std::size_t line) {
  if (v < 0) fail(line, "negative node id");
  if (std::size_t(v) >= kMaxParseNodes)
    fail(line, "node id " + std::to_string(v) + " out of range (ids must be < " +
                   std::to_string(kMaxParseNodes) + ")");
  return NodeId(v);
}

/// Read one required node id (same cap as capped_id).
NodeId parse_node(Cursor& cur, std::size_t line) {
  long long v = -1;
  if (!cur.integer(v) || v < 0) fail(line, "expected a node id");
  return capped_id(v, line);
}

}  // namespace

Instance parse_instance_string(std::string_view text) {
  Builder b;
  std::size_t lineno = 0;
  bool header = false;
  // Lines split on '\n' like std::getline: no empty line after a final
  // newline, and a last line without one still counts.
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++lineno;
    line = line.substr(0, line.find('#'));
    Cursor cur(line);
    std::string_view word;
    if (!cur.word(word)) continue;  // blank / comment-only
    if (!header) {
      if (word != "rmt-instance") fail(lineno, "missing 'rmt-instance v1' header");
      std::string_view version;
      cur.word(version);
      if (version != "v1") fail(lineno, "unsupported version '" + std::string(version) + "'");
      header = true;
      continue;
    }
    if (word == "nodes") {
      if (b.nodes_line != 0)
        fail(lineno, "duplicate 'nodes' directive (first at line " +
                         std::to_string(b.nodes_line) + ")");
      long long n = -1;
      if (!cur.integer(n) || n <= 0) fail(lineno, "expected a positive node count");
      if (std::size_t(n) > kMaxParseNodes)
        fail(lineno, "node count " + std::to_string(n) + " out of range (max " +
                         std::to_string(kMaxParseNodes) + ")");
      b.n = std::size_t(n);
      b.nodes_line = lineno;
    } else if (word == "edge") {
      const NodeId u = parse_node(cur, lineno), v = parse_node(cur, lineno);
      b.edges.push_back({u, v});
      b.edge_lines.push_back(lineno);
    } else if (word == "dealer") {
      if (b.dealer_line != 0)
        fail(lineno, "duplicate 'dealer' directive (first at line " +
                         std::to_string(b.dealer_line) + ")");
      b.dealer = parse_node(cur, lineno);
      b.dealer_line = lineno;
      b.id_refs.push_back({*b.dealer, lineno, "dealer"});
    } else if (word == "receiver") {
      if (b.receiver_line != 0)
        fail(lineno, "duplicate 'receiver' directive (first at line " +
                         std::to_string(b.receiver_line) + ")");
      b.receiver = parse_node(cur, lineno);
      b.receiver_line = lineno;
      b.id_refs.push_back({*b.receiver, lineno, "receiver"});
    } else if (word == "corruptible") {
      // The list ends at the first token that is not an integer.
      NodeSet s;
      long long raw;
      while (cur.integer(raw)) {
        const NodeId v = capped_id(raw, lineno);
        if (s.contains(v))
          fail(lineno, "duplicate node id " + std::to_string(v) + " in corruptible set");
        s.insert(v);
        b.id_refs.push_back({v, lineno, "corruptible set"});
      }
      b.sets.push_back(std::move(s));
    } else if (word == "knowledge") {
      if (b.knowledge_line != 0)
        fail(lineno, "duplicate 'knowledge' directive (first at line " +
                         std::to_string(b.knowledge_line) + ")");
      b.knowledge_line = lineno;
      std::string_view kind;
      if (!cur.word(kind)) fail(lineno, "expected a knowledge kind");
      if (kind == "adhoc") b.knowledge = Builder::Knowledge::kAdHoc;
      else if (kind == "full") b.knowledge = Builder::Knowledge::kFull;
      else if (kind == "custom") b.knowledge = Builder::Knowledge::kCustom;
      else if (kind == "k-hop") {
        b.knowledge = Builder::Knowledge::kKHop;
        long long k = -1;
        if (!cur.integer(k) || k < 0) fail(lineno, "k-hop needs a radius");
        b.k = std::size_t(k);
        b.khop_line = lineno;
      } else
        fail(lineno, "unknown knowledge kind '" + std::string(kind) + "'");
    } else if (word == "view" || word == "view-edge") {
      const NodeId owner = parse_node(cur, lineno);
      b.id_refs.push_back({owner, lineno, "view owner"});
      std::string_view colon;
      if (!cur.word(colon) || colon != ":") fail(lineno, "expected ':' after view owner");
      if (word == "view") {
        NodeSet& extras = b.extra_nodes[owner];
        long long raw;
        while (cur.integer(raw)) {
          const NodeId v = capped_id(raw, lineno);
          if (extras.contains(v))
            fail(lineno, "duplicate node id " + std::to_string(v) + " in view of node " +
                             std::to_string(owner));
          extras.insert(v);
          b.id_refs.push_back({v, lineno, "view"});
        }
      } else {
        const NodeId u = parse_node(cur, lineno), v = parse_node(cur, lineno);
        b.extra_edges[owner].push_back({u, v});
        b.id_refs.push_back({u, lineno, "view-edge"});
        b.id_refs.push_back({v, lineno, "view-edge"});
      }
    } else {
      fail(lineno, "unknown directive '" + std::string(word) + "'");
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
  for (std::size_t i = 0; i < b.edges.size(); ++i) {
    const Edge& e = b.edges[i];
    const std::size_t at = b.edge_lines[i];
    if (e.a >= b.n || e.b >= b.n) fail(at, "edge endpoint out of range");
    if (g.has_edge(e.a, e.b))
      fail(at, "duplicate edge " + std::to_string(e.a) + " " + std::to_string(e.b));
    g.add_edge(e.a, e.b);
  }
  AdversaryStructure z = AdversaryStructure::from_sets(std::move(b.sets));

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

Instance load_instance(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("cannot open " + path);
  const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  return parse_instance_string(text);
}

std::string serialize_instance(const Instance& inst) {
  // Built by plain string appends, not an ostringstream: this text is the
  // content-address preimage (svc::instance_key hashes it on the serving
  // hot path), and append + std::to_string produces byte-identical output
  // at a fraction of the stream machinery's cost.
  std::string out;
  out.reserve(64 + 16 * inst.graph().num_edges());
  const auto append_num = [&out](std::uint64_t v) { out += std::to_string(v); };
  out += "rmt-instance v1\n";
  out += "nodes ";
  append_num(inst.graph().capacity());
  out += "\n";
  for (const Edge& e : inst.graph().edges()) {
    out += "edge ";
    append_num(e.a);
    out += ' ';
    append_num(e.b);
    out += '\n';
  }
  out += "dealer ";
  append_num(inst.dealer());
  out += "\nreceiver ";
  append_num(inst.receiver());
  out += "\n";
  for (const NodeSet& m : inst.adversary().maximal_sets()) {
    if (m.empty()) continue;
    out += "corruptible";
    m.for_each([&](NodeId v) {
      out += ' ';
      append_num(v);
    });
    out += '\n';
  }
  // Emit custom views as extras over the ad hoc floor, the owner's star:
  // N[v] and the deg(v) edges at v. Every view contains its star
  // (ViewFunction::set_view enforces it), so a view is the star iff its
  // nodes are N[v] and it has deg(v) edges, and its extras are the nodes
  // outside N[v] and the edges not incident to v.
  const Graph& g = inst.graph();
  bool is_adhoc = true;
  g.nodes().for_each([&](NodeId v) {
    const Graph& view = inst.gamma().view(v);
    if (!(view.nodes() == g.closed_neighborhood(v) && view.num_edges() == g.degree(v)))
      is_adhoc = false;
  });
  if (is_adhoc) {
    out += "knowledge adhoc\n";
  } else {
    out += "knowledge custom\n";
    g.nodes().for_each([&](NodeId v) {
      const Graph& view = inst.gamma().view(v);
      NodeSet extra_nodes = view.nodes() - g.closed_neighborhood(v);
      if (!extra_nodes.empty()) {
        out += "view ";
        append_num(v);
        out += " :";
        extra_nodes.for_each([&](NodeId u) {
          out += ' ';
          append_num(u);
        });
        out += '\n';
      }
      for (const Edge& e : view.edges())
        if (e.a != v && e.b != v) {
          out += "view-edge ";
          append_num(v);
          out += " : ";
          append_num(e.a);
          out += ' ';
          append_num(e.b);
          out += '\n';
        }
    });
  }
  return out;
}

}  // namespace rmt::io
