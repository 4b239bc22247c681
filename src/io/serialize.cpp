#include "io/serialize.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rmt::io {

namespace {

[[noreturn]] void fail(std::size_t line, std::string_view msg) {
  std::string what = "instance parse error at line " + std::to_string(line) + ": ";
  what += msg;
  throw std::invalid_argument(what);
}

/// Byte classes for the lexer. kSpace is the C locale's isspace set minus
/// '\n' — what `operator>>` skips inside a line; kEnd ends a line's
/// content: '\n', and '#', which starts a comment.
enum ByteClass : unsigned char { kOther = 0, kSpace = 1, kEnd = 2 };

constexpr std::array<unsigned char, 256> kByteClass = [] {
  std::array<unsigned char, 256> t{};
  for (const char c : {' ', '\t', '\v', '\f', '\r'}) t[static_cast<unsigned char>(c)] = kSpace;
  t['\n'] = kEnd;
  t['#'] = kEnd;
  return t;
}();

unsigned char byte_class(char c) { return kByteClass[static_cast<unsigned char>(c)]; }

/// The text's lines and their tokens, in one pass over the bytes. Each
/// line is read with `std::istream >>` semantics, minus the stream: a line
/// ends at '\n' (std::getline's split: no empty line after a final
/// newline, and a last line without one still counts), and its content
/// ends at the first '#'. A word is a maximal run of non-space bytes; an
/// integer is a `long long` with an optional sign, read up to the first
/// non-digit (not consumed), and a read with no digits or out of range
/// fails. A failed read is sticky until the next line, like a stream's
/// failbit.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : p_(text.data()), end_(text.data() + text.size()) {}

  /// Moves to the next line, skipping what is left of this one; false
  /// once the text is done.
  bool next_line() {
    if (line_ == 0) {
    } else if (p_ != end_ && *p_ == '\n') {
      ++p_;  // the usual case: the line's tokens were all read
    } else {
      const void* nl = std::memchr(p_, '\n', std::size_t(end_ - p_));
      p_ = nl ? static_cast<const char*>(nl) + 1 : end_;
    }
    if (p_ == end_) return false;
    ++line_;
    failed_ = false;
    return true;
  }

  /// Lines started so far: the current line's number.
  std::size_t line() const { return line_; }

  // The token readers are forced inline: out of line, their calls cost a
  // 2.4 KB cold_mix text about 2 µs of a 14 µs parse.
  [[gnu::always_inline]] bool word(std::string_view& out) {
    if (!skip_space()) return false;
    const char* start = p_;
    while (p_ != end_ && byte_class(*p_) == kOther) ++p_;
    out = std::string_view(start, std::size_t(p_ - start));
    return true;
  }

  [[gnu::always_inline]] bool integer(long long& out) {
    if (!skip_space()) return false;
    const bool negative = *p_ == '-';
    if (negative || *p_ == '+') ++p_;
    if (p_ == end_ || !is_digit(*p_)) {
      failed_ = true;
      return false;
    }
    unsigned long long acc = unsigned(*p_++ - '0');
    // Ids and counts are one or two digits: take a second digit without a
    // branch on whether there is one.
    if (p_ != end_) {
      const unsigned digit = unsigned(*p_ - '0');
      const bool more = digit < 10;
      acc = more ? acc * 10 + digit : acc;
      p_ += more;
    }
    // |LLONG_MIN| = LLONG_MAX + 1 is in range only with the minus sign.
    // Below kSafe another digit cannot overflow, so only 19-digit and
    // longer runs take the exact test.
    const unsigned long long max =
        static_cast<unsigned long long>(std::numeric_limits<long long>::max()) + negative;
    constexpr unsigned long long kSafe = std::numeric_limits<long long>::max() / 10;
    bool overflow = false;
    for (; p_ != end_ && is_digit(*p_); ++p_) {
      const unsigned digit = unsigned(*p_ - '0');
      if (acc < kSafe) acc = acc * 10 + digit;
      else if (overflow || acc > (max - digit) / 10) overflow = true;
      else acc = acc * 10 + digit;
    }
    if (overflow) {
      failed_ = true;
      return false;
    }
    out = negative ? static_cast<long long>(0ull - acc) : static_cast<long long>(acc);
    return true;
  }

 private:
  static bool is_digit(char c) { return unsigned(c - '0') < 10; }

  /// Skips spaces within the line; false (and failed until the next line)
  /// at the line's end or its comment.
  [[gnu::always_inline]] bool skip_space() {
    if (failed_) return false;
    while (p_ != end_ && byte_class(*p_) == kSpace) ++p_;
    if (p_ == end_ || byte_class(*p_) == kEnd) failed_ = true;
    return !failed_;
  }

  const char* p_;
  const char* end_;
  std::size_t line_ = 0;
  bool failed_ = false;
};

/// A node-id mention and where it was read, for the range check against
/// `nodes` (directives may come in any order).
struct IdRef {
  NodeId id = 0;
  std::size_t line = 0;
  const char* context = "";  ///< "dealer", "corruptible set", ...
};

/// One `view-edge` extra: an edge of `owner`'s view beyond its star.
struct ViewEdge {
  NodeId owner = 0;
  Edge e;
};

struct Builder {
  std::size_t n = 0;           ///< 0 until `nodes` is read
  std::size_t nodes_line = 0;  ///< 0 = not seen yet (also duplicate guard)
  struct LineEdge {
    Edge e;
    std::size_t line = 0;  ///< source line, for diagnostics
  };
  std::vector<LineEdge> edges;
  std::optional<NodeId> dealer, receiver;
  std::size_t dealer_line = 0, receiver_line = 0, knowledge_line = 0;
  /// Admissible sets; ∅ first, so the sets of a canonical text (listed in
  /// AdversaryStructure's sorted order) reach from_sets already sorted.
  std::vector<NodeSet> sets{NodeSet{}};
  enum class Knowledge { kUnset, kAdHoc, kFull, kKHop, kCustom } knowledge = Knowledge::kUnset;
  std::size_t k = 0;
  std::size_t khop_line = 0;
  /// `view` extras indexed by owner (grown to the largest owner read), and
  /// `view-edge` extras in text order, bucketed by owner when the views
  /// are built. Only `knowledge custom` uses them.
  std::vector<NodeSet> view_nodes;
  std::vector<ViewEdge> view_edges;
  /// Range checks. An id read after `nodes` is checked as it is read and
  /// only the first failure is kept; ids read before `nodes` wait here and
  /// are checked first, so the failure reported is the first in text order.
  std::vector<IdRef> deferred;
  std::optional<IdRef> first_out_of_range;

  void check_id(NodeId id, std::size_t line, const char* context) {
    if (n == 0) deferred.push_back({id, line, context});
    else if (id >= n && !first_out_of_range) first_out_of_range = IdRef{id, line, context};
  }
};

[[noreturn]] void fail_out_of_range(const IdRef& ref, std::size_t n) {
  fail(ref.line, std::string(ref.context) + " node id " + std::to_string(ref.id) +
                     " out of range (nodes " + std::to_string(n) + ")");
}

[[noreturn]] void fail_over_cap(long long v, std::size_t line) {
  fail(line, "node id " + std::to_string(v) + " out of range (ids must be < " +
                 std::to_string(kMaxParseNodes) + ")");
}

/// Range-check one id read from a list (corruptible, view) with the
/// absolute cap applied immediately — ids are inserted into NodeSets during
/// parsing, so an uncapped id would allocate before any end-of-parse
/// validation runs.
NodeId capped_id(long long v, std::size_t line) {
  if (v < 0) fail(line, "negative node id");
  if (std::size_t(v) >= kMaxParseNodes) fail_over_cap(v, line);
  return NodeId(v);
}

/// Read one required node id (same cap as capped_id).
[[gnu::always_inline]] inline NodeId parse_node(Lexer& lex) {
  long long v = -1;
  if (!lex.integer(v) || v < 0) fail(lex.line(), "expected a node id");
  if (std::size_t(v) >= kMaxParseNodes) fail_over_cap(v, lex.line());
  return NodeId(v);
}

/// γ under `knowledge custom`: each view is its owner's star plus the
/// declared extras, built and validated once. Views are made in node
/// order, so the first rejection (a self-loop extra, through
/// Graph::add_edge, or an extra outside G, through set_view) is the
/// lowest such owner's, as when each owner's star is extended in turn.
ViewFunction custom_views(const Graph& g, Builder& b) {
  const auto by_owner = [](const ViewEdge& x, const ViewEdge& y) { return x.owner < y.owner; };
  std::vector<ViewEdge>& extra_edges = b.view_edges;
  if (!std::is_sorted(extra_edges.begin(), extra_edges.end(), by_owner))
    std::stable_sort(extra_edges.begin(), extra_edges.end(), by_owner);
  std::size_t next = 0;
  return ViewFunction::from_views(g, [&](NodeId v) {
    const std::size_t first = next;
    while (next < extra_edges.size() && extra_edges[next].owner == v) ++next;
    const bool has_nodes = v < b.view_nodes.size() && !b.view_nodes[v].empty();
    if (first == next && !has_nodes) return g.star(v);
    NodeSet extra = has_nodes ? b.view_nodes[v] : NodeSet{};
    for (std::size_t i = first; i < next; ++i) {
      extra.insert(extra_edges[i].e.a);
      extra.insert(extra_edges[i].e.b);
    }
    Graph view = g.star(v, extra);
    for (std::size_t i = first; i < next; ++i)
      view.add_edge(extra_edges[i].e.a, extra_edges[i].e.b);
    return view;
  });
}

}  // namespace

Instance parse_instance_string(std::string_view text) {
  Builder b;
  Lexer lex(text);
  bool header = false;
  while (lex.next_line()) {
    const std::size_t lineno = lex.line();
    std::string_view word;
    if (!lex.word(word)) continue;  // blank / comment-only
    if (!header) {
      if (word != "rmt-instance") fail(lineno, "missing 'rmt-instance v1' header");
      std::string_view version;
      lex.word(version);
      if (version != "v1") fail(lineno, "unsupported version '" + std::string(version) + "'");
      header = true;
      continue;
    }
    if (word == "view-edge" || word == "view") {
      const NodeId owner = parse_node(lex);
      b.check_id(owner, lineno, "view owner");
      std::string_view colon;
      if (!lex.word(colon) || colon != ":") fail(lineno, "expected ':' after view owner");
      if (word == "view") {
        if (owner >= b.view_nodes.size())
          b.view_nodes.resize(std::max<std::size_t>(std::size_t(owner) + 1, b.n));
        NodeSet& extras = b.view_nodes[owner];
        long long raw;
        while (lex.integer(raw)) {
          const NodeId v = capped_id(raw, lineno);
          if (extras.contains(v))
            fail(lineno, "duplicate node id " + std::to_string(v) + " in view of node " +
                             std::to_string(owner));
          extras.insert(v);
          b.check_id(v, lineno, "view");
        }
      } else {
        const NodeId u = parse_node(lex), v = parse_node(lex);
        b.view_edges.push_back({owner, {u, v}});
        b.check_id(u, lineno, "view-edge");
        b.check_id(v, lineno, "view-edge");
      }
    } else if (word == "edge") {
      const NodeId u = parse_node(lex), v = parse_node(lex);
      b.edges.push_back({{u, v}, lineno});
    } else if (word == "corruptible") {
      // The list ends at the first token that is not an integer.
      NodeSet s;
      long long raw;
      while (lex.integer(raw)) {
        const NodeId v = capped_id(raw, lineno);
        if (s.contains(v))
          fail(lineno, "duplicate node id " + std::to_string(v) + " in corruptible set");
        s.insert(v);
        b.check_id(v, lineno, "corruptible set");
      }
      b.sets.push_back(std::move(s));
    } else if (word == "nodes") {
      if (b.nodes_line != 0)
        fail(lineno, "duplicate 'nodes' directive (first at line " +
                         std::to_string(b.nodes_line) + ")");
      long long n = -1;
      if (!lex.integer(n) || n <= 0) fail(lineno, "expected a positive node count");
      if (std::size_t(n) > kMaxParseNodes)
        fail(lineno, "node count " + std::to_string(n) + " out of range (max " +
                         std::to_string(kMaxParseNodes) + ")");
      b.n = std::size_t(n);
      b.nodes_line = lineno;
    } else if (word == "dealer") {
      if (b.dealer_line != 0)
        fail(lineno, "duplicate 'dealer' directive (first at line " +
                         std::to_string(b.dealer_line) + ")");
      b.dealer = parse_node(lex);
      b.dealer_line = lineno;
      b.check_id(*b.dealer, lineno, "dealer");
    } else if (word == "receiver") {
      if (b.receiver_line != 0)
        fail(lineno, "duplicate 'receiver' directive (first at line " +
                         std::to_string(b.receiver_line) + ")");
      b.receiver = parse_node(lex);
      b.receiver_line = lineno;
      b.check_id(*b.receiver, lineno, "receiver");
    } else if (word == "knowledge") {
      if (b.knowledge_line != 0)
        fail(lineno, "duplicate 'knowledge' directive (first at line " +
                         std::to_string(b.knowledge_line) + ")");
      b.knowledge_line = lineno;
      std::string_view kind;
      if (!lex.word(kind)) fail(lineno, "expected a knowledge kind");
      if (kind == "adhoc") b.knowledge = Builder::Knowledge::kAdHoc;
      else if (kind == "full") b.knowledge = Builder::Knowledge::kFull;
      else if (kind == "custom") b.knowledge = Builder::Knowledge::kCustom;
      else if (kind == "k-hop") {
        b.knowledge = Builder::Knowledge::kKHop;
        long long k = -1;
        if (!lex.integer(k) || k < 0) fail(lineno, "k-hop needs a radius");
        b.k = std::size_t(k);
        b.khop_line = lineno;
      } else
        fail(lineno, "unknown knowledge kind '" + std::string(kind) + "'");
    } else {
      fail(lineno, "unknown directive '" + std::string(word) + "'");
    }
  }
  const std::size_t lines = lex.line();
  if (!header) fail(lines, "empty input");
  if (b.n == 0) fail(lines, "missing 'nodes'");
  if (!b.dealer || !b.receiver) fail(lines, "missing dealer/receiver");
  for (const IdRef& ref : b.deferred)
    if (ref.id >= b.n) fail_out_of_range(ref, b.n);
  if (b.first_out_of_range) fail_out_of_range(*b.first_out_of_range, b.n);
  if (b.knowledge == Builder::Knowledge::kKHop && b.k > b.n)
    fail(b.khop_line, "k-hop radius " + std::to_string(b.k) +
                          " out of range for " + std::to_string(b.n) +
                          " nodes (a radius above n adds nothing)");

  Graph g(b.n);
  for (const Builder::LineEdge& at : b.edges) {
    const Edge& e = at.e;
    if (e.a >= b.n || e.b >= b.n) fail(at.line, "edge endpoint out of range");
    if (g.has_edge(e.a, e.b))
      fail(at.line, "duplicate edge " + std::to_string(e.a) + " " + std::to_string(e.b));
    g.add_edge(e.a, e.b);
  }
  AdversaryStructure z = AdversaryStructure::from_sets(std::move(b.sets));

  ViewFunction gamma = [&] {
    switch (b.knowledge) {
      case Builder::Knowledge::kFull:
        return ViewFunction::full(g);
      case Builder::Knowledge::kKHop:
        return ViewFunction::k_hop(g, b.k);
      case Builder::Knowledge::kCustom:
        return custom_views(g, b);
      case Builder::Knowledge::kUnset:
      case Builder::Knowledge::kAdHoc:
        return ViewFunction::ad_hoc(g);
    }
    return ViewFunction::ad_hoc(g);
  }();
  return Instance(std::move(g), std::move(z), std::move(gamma), *b.dealer, *b.receiver);
}

Instance load_instance(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("cannot open " + path);
  const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  return parse_instance_string(text);
}

namespace {

/// Collects the canonical text in a small buffer and hands it to the sink
/// a line or two at a time: the sink sees no call per token, the key never
/// needs the whole text in one string, and FNV-1a's byte-serial multiply
/// chain over one chunk overlaps the writing of the next (a 128-byte
/// chunk keys a cold_mix text about 20% faster than a 4 KB one). A line
/// is written straight into the buffer: room(n) makes space for n bytes,
/// commit() takes them.
class ChunkWriter {
 public:
  static constexpr std::size_t kCapacity = 128;

  explicit ChunkWriter(const CanonicalSink& sink) : sink_(sink) {}

  /// Where the next bytes go, with at least `n` (<= kCapacity) free.
  char* room(std::size_t n) {
    if (n > kCapacity - len_) flush();
    return buf_ + len_;
  }
  void commit(const char* end) { len_ = std::size_t(end - buf_); }

  void flush() {
    if (len_ != 0) sink_(std::string_view(buf_, len_));
    len_ = 0;
  }

 private:
  const CanonicalSink& sink_;
  std::size_t len_ = 0;
  char buf_[kCapacity];
};

/// Room for the longest line piece: a keyword and three numbers.
constexpr std::size_t kLineRoom = 96;
/// Room for one list entry: a space and a number.
constexpr std::size_t kEntryRoom = 24;
static_assert(kLineRoom <= ChunkWriter::kCapacity);

template <std::size_t N>
char* put(char* p, const char (&literal)[N]) {
  std::memcpy(p, literal, N - 1);
  return p + N - 1;
}

char* put(char* p, char c) {
  *p = c;
  return p + 1;
}

/// The decimal digits of v, as std::to_string writes them. Ids below 100
/// (every instance the exact deciders take) are written without a branch
/// on their length.
char* put_num(char* p, std::uint64_t v) {
  if (v >= 100) return std::to_chars(p, p + 20, v).ptr;
  const bool two = v >= 10;
  p[0] = char('0' + (two ? v / 10 : v));
  p[1] = char('0' + v % 10);
  return p + 1 + two;
}

}  // namespace

void write_canonical(const Instance& inst, const CanonicalSink& sink) {
  ChunkWriter out(sink);
  const Graph& g = inst.graph();
  char* p = out.room(kLineRoom);
  p = put(p, "rmt-instance v1\nnodes ");
  out.commit(put(put_num(p, g.capacity()), '\n'));
  g.for_each_edge([&](NodeId a, NodeId b) {
    char* q = put(out.room(kLineRoom), "edge ");
    q = put(put_num(q, a), ' ');
    out.commit(put(put_num(q, b), '\n'));
  });
  p = put(out.room(kLineRoom), "dealer ");
  p = put(put_num(p, inst.dealer()), "\nreceiver ");
  out.commit(put(put_num(p, inst.receiver()), '\n'));
  for (const NodeSet& m : inst.adversary().maximal_sets()) {
    if (m.empty()) continue;
    out.commit(put(out.room(kLineRoom), "corruptible"));
    m.for_each([&](NodeId v) { out.commit(put_num(put(out.room(kEntryRoom), ' '), v)); });
    out.commit(put(out.room(1), '\n'));
  }
  // Views are written as extras over the ad hoc floor, the owner's star:
  // N[v] and the deg(v) edges at v. Every view contains its star
  // (ViewFunction::set_view enforces it), so a view is the star iff its
  // nodes are N[v] and it has deg(v) edges, and its extras are the nodes
  // outside N[v] and the edges not incident to v.
  const ViewFunction& gamma = inst.gamma();
  bool is_adhoc = true;
  g.nodes().for_each([&](NodeId v) {
    if (!is_adhoc) return;
    const Graph& view = gamma.view(v);
    is_adhoc = view.nodes() == g.closed_neighborhood(v) && view.num_edges() == g.degree(v);
  });
  if (is_adhoc) {
    out.commit(put(out.room(kLineRoom), "knowledge adhoc\n"));
  } else {
    out.commit(put(out.room(kLineRoom), "knowledge custom\n"));
    g.nodes().for_each([&](NodeId v) {
      const Graph& view = gamma.view(v);
      const NodeSet extra_nodes = view.nodes() - g.closed_neighborhood(v);
      if (!extra_nodes.empty()) {
        out.commit(put(put_num(put(out.room(kLineRoom), "view "), v), " :"));
        extra_nodes.for_each(
            [&](NodeId u) { out.commit(put_num(put(out.room(kEntryRoom), ' '), u)); });
        out.commit(put(out.room(1), '\n'));
      }
      view.for_each_edge([&](NodeId a, NodeId b) {
        if (a == v || b == v) return;
        char* q = put(out.room(kLineRoom), "view-edge ");
        q = put(put_num(q, v), " : ");
        q = put(put_num(q, a), ' ');
        out.commit(put(put_num(q, b), '\n'));
      });
    });
  }
  out.flush();
}

std::string serialize_instance(const Instance& inst) {
  std::string out;
  write_canonical(inst, [&out](std::string_view chunk) { out.append(chunk); });
  return out;
}

}  // namespace rmt::io
