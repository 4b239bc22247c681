// Tests for the instance text format (io/serialize.hpp).
#include "io/serialize.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/feasibility.hpp"
#include "check/reference_parser.hpp"
#include "graph/generators.hpp"
#include "tests/test_util.hpp"

namespace rmt::io {
namespace {

constexpr const char* kTriplePath = R"(
rmt-instance v1
nodes 8
# three disjoint 2-hop paths D -> R
edge 0 1
edge 1 2
edge 2 7
edge 0 3
edge 3 4
edge 4 7
edge 0 5
edge 5 6
edge 6 7
dealer 0
receiver 7
corruptible 1
corruptible 3
corruptible 5
knowledge k-hop 2
)";

TEST(IoParse, TriplePathInstance) {
  const Instance inst = parse_instance_string(kTriplePath);
  EXPECT_EQ(inst.num_players(), 8u);
  EXPECT_EQ(inst.graph().num_edges(), 9u);
  EXPECT_EQ(inst.dealer(), 0u);
  EXPECT_EQ(inst.receiver(), 7u);
  EXPECT_TRUE(inst.admissible_corruption(NodeSet{3}));
  EXPECT_FALSE(inst.admissible_corruption(NodeSet{1, 3}));
  EXPECT_TRUE(analysis::solvable(inst));  // 2-hop knowledge suffices
}

TEST(IoParse, KnowledgeKinds) {
  auto with_knowledge = [](const std::string& k) {
    return parse_instance_string("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\n"
                                 "dealer 0\nreceiver 2\nknowledge " + k + "\n");
  };
  EXPECT_EQ(with_knowledge("adhoc").gamma().view(1).num_edges(), 2u);
  EXPECT_EQ(with_knowledge("full").gamma().view(0), generators::path_graph(3));
  EXPECT_EQ(with_knowledge("k-hop 2").gamma().view(0).num_nodes(), 3u);
  // Missing knowledge directive defaults to ad hoc.
  const Instance def = parse_instance_string(
      "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n");
  EXPECT_EQ(def.gamma().view(1).num_edges(), 2u);
}

TEST(IoParse, CustomViews) {
  const Instance inst = parse_instance_string(
      "rmt-instance v1\nnodes 4\nedge 0 1\nedge 1 2\nedge 2 3\n"
      "dealer 0\nreceiver 3\nknowledge custom\n"
      "view 3 : 1\nview-edge 3 : 0 1\n");
  const Graph& view = inst.gamma().view(3);
  EXPECT_TRUE(view.has_edge(0, 1));   // declared extra edge
  EXPECT_TRUE(view.has_edge(2, 3));   // the star floor is implicit
  EXPECT_FALSE(view.has_edge(1, 2));  // not declared
}

TEST(IoParse, Errors) {
  EXPECT_THROW(parse_instance_string(""), std::invalid_argument);
  EXPECT_THROW(parse_instance_string("bogus v1\n"), std::invalid_argument);
  EXPECT_THROW(parse_instance_string("rmt-instance v2\n"), std::invalid_argument);
  EXPECT_THROW(parse_instance_string("rmt-instance v1\nnodes 3\ndealer 0\n"),
               std::invalid_argument);  // missing receiver
  EXPECT_THROW(parse_instance_string("rmt-instance v1\nnodes 3\nedge 0 9\n"
                                     "dealer 0\nreceiver 2\n"),
               std::invalid_argument);  // edge out of range
  EXPECT_THROW(parse_instance_string("rmt-instance v1\nnodes 3\nfrobnicate\n"),
               std::invalid_argument);  // unknown directive
  EXPECT_THROW(parse_instance_string("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\n"
                                     "dealer 0\nreceiver 2\ncorruptible 0\n"),
               std::invalid_argument);  // corruptible dealer
  EXPECT_THROW(parse_instance_string("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\n"
                                     "dealer 0\nreceiver 2\nknowledge warp\n"),
               std::invalid_argument);
}

/// Assert that `text` is rejected with exactly `message` — the parser's
/// line-numbered diagnostics are API (tools print them verbatim), so the
/// tests pin the full string, not just the exception type.
void expect_parse_error(const std::string& text, const std::string& message) {
  try {
    parse_instance_string(text);
    FAIL() << "expected std::invalid_argument: " << message;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

TEST(IoParse, ErrorMessagesCarryLineNumbers) {
  // Duplicate edge, reported at the *second* occurrence's line, in either
  // orientation (edges are undirected).
  expect_parse_error(
      "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 0\nedge 1 2\ndealer 0\nreceiver 2\n",
      "instance parse error at line 4: duplicate edge 1 0");
  expect_parse_error(
      "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\nedge 0 1\ndealer 0\nreceiver 2\n",
      "instance parse error at line 5: duplicate edge 0 1");
  // Endpoint out of range, reported at the offending edge's line even
  // though validation runs after the whole file is read.
  expect_parse_error("rmt-instance v1\nnodes 3\nedge 0 9\ndealer 0\nreceiver 2\n",
                     "instance parse error at line 3: edge endpoint out of range");
  // Truncated sections: an edge missing its second endpoint, and a file
  // that ends before the mandatory directives.
  expect_parse_error("rmt-instance v1\nnodes 3\nedge 0\ndealer 0\nreceiver 2\n",
                     "instance parse error at line 3: expected a node id");
  expect_parse_error("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\n",
                     "instance parse error at line 5: missing dealer/receiver");
  expect_parse_error("rmt-instance v1\nedge 0 1\ndealer 0\nreceiver 1\n",
                     "instance parse error at line 4: missing 'nodes'");
}

TEST(IoLoad, EveryShippedInstanceRoundTrips) {
  // serialize ∘ parse must be a fixed point on every example we ship:
  // parse(file) -> text -> parse(text) -> text' with text == text'. This
  // is what makes the svc content key well defined (the canonical text of
  // an instance does not depend on which equivalent source produced it).
  const std::filesystem::path dir = RMT_INSTANCES_DIR;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".rmt") files.push_back(entry.path());
  ASSERT_GE(files.size(), 4u) << "examples/instances/ lost its .rmt files?";
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    const Instance inst = load_instance(path.string());
    const std::string text = serialize_instance(inst);
    const Instance back = parse_instance_string(text);
    EXPECT_EQ(serialize_instance(back), text);
    EXPECT_EQ(back.graph(), inst.graph());
    EXPECT_EQ(back.adversary(), inst.adversary());
    EXPECT_EQ(back.dealer(), inst.dealer());
    EXPECT_EQ(back.receiver(), inst.receiver());
    EXPECT_EQ(analysis::solvable(back), analysis::solvable(inst));
  }
}

TEST(IoLoad, MissingFile) {
  try {
    load_instance("/nonexistent/does_not_exist.rmt");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "cannot open /nonexistent/does_not_exist.rmt");
  }
}

TEST(IoRoundTrip, PreservesSemantics) {
  Rng rng(191);
  for (int trial = 0; trial < 10; ++trial) {
    const Instance inst = testing::random_instance(7, 0.3, 2, 2, 0, rng);
    const std::string text = serialize_instance(inst);
    const Instance back = parse_instance_string(text);
    EXPECT_EQ(back.graph(), inst.graph());
    EXPECT_EQ(back.adversary(), inst.adversary());
    EXPECT_EQ(back.dealer(), inst.dealer());
    EXPECT_EQ(back.receiver(), inst.receiver());
    EXPECT_EQ(analysis::solvable(back), analysis::solvable(inst));
  }
}

TEST(IoRoundTrip, CustomViewsSurvive) {
  const Graph g = generators::parallel_paths(3, 2);
  const auto z = testing::structure({NodeSet{1}, NodeSet{3}, NodeSet{5}});
  const Instance inst(g, z, ViewFunction::k_hop(g, 2), 0, 7);
  const Instance back = parse_instance_string(serialize_instance(inst));
  bool views_equal = true;
  g.nodes().for_each([&](NodeId v) {
    if (!(back.gamma().view(v) == inst.gamma().view(v))) views_equal = false;
  });
  EXPECT_TRUE(views_equal);
  EXPECT_EQ(analysis::solvable(back), analysis::solvable(inst));
}

// --- Hardened error paths (added after structured fuzzing found silent
// --- acceptance; each case below mirrors a file in tests/fuzz_corpus/).

TEST(IoParse, DuplicateDirectivesRejected) {
  expect_parse_error(
      "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\ndealer 1\nreceiver 2\n",
      "instance parse error at line 6: duplicate 'dealer' directive (first at line 5)");
  expect_parse_error(
      "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\nreceiver 1\n",
      "instance parse error at line 7: duplicate 'receiver' directive (first at line 6)");
  expect_parse_error(
      "rmt-instance v1\nnodes 3\nnodes 4\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n",
      "instance parse error at line 3: duplicate 'nodes' directive (first at line 2)");
  expect_parse_error(
      "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n"
      "knowledge full\nknowledge adhoc\n",
      "instance parse error at line 8: duplicate 'knowledge' directive (first at line 7)");
}

TEST(IoParse, DuplicateNodeIdsRejected) {
  // Within one corruptible set a repeated id used to be folded silently by
  // the set insert; now it is an error at the corruptible line.
  expect_parse_error(
      "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n"
      "corruptible 1 1\n",
      "instance parse error at line 7: duplicate node id 1 in corruptible set");
  // Across multiple view lines of the same owner, too (line-duplication
  // mutants hit this constantly).
  expect_parse_error(
      "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n"
      "knowledge custom\nview 1 : 2\nview 1 : 2\n",
      "instance parse error at line 9: duplicate node id 2 in view of node 1");
}

TEST(IoParse, DeferredRangeChecksCarryLines) {
  // Directives may precede `nodes`, so range validation is deferred — but
  // the error must still point at the offending directive's line.
  expect_parse_error(
      "rmt-instance v1\ndealer 5\nnodes 3\nedge 0 1\nedge 1 2\nreceiver 2\n",
      "instance parse error at line 2: dealer node id 5 out of range (nodes 3)");
  expect_parse_error(
      "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n"
      "corruptible 7\n",
      "instance parse error at line 7: corruptible set node id 7 out of range (nodes 3)");
  expect_parse_error(
      "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n"
      "knowledge k-hop 7\n",
      "instance parse error at line 7: k-hop radius 7 out of range for 3 nodes "
      "(a radius above n adds nothing)");
}

TEST(IoParse, ParseCapsRejectAllocationBombs) {
  // A boundary-number mutant of the node count must be rejected *before*
  // the parser builds any O(n^2) view storage.
  expect_parse_error("rmt-instance v1\nnodes 513\nedge 0 1\ndealer 0\nreceiver 1\n",
                     "instance parse error at line 2: node count 513 out of range (max 512)");
  expect_parse_error(
      "rmt-instance v1\nnodes 4294967295\nedge 0 1\ndealer 0\nreceiver 1\n",
      "instance parse error at line 2: node count 4294967295 out of range (max 512)");
  // Individual ids are capped immediately on read, even in directives whose
  // full range check is deferred until `nodes` is known.
  expect_parse_error(
      "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n"
      "corruptible 600\n",
      "instance parse error at line 7: node id 600 out of range (ids must be < 512)");
}

// --- Tokenizer edge cases. parse_instance_string reads tokens in one pass
// --- with operator>>'s C-locale semantics. Each expectation is what the
// --- stream-based parser (check/reference_parser.hpp) produces: the
// --- canonical text of an accepted instance, or the rejection message
// --- (what() text, so it ends at an embedded NUL). Both parsers are held
// --- to every row.

/// A string literal's bytes, embedded NULs included.
template <std::size_t N>
std::string bytes(const char (&literal)[N]) {
  return std::string(literal, N - 1);
}

struct TokenCase {
  const char* name;
  std::string text;
  bool accepted;
  const char* expected;
};

std::vector<TokenCase> token_cases() {
  return {
      {"plus sign",
       bytes("rmt-instance v1\nnodes +3\nedge +0 +1\nedge 1 2\ndealer 0\nreceiver +2\n"
             "corruptible +1\n"),
       true,
       "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\ncorruptible 1\n"
       "knowledge adhoc\n"},
      {"minus zero is id 0",
       bytes("rmt-instance v1\nnodes 3\nedge -0 1\nedge 1 2\ndealer -0\nreceiver 2\n"),
       true,
       "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\nknowledge adhoc\n"},
      {"minus zero node count",
       bytes("rmt-instance v1\nnodes -0\n"),
       false,
       "instance parse error at line 2: expected a positive node count"},
      {"sign without digits",
       bytes("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\nedge +-1 2\n"),
       false,
       "instance parse error at line 7: expected a node id"},
      {"20-digit id in edge",
       bytes("rmt-instance v1\nnodes 3\nedge 0 18446744073709551616\n"),
       false,
       "instance parse error at line 3: expected a node id"},
      {"20-digit id ends corruptible list",
       bytes("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n"
             "corruptible 1 99999999999999999999\n"),
       true,
       "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\ncorruptible 1\n"
       "knowledge adhoc\n"},
      {"20-digit node count",
       bytes("rmt-instance v1\nnodes 99999999999999999999\n"),
       false,
       "instance parse error at line 2: expected a positive node count"},
      {"20-digit k-hop radius",
       bytes("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n"
             "knowledge k-hop 99999999999999999999\n"),
       false,
       "instance parse error at line 7: k-hop needs a radius"},
      {"int64 min id",
       bytes("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n"
             "edge -9223372036854775808 1\n"),
       false,
       "instance parse error at line 7: expected a node id"},
      {"int64 min in corruptible",
       bytes("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n"
             "corruptible -9223372036854775808\n"),
       false,
       "instance parse error at line 7: negative node id"},
      {"digit run then letter in edge",
       bytes("rmt-instance v1\nnodes 3\nedge 1x 2\n"),
       false,
       "instance parse error at line 3: expected a node id"},
      {"digit run then letter in corruptible",
       bytes("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n"
             "corruptible 1x 2\n"),
       true,
       "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\ncorruptible 1\n"
       "knowledge adhoc\n"},
      {"digit run then letter in nodes",
       bytes("rmt-instance v1\nnodes 3x\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n"),
       true,
       "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\nknowledge adhoc\n"},
      {"digit run then letter in k-hop",
       bytes("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n"
             "knowledge k-hop 1x\n"),
       true,
       "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\nknowledge adhoc\n"},
      {"colon glued to view owner",
       bytes("rmt-instance v1\nnodes 4\nedge 0 1\nedge 1 2\nedge 2 3\ndealer 0\nreceiver 3\n"
             "corruptible 1\ncorruptible 2\nknowledge custom\nview 1: 3\n"),
       true,
       "rmt-instance v1\nnodes 4\nedge 0 1\nedge 1 2\nedge 2 3\ndealer 0\nreceiver 3\n"
       "corruptible 1\ncorruptible 2\nknowledge custom\nview 1 : 3\n"},
      {"colon glued to view node",
       bytes("rmt-instance v1\nnodes 4\nedge 0 1\nedge 1 2\nedge 2 3\ndealer 0\nreceiver 3\n"
             "corruptible 1\ncorruptible 2\nknowledge custom\nview 1 :3\n"),
       false,
       "instance parse error at line 11: expected ':' after view owner"},
      {"view-edge trailing letter",
       bytes("rmt-instance v1\nnodes 4\nedge 0 1\nedge 1 2\nedge 2 3\ndealer 0\nreceiver 3\n"
             "corruptible 1\ncorruptible 2\nknowledge custom\nview-edge 0 : 2 3x\n"),
       true,
       "rmt-instance v1\nnodes 4\nedge 0 1\nedge 1 2\nedge 2 3\ndealer 0\nreceiver 3\n"
       "corruptible 1\ncorruptible 2\nknowledge custom\nview 0 : 2 3\nview-edge 0 : 2 3\n"},
      {"tab vt ff cr separators",
       bytes("rmt-instance\tv1\nnodes\v3\nedge\f0 1\r\nedge 1\t2\ndealer 0\r\n"
             "receiver\t\v2\f\r\ncorruptible\t1\r\n"),
       true,
       "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\ncorruptible 1\n"
       "knowledge adhoc\n"},
      {"crlf lines",
       bytes("rmt-instance v1\r\nnodes 3\r\nedge 0 1\r\nedge 1 2\r\ndealer 0\r\nreceiver 2\r\n"
             "corruptible 1\r\nknowledge full\r\n"),
       true,
       "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\ncorruptible 1\n"
       "knowledge custom\nview 0 : 2\nview-edge 0 : 1 2\nview 2 : 0\nview-edge 2 : 0 1\n"},
      {"crlf blank line",
       bytes("rmt-instance v1\r\n\r\nnodes 3\r\n"),
       false,
       "instance parse error at line 3: missing dealer/receiver"},
      {"hash glued to tokens",
       bytes("rmt-instance v1#hdr\nnodes 3#n\nedge 0 1#e\nedge 1 2\ndealer 0\nreceiver 2#\n"
             "corruptible 1#2\n"),
       true,
       "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\ncorruptible 1\n"
       "knowledge adhoc\n"},
      {"hash glued to directive",
       bytes("rmt-instance v1\nnodes 3\nedge#0 1\n"),
       false,
       "instance parse error at line 3: expected a node id"},
      {"hash glued to header word",
       bytes("rmt-instance#v1\n"),
       false,
       "instance parse error at line 1: unsupported version ''"},
      {"nul ends an edge line",
       bytes("rmt-instance v1\nnodes 3\nedge 0 1\0"
             " junk\nedge 1 2\ndealer 0\nreceiver 2\n"),
       true,
       "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\nknowledge adhoc\n"},
      {"nul glued to directive",
       bytes("rmt-instance v1\nnodes\0"
             " 3\n"),
       false,
       "instance parse error at line 2: unknown directive 'nodes"},
      {"nul ends corruptible list",
       bytes("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n"
             "corruptible 1\0"
             " 2\n"),
       true,
       "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\ncorruptible 1\n"
       "knowledge adhoc\n"},
      {"trailing garbage after corruptible ids",
       bytes("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\n"
             "corruptible 1 junk 2\n"),
       true,
       "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\ncorruptible 1\n"
       "knowledge adhoc\n"},
      {"trailing dash after corruptible ids",
       bytes("rmt-instance v1\nnodes 4\nedge 0 1\nedge 1 2\nedge 2 3\ndealer 0\nreceiver 3\n"
             "corruptible 1\ncorruptible 2\ncorruptible 1 2 -\n"),
       true,
       "rmt-instance v1\nnodes 4\nedge 0 1\nedge 1 2\nedge 2 3\ndealer 0\nreceiver 3\n"
       "corruptible 1 2\nknowledge adhoc\n"},
      {"trailing garbage after directives",
       bytes("rmt-instance v1 extra\nnodes 3 4\nedge 0 1 2\nedge 1 2\ndealer 0 9\nreceiver 2 x\n"
             "knowledge full please\n"),
       true,
       "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\nknowledge custom\n"
       "view 0 : 2\nview-edge 0 : 1 2\nview 2 : 0\nview-edge 2 : 0 1\n"},
      {"last line without newline",
       bytes("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2"),
       true,
       "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\nknowledge adhoc\n"},
      {"bad last line without newline",
       bytes("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\nfrobnicate"),
       false,
       "instance parse error at line 7: unknown directive 'frobnicate'"},
      {"empty text",
       bytes(""),
       false,
       "instance parse error at line 0: empty input"},
      {"blank and comment lines only",
       bytes("  \n\t# just a comment\n"),
       false,
       "instance parse error at line 2: empty input"},
      {"header without version",
       bytes("rmt-instance\n"),
       false,
       "instance parse error at line 1: unsupported version ''"},
      {"missing nodes counts trailing blank lines",
       bytes("rmt-instance v1\n\n\n"),
       false,
       "instance parse error at line 3: missing 'nodes'"},
      {"reversed duplicate edge",
       bytes("rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 0\ndealer 0\nreceiver 2\n"),
       false,
       "instance parse error at line 4: duplicate edge 1 0"},
  };
}

/// serialize_instance of the parse, or the rejection's what() text.
std::pair<bool, std::string> outcome(Instance (*parse)(const std::string&),
                                     const std::string& text) {
  try {
    return {true, serialize_instance(parse(text))};
  } catch (const std::invalid_argument& e) {
    return {false, e.what()};
  }
}

Instance single_pass(const std::string& text) { return parse_instance_string(text); }

TEST(IoParse, TokenizerEdgeCasesMatchTheStreamParser) {
  for (const TokenCase& c : token_cases()) {
    SCOPED_TRACE(c.name);
    for (const auto parse : {&single_pass, &propcheck::reference_parse_instance}) {
      const auto [accepted, text] = outcome(parse, c.text);
      EXPECT_EQ(accepted, c.accepted);
      EXPECT_EQ(text, c.expected);
    }
  }
}

// --- Orders the one-pass parser keeps. parse_instance_string checks an id
// --- read after `nodes` as it is read and keeps only the first failure,
// --- buckets `view-edge` extras by owner, and builds each custom view once;
// --- the stream parser defers every check to the end and extends each
// --- owner's star in turn. Each row runs through both and must give the
// --- same outcome, message for message; `expected` is the canonical text
// --- or the rejection message (for an RMT_REQUIRE rejection, a part of it:
// --- its text names a source line).

constexpr const char* kCycle4 =
    "rmt-instance v1\nnodes 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 0 3\ndealer 0\nreceiver 2\n";

struct OrderCase {
  const char* name;
  std::string text;
  bool accepted;
  std::string expected;  ///< canonical text, or (a part of) the message
};

std::vector<OrderCase> order_cases() {
  const std::string c4 = kCycle4;
  const std::string c4_canonical =
      "rmt-instance v1\nnodes 4\nedge 0 1\nedge 0 3\nedge 1 2\nedge 2 3\ndealer 0\n"
      "receiver 2\n";
  return {
      {"out-of-range ids before and after nodes: the earlier wins",
       "rmt-instance v1\ndealer 9\nnodes 3\nedge 0 1\nedge 1 2\nreceiver 7\n", false,
       "instance parse error at line 2: dealer node id 9 out of range (nodes 3)"},
      {"two out-of-range ids after nodes: the first wins",
       "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 2\ncorruptible 5\n"
       "view 8 : 1\n",
       false, "instance parse error at line 7: corruptible set node id 5 out of range (nodes 3)"},
      {"an out-of-range id, then an unknown directive: the directive wins",
       "rmt-instance v1\nnodes 3\nedge 0 1\nedge 1 2\ndealer 0\nreceiver 5\nfrobnicate\n", false,
       "instance parse error at line 7: unknown directive 'frobnicate'"},
      {"one owner's view-edge lines split around another owner's",
       c4 + "knowledge custom\nview-edge 1 : 2 3\nview-edge 3 : 0 1\nview-edge 1 : 0 3\n", true,
       c4_canonical +
           "knowledge custom\nview 1 : 3\nview-edge 1 : 0 3\nview-edge 1 : 2 3\nview 3 : 1\n"
           "view-edge 3 : 0 1\n"},
      {"view lines before knowledge custom",
       c4 + "view 1 : 3\nview-edge 1 : 2 3\nknowledge custom\n", true,
       c4_canonical + "knowledge custom\nview 1 : 3\nview-edge 1 : 2 3\n"},
      {"a self-loop extra of a lower owner beats a non-G extra of a higher one",
       c4 + "knowledge custom\nview-edge 2 : 0 2\nview-edge 1 : 3 3\n", false,
       "self-loop edges are not allowed"},
      {"a non-G extra of a lower owner beats a self-loop extra of a higher one",
       c4 + "knowledge custom\nview-edge 3 : 1 1\nview-edge 1 : 1 3\n", false,
       "set_view: view is not a subgraph of G"},
      {"crlf line ends and comments on view lines",
       "rmt-instance v1\r\nnodes 4\r\nedge 0 1\r\nedge 1 2\r\nedge 2 3\r\nedge 0 3\r\n"
       "dealer 0\r\nreceiver 2\r\nknowledge custom # views below\r\n"
       "view 1 : 3 # one extra node\r\nview-edge 1 : 2 3#and its edge\r\n",
       true, c4_canonical + "knowledge custom\nview 1 : 3\nview-edge 1 : 2 3\n"},
      {"view ids are range-checked under adhoc too", c4 + "knowledge adhoc\nview 1 : 9\n", false,
       "instance parse error at line 10: view node id 9 out of range (nodes 4)"},
  };
}

TEST(IoParse, OnePassOrdersMatchTheStreamParser) {
  for (const OrderCase& c : order_cases()) {
    SCOPED_TRACE(c.name);
    const auto [accepted, text] = outcome(&single_pass, c.text);
    EXPECT_EQ(accepted, c.accepted);
    EXPECT_EQ(outcome(&propcheck::reference_parse_instance, c.text),
              std::make_pair(accepted, text));
    if (accepted || c.expected.rfind("instance parse error", 0) == 0) {
      EXPECT_EQ(text, c.expected);
    } else {
      EXPECT_EQ(text.rfind("precondition failed: ", 0), 0u) << text;
      EXPECT_NE(text.find(c.expected), std::string::npos) << text;
    }
  }
}

TEST(IoParse, ViewLinesCountOnlyUnderCustomKnowledge) {
  // Under adhoc, k-hop, full or no knowledge line, view lines are parsed
  // (and their ids range-checked) and then ignored — even a self-loop or an
  // edge outside G — in both parsers.
  const std::string views = "view 1 : 3\nview-edge 1 : 3 3\nview-edge 2 : 0 2\n";
  for (const std::string knowledge :
       {"", "knowledge adhoc\n", "knowledge k-hop 1\n", "knowledge k-hop 2\n",
        "knowledge full\n"}) {
    SCOPED_TRACE(knowledge);
    const std::string plain = kCycle4 + knowledge;
    const auto want = outcome(&single_pass, plain);
    ASSERT_TRUE(want.first) << want.second;
    for (const std::string& text : {plain + views, kCycle4 + views + knowledge}) {
      EXPECT_EQ(outcome(&single_pass, text), want);
      EXPECT_EQ(outcome(&propcheck::reference_parse_instance, text), want);
    }
  }
}

// Every minimized crash artifact promoted into tests/fuzz_corpus/regressions/
// must stay *rejected* (cleanly, with std::invalid_argument — never a crash
// or silent acceptance), with the message the stream parser gave it.
TEST(IoParse, RegressionCorpusStaysRejected) {
  const std::map<std::string, std::string> expected = {
      {"corruptible_id_out_of_range.rmt",
       "instance parse error at line 9: corruptible set node id 9 out of range (nodes 4)"},
      {"dup_corruptible_id.rmt",
       "instance parse error at line 10: duplicate node id 1 in corruptible set"},
      {"dup_dealer_directive.rmt",
       "instance parse error at line 10: duplicate 'dealer' directive (first at line 9)"},
      {"dup_view_extra_id.rmt",
       "instance parse error at line 15: duplicate node id 3 in view of node 1"},
      {"khop_radius_overflow.rmt",
       "instance parse error at line 13: k-hop radius 4294967295 out of range for 5 nodes "
       "(a radius above n adds nothing)"},
      {"nodes_allocation_bomb.rmt",
       "instance parse error at line 6: node count 4294967295 out of range (max 512)"},
  };
  const std::filesystem::path dir =
      std::filesystem::path(RMT_FUZZ_CORPUS_DIR) / "regressions";
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".rmt") continue;
    ++files;
    const std::string name = entry.path().filename().string();
    SCOPED_TRACE(name);
    EXPECT_THROW(load_instance(entry.path().string()), std::invalid_argument);
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    const auto [accepted, message] = outcome(&single_pass, text);
    EXPECT_FALSE(accepted);
    EXPECT_EQ(message, outcome(&propcheck::reference_parse_instance, text).second);
    if (const auto it = expected.find(name); it != expected.end()) {
      EXPECT_EQ(message, it->second);
    }
  }
  EXPECT_GE(files, 6u) << "tests/fuzz_corpus/regressions/ lost its repro files?";
}

// And every hand-written fuzz seed must stay *accepted* and canonical —
// the fuzzer mutates these, so a seed that no longer parses silently guts
// its coverage.
TEST(IoLoad, FuzzSeedCorpusRoundTrips) {
  const std::filesystem::path dir = std::filesystem::path(RMT_FUZZ_CORPUS_DIR) / "seeds";
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".rmt") continue;
    ++files;
    SCOPED_TRACE(entry.path().filename().string());
    const Instance inst = load_instance(entry.path().string());
    const std::string text = serialize_instance(inst);
    EXPECT_EQ(serialize_instance(parse_instance_string(text)), text);
  }
  EXPECT_GE(files, 3u) << "tests/fuzz_corpus/seeds/ lost its seed files?";
}

}  // namespace
}  // namespace rmt::io
