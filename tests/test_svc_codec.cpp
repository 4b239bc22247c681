// Tests for the cache-entry codec (svc/entry_codec.hpp): losslessness on
// every byte value, the hex-run edges, tokens at every offset, the
// one-pass probe comparison on near misses, and — on answers svc::Engine
// itself computes, under the keys it caches them by — the size it reaches
// and that every token of its fixed table still occurs in them, so a
// drift in a result format or in the key grammar fails here.
#include "svc/entry_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "adversary/threshold.hpp"
#include "exec/campaign.hpp"
#include "graph/generators.hpp"
#include "svc/engine.hpp"
#include "svc/instance_key.hpp"
#include "util/rng.hpp"

namespace rmt::svc::codec {
namespace {

struct Entry {
  std::string key, value;
};

/// Answers of all four kinds as svc::Engine computes and caches them:
/// cycles and parallel paths with shuffled ids, trivial, threshold-1 or
/// threshold-2 structures, ad hoc / 1-hop / full views, every strategy,
/// and some one-round simulations that cannot decide. Each key is written
/// out from composite_key's grammar and must find its answer in the
/// engine's own cache.
const std::vector<Entry>& engine_entries() {
  static const std::vector<Entry> entries = [] {
    const auto key_of = [](const Request& req) {
      const InstanceKey ikey = instance_key(req.instance);
      std::string key = ikey.to_hex() + "|" + to_string(req.kind);
      if (req.kind != QueryKind::kSimulate) return key;
      const SimParams& p = req.params;
      return key + "|corrupt=" + p.corrupted.to_string() +
             ";max_rounds=" + std::to_string(p.max_rounds) + ";seed=" +
             std::to_string(exec::derive_seed(Engine::Options{}.root_seed, ikey.lo)) +
             ";strategy=" + p.strategy + ";value=" + std::to_string(p.value);
    };
    const char* const kStrategies[] = {"silent", "value-flip", "random-lies", "phantom-world",
                                       "two-faced"};
    const QueryKind kKinds[] = {QueryKind::kDecideRmt, QueryKind::kDecideZpp,
                                QueryKind::kAnalyze, QueryKind::kSimulate};
    Rng rng(2117);
    std::vector<Request> requests;
    for (std::size_t i = 0; i < 160; ++i) {
      const Graph base = rng.chance(0.5) ? generators::cycle_graph(8 + rng.index(9))
                                         : generators::parallel_paths(3, 2 + rng.index(2));
      const std::size_t n = base.num_nodes();
      std::vector<NodeId> perm(n);
      for (std::size_t k = 0; k < n; ++k) perm[k] = NodeId(k);
      std::shuffle(perm.begin(), perm.end(), rng.engine());
      Graph g(n);
      for (const Edge& e : base.edges()) g.add_edge(perm[e.a], perm[e.b]);
      const NodeId d = perm[0], r = perm[n - 1 - (n % 3)];
      const std::size_t t = rng.index(3);
      const AdversaryStructure z = t == 0 ? AdversaryStructure::trivial()
                                          : threshold_structure(g.nodes() - NodeSet{d, r}, t);
      const std::size_t views = rng.index(3);
      const ViewFunction gamma = views == 0   ? ViewFunction::ad_hoc(g)
                                 : views == 1 ? ViewFunction::k_hop(g, 1)
                                              : ViewFunction::full(g);
      Request req{kKinds[i % 4], Instance(g, z, gamma, d, r), SimParams{}, std::nullopt, false};
      if (req.kind == QueryKind::kSimulate) {
        SimParams& p = req.params;
        p.value = rng.uniform(0, 999);
        p.corrupted = z.maximal_sets()[rng.index(z.maximal_sets().size())];
        p.strategy = kStrategies[(i / 4) % 5];
        p.max_rounds = rng.index(4) == 0 ? 1 : 0;
      }
      requests.push_back(std::move(req));
    }
    // One simulation whose corruption set puts every digit after a ", ".
    const Graph ring = generators::cycle_graph(12);
    const NodeSet middle = ring.nodes() - NodeSet{0, 11};
    Request wide{QueryKind::kSimulate,
                 Instance::ad_hoc(ring, threshold_structure(middle, 10), 0, 11), SimParams{},
                 std::nullopt, false};
    wide.params.corrupted = middle;
    wide.params.strategy = "two-faced";
    requests.push_back(std::move(wide));

    Engine engine(nullptr);
    const std::vector<Response> responses = engine.run(requests);
    std::vector<Entry> out;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(responses[i].status, Response::Status::kOk) << responses[i].error;
      out.push_back(Entry{key_of(requests[i]), responses[i].result});
      EXPECT_EQ(engine.cache().get(out.back().key), out.back().value)
          << "not the engine's composite key: " << out.back().key;
    }
    return out;
  }();
  return entries;
}

/// decode(encode(x)) == x, the encoding stays within its bound, and
/// match() accepts x and consumes exactly the encoding.
void expect_round_trip(const std::string& x) {
  const std::string enc = encode(x);
  EXPECT_LE(enc.size(), max_encoded_size(x.size()));
  EXPECT_EQ(decode(enc, x.size()), x);
  const auto* base = reinterpret_cast<const unsigned char*>(enc.data());
  EXPECT_EQ(match(base, x), base + enc.size()) << "probe: " << x;
}

/// Two logical strings stored back to back, as a cache entry stores key
/// and value: each decodes from where the previous one ended.
TEST(SvcCodec, KeyAndValueDecodeBackToBack) {
  const std::string key = "0123456789abcdef0123456789abcdef|decide_rmt";
  const std::string value = R"({"kind":"decide_rmt","solvable":true,"witness":null})";
  std::string buf(max_encoded_size(key.size() + value.size()), '\0');
  auto* base = reinterpret_cast<unsigned char*>(buf.data());
  unsigned char* mid = encode(key, base);
  unsigned char* end = encode(value, mid);
  std::string k(key.size(), '\0'), v(value.size(), '\0');
  EXPECT_EQ(decode(base, key.size(), k.data()), mid);
  EXPECT_EQ(decode(mid, value.size(), v.data()), end);
  EXPECT_EQ(k, key);
  EXPECT_EQ(v, value);
  EXPECT_EQ(match(base, key), mid);
}

TEST(SvcCodec, EveryByteValueRoundTrips) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    expect_round_trip(std::string(1, c));
    expect_round_trip(std::string(5, c));
    std::string framed = "a";  // += sidesteps GCC 12's -Wrestrict false positive
    framed += c;
    framed += 'b';
    expect_round_trip(framed);
  }
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
  expect_round_trip(all);
  expect_round_trip("");
}

TEST(SvcCodec, HexRunEdges) {
  const std::string digits = "0123456789abcdef";
  for (std::size_t len : {1u, 2u, 3u, 4u, 5u, 7u, 31u, 32u, 33u, 254u, 255u, 256u, 257u, 509u,
                          510u, 511u, 600u}) {
    std::string run;
    for (std::size_t i = 0; i < len; ++i) run += digits[(i * 7 + len) % 16];
    expect_round_trip(run);
    expect_round_trip("|" + run + "|");
    expect_round_trip(run + "g");
  }
  // Runs of 4+ pack two digits a byte plus a two-byte header; shorter
  // runs stay literal.
  EXPECT_EQ(encode("123").size(), 3u);
  EXPECT_EQ(encode("1234").size(), 4u);
  EXPECT_EQ(encode(std::string(32, 'a')).size(), 18u);
  EXPECT_EQ(encode(std::string(255, '7')).size(), 2u + 128u);
  EXPECT_EQ(encode(std::string(256, '7')).size(), 2u + 128u + 1u);  // 255 packed + 1 literal
}

TEST(SvcCodec, UppercaseHexIsNotPacked) {
  expect_round_trip("ABCDEF0123456789");
  expect_round_trip("abcdEFab01");
  EXPECT_EQ(encode("ABCDEF").size(), 6u);  // literal, byte for byte
  // A packed lowercase digit never matches its uppercase probe.
  const std::string enc = encode("abcdef12");
  EXPECT_EQ(match(reinterpret_cast<const unsigned char*>(enc.data()), "ABCDEF12"), nullptr);
  EXPECT_EQ(match(reinterpret_cast<const unsigned char*>(enc.data()), "abcdeF12"), nullptr);
}

TEST(SvcCodec, TokensAtEveryOffset) {
  const std::vector<std::string> pieces = {
      R"({"kind":"decide_rmt","solvable":)", R"(,"witness":null})", "|simulate|corrupt={",
      "};max_rounds=0;seed=", ", 3", ", ", "true", "false}", "two-faced", R"(":)"};
  for (const std::string& piece : pieces) {
    for (std::size_t at = 0; at <= 6; ++at) {
      const std::string pad = std::string("xyzQ#@").substr(0, at);
      expect_round_trip(pad + piece);
      expect_round_trip(pad + piece + pad);
      expect_round_trip(piece + piece);
      // A token cut short is not a token.
      expect_round_trip(pad + piece.substr(0, piece.size() - 1));
    }
    EXPECT_EQ(encode(piece).size(), 1u) << piece;
  }
}

TEST(SvcCodec, NearMissProbesNeverMatch) {
  const std::string key =
      "a2b0f763e7b544170ae9977c6c98bd5c|simulate|corrupt={3, 7};max_rounds=0;seed="
      "16556960305032045987;strategy=two-faced;value=42";
  const std::string enc = encode(key);
  const auto* base = reinterpret_cast<const unsigned char*>(enc.data());
  ASSERT_NE(match(base, key), nullptr);
  for (std::size_t i = 0; i < key.size(); ++i) {
    for (const char c : {'0', '9', 'a', 'f', 'g', 'A', ',', ' ', '\0', '\xff'}) {
      if (key[i] == c) continue;
      std::string probe = key;
      probe[i] = c;
      EXPECT_EQ(match(base, probe), nullptr) << "byte " << i << " -> " << int(c);
    }
  }
}

TEST(SvcCodec, RandomStringsRoundTrip) {
  Rng rng(77);
  const std::string alphabet = "0123456789abcdefABC{}\",:;| =_-\n\r\t\x01\x7f\x80\xfe";
  for (int i = 0; i < 2000; ++i) {
    std::string x;
    const std::size_t len = rng.index(300);
    for (std::size_t k = 0; k < len; ++k) x += alphabet[rng.index(alphabet.size())];
    expect_round_trip(x);
  }
}

TEST(SvcCodec, EngineAnswersShrinkBelowAQuarter) {
  std::size_t logical = 0, encoded = 0;
  for (const Entry& e : engine_entries()) {
    for (const std::string* x : {&e.key, &e.value}) {
      expect_round_trip(*x);
      logical += x->size();
      encoded += encode(*x).size();
    }
  }
  EXPECT_LT(encoded * 4, logical) << encoded << " of " << logical;  // < 25%
}

TEST(SvcCodec, EveryTokenOccursInEngineOutput) {
  const std::vector<Entry>& entries = engine_entries();
  for (const std::string_view tok : tokens()) {
    bool found = false;
    for (const Entry& e : entries)
      found = found || e.key.find(tok) != std::string::npos ||
              e.value.find(tok) != std::string::npos;
    EXPECT_TRUE(found) << "token '" << tok
                       << "' occurs in no answer or key the engine produces: a result "
                          "format or the key grammar no longer matches the codec's table";
  }
}

}  // namespace
}  // namespace rmt::svc::codec
