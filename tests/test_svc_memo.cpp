// Tests for the exact raw-text → key memo and the instance handle
// (svc/instance_memo.hpp), alone and on the serving path: wire::parse_line
// with a memo, and svc::Engine answering memo hits.
//
// SvcMemoRace belongs to the TSan CI suite (regex `Svc`): several threads
// share one memo through wire::parse_line, and share one text handle's
// lazy parse.
#include "svc/instance_memo.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "io/serialize.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "svc/engine.hpp"
#include "svc/wire.hpp"
#include "tests/test_util.hpp"

namespace rmt::svc {
namespace {

std::string path_text(std::size_t n) {
  const Graph g = generators::path_graph(n);
  return io::serialize_instance(Instance::ad_hoc(g, testing::structure({NodeSet{1}}), 0, n - 1));
}

std::string request_line(const std::string& id, const std::string& text,
                         const std::string& kind = "decide_rmt") {
  obs::json::Writer w;
  w.begin_object();
  w.field("schema", wire::kRequestSchema);
  w.field("id", id);
  w.field("kind", kind);
  w.field("instance", text);
  w.end_object();
  return w.take();
}

std::string parse_error(const std::string& text) {
  try {
    io::parse_instance_string(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SvcMemo, MissParsesAndKeysOnceThenHitsWithoutParsing) {
  InstanceMemo memo(1 << 20);
  const std::string text = path_text(4);
  const InstanceKey want = key_of_text(text);  // the text is canonical

  const InstanceHandle cold = memo.resolve(text);
  EXPECT_TRUE(cold.parsed());  // the miss built the instance; the engine reuses it
  EXPECT_EQ(cold.key(), want);
  EXPECT_EQ(cold.get().num_players(), 4u);

  const InstanceHandle warm = memo.resolve(text);
  EXPECT_FALSE(warm.parsed());
  EXPECT_EQ(warm.key(), want);
  EXPECT_FALSE(warm.parsed());  // knowing the key builds nothing
  EXPECT_EQ(io::serialize_instance(warm.get()), text);
  EXPECT_TRUE(warm.parsed());

  const InstanceMemo::Stats s = memo.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, text.size() + sizeof(InstanceKey));
  EXPECT_EQ(s.evictions, 0u);
}

TEST(SvcMemo, MatchesOnlyByteIdenticalTexts) {
  InstanceMemo memo(1 << 20);
  const std::string text = path_text(5);
  memo.resolve(text);

  // One byte away and still valid: a different instance, so a miss with
  // its own key (a hash- or prefix-only memo would answer text's key).
  std::string other = text;
  const std::size_t at = other.find("receiver 4");
  ASSERT_NE(at, std::string::npos);
  other[at + 9] = '3';
  const InstanceHandle h = memo.resolve(other);
  EXPECT_TRUE(h.parsed());
  EXPECT_EQ(h.key(), instance_key(io::parse_instance_string(other)));
  EXPECT_NE(h.key(), key_of_text(text));

  // A trailing comment denotes the same instance but is another text: a
  // miss, and the same key.
  const InstanceHandle commented = memo.resolve(text + "# same instance\n");
  EXPECT_TRUE(commented.parsed());
  EXPECT_EQ(commented.key(), key_of_text(text));

  // A prefix of a stored text is a miss too, and here not even valid.
  EXPECT_THROW(memo.resolve(text.substr(0, 20)), std::invalid_argument);

  const InstanceMemo::Stats s = memo.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.entries, 3u);
}

TEST(SvcMemo, FailingTextsAreNeverStored) {
  InstanceMemo memo(1 << 20);
  const std::string bad = "rmt-instance v1\nnodes 3\nedge 0 7\n";
  const std::string message = parse_error(bad);
  ASSERT_FALSE(message.empty());
  for (int round = 0; round < 3; ++round) {
    try {
      memo.resolve(bad);
      FAIL() << "a text the parser rejects was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), message);  // the parser's own message, every time
    }
  }
  const InstanceMemo::Stats s = memo.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
}

TEST(SvcMemo, EvictsLeastRecentlyUsedUnderTheByteBudget) {
  const std::string a = path_text(3), b = path_text(4), c = path_text(5);
  const auto cost = [](const std::string& t) { return t.size() + sizeof(InstanceKey); };
  // Room for a and b, but not for all three.
  InstanceMemo memo(cost(a) + cost(b) + cost(c) - 1);
  memo.resolve(a);
  memo.resolve(b);
  EXPECT_FALSE(memo.resolve(a).parsed());  // hit: a is now the most recent
  memo.resolve(c);                         // evicts b, the least recent
  InstanceMemo::Stats s = memo.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, cost(a) + cost(c));
  EXPECT_LE(s.bytes, memo.max_bytes());

  EXPECT_FALSE(memo.resolve(a).parsed());
  EXPECT_FALSE(memo.resolve(c).parsed());
  EXPECT_TRUE(memo.resolve(b).parsed());  // evicted: parsed again, re-inserted
  s = memo.stats();
  EXPECT_EQ(s.hits, 3u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_LE(s.bytes, memo.max_bytes());
}

TEST(SvcMemo, TextLargerThanTheBudgetIsNotStored) {
  const std::string text = path_text(6);
  InstanceMemo memo(text.size());  // the key's 16 bytes do not fit
  EXPECT_TRUE(memo.resolve(text).parsed());
  EXPECT_TRUE(memo.resolve(text).parsed());
  EXPECT_EQ(memo.stats().entries, 0u);
  EXPECT_EQ(memo.stats().misses, 2u);
}

TEST(SvcMemo, EngineBudgetIsASixtyFourthOfTheCache) {
  Engine::Options opts;
  opts.cache.max_bytes = 64u << 20;
  Engine engine(nullptr, opts);
  EXPECT_EQ(engine.memo().max_bytes(), std::size_t(1) << 20);
}

TEST(SvcMemo, MemoHitServedFromTheCacheBuildsNoInstance) {
  Engine engine(nullptr);
  const std::string text = path_text(5);
  const std::string line = request_line("q", text);

  // Cold: the memo misses, the engine computes from the built instance.
  wire::Envelope cold = wire::parse_line(line, &engine.memo());
  ASSERT_EQ(cold.kind, wire::Envelope::Kind::kRequest);
  const Response first = engine.run({*cold.request})[0];
  ASSERT_EQ(first.status, Response::Status::kOk);
  EXPECT_FALSE(first.cached);

  // Warm: a memo hit whose composite key hits the result cache. The
  // handle stays unparsed, and since serialize_instance needs a built
  // Instance, neither io::parse_instance_string nor serialize_instance ran.
  wire::Envelope warm = wire::parse_line(line, &engine.memo());
  ASSERT_EQ(warm.kind, wire::Envelope::Kind::kRequest);
  const Request& req = *warm.request;
  const Response second = engine.run({req})[0];
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.result, first.result);
  EXPECT_EQ(second.key, first.key);
  EXPECT_FALSE(req.instance.parsed());

  // A memo hit that misses the result cache (another kind) parses its text
  // once, and answers what the memo-free path answers.
  wire::Envelope zpp = wire::parse_line(request_line("z", text, "decide_zpp"), &engine.memo());
  ASSERT_EQ(zpp.kind, wire::Envelope::Kind::kRequest);
  EXPECT_FALSE(zpp.request->instance.parsed());
  const Response computed = engine.run({*zpp.request})[0];
  EXPECT_FALSE(computed.cached);
  EXPECT_TRUE(zpp.request->instance.parsed());
  Engine fresh(nullptr);
  const Response expected =
      fresh.run({wire::parse_request(request_line("z", text, "decide_zpp")).request})[0];
  EXPECT_EQ(computed.result, expected.result);
  EXPECT_EQ(computed.key, expected.key);

  const InstanceMemo::Stats s = engine.memo().stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 2u);
}

TEST(SvcMemo, LookupHitLeavesTheHandleUnparsed) {
  Engine engine(nullptr);
  const std::string line = request_line("q", path_text(6));
  const Response first = engine.run({*wire::parse_line(line, &engine.memo()).request})[0];
  ASSERT_EQ(first.status, Response::Status::kOk);

  // The TCP loop thread's path: a memo hit answered by lookup() builds no
  // Instance and answers what run() computed.
  const wire::Envelope warm = wire::parse_line(line, &engine.memo());
  ASSERT_EQ(warm.kind, wire::Envelope::Kind::kRequest);
  const std::optional<Response> hit = engine.lookup(*warm.request);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->cached);
  EXPECT_EQ(hit->result, first.result);
  EXPECT_EQ(hit->key, first.key);
  EXPECT_FALSE(warm.request->instance.parsed());
}

TEST(SvcMemo, ParseLineAgreesWithParseRequest) {
  InstanceMemo memo(1 << 20);
  const std::vector<std::string> lines = {
      request_line("a", path_text(3)),
      request_line("b", path_text(3) + "# comment\n"),
      request_line("c", "rmt-instance v1\nnodes 2\nedge 0 5\n"),
      request_line("d", "bogus"),
      request_line("e", path_text(4), "warp"),
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& line : lines) {
      SCOPED_TRACE(line);
      const wire::Envelope env = wire::parse_line(line, &memo);
      try {
        const wire::ParsedRequest want = wire::parse_request(line);
        ASSERT_EQ(env.kind, wire::Envelope::Kind::kRequest) << env.error;
        EXPECT_EQ(env.id, want.id);
        EXPECT_EQ(env.request->instance.key(), instance_key(want.request.instance));
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(env.kind, wire::Envelope::Kind::kError);
        EXPECT_EQ(env.error, e.what());
      }
    }
  }
  // "a" and "b" parse (two texts), "c" and "d" fail twice each, and "e"
  // never reaches the memo (its kind is rejected first).
  const InstanceMemo::Stats s = memo.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 6u);
}

TEST(SvcMemo, PublishStatsPushesMemoCounters) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  Engine engine(nullptr);
  const std::string line = request_line("q", path_text(3));
  for (int i = 0; i < 3; ++i) wire::parse_line(line, &engine.memo());
  engine.publish_stats();
  obs::Registry& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("svc.memo.hits").value(), 2u);
  EXPECT_EQ(reg.counter("svc.memo.misses").value(), 1u);
  EXPECT_EQ(reg.counter("svc.memo.evictions").value(), 0u);
  EXPECT_EQ(reg.gauge("svc.memo.entries").value(), 1.0);
  EXPECT_EQ(reg.gauge("svc.memo.bytes").value(),
            double(path_text(3).size() + sizeof(InstanceKey)));
  // Deltas: publishing again without traffic adds nothing.
  engine.publish_stats();
  EXPECT_EQ(reg.counter("svc.memo.hits").value(), 2u);
  obs::Registry::global().reset();
  obs::set_enabled(false);
}

TEST(SvcMemoRace, ConcurrentParseLineCallersShareOneMemo) {
  InstanceMemo memo(1 << 20);
  std::vector<std::string> lines;
  std::vector<InstanceKey> want;
  for (std::size_t n = 3; n < 11; ++n) {
    lines.push_back(request_line("q", path_text(n)));
    want.push_back(key_of_text(path_text(n)));
  }
  constexpr int kThreads = 4, kRounds = 50;
  std::vector<int> wrong(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        for (std::size_t k = 0; k < lines.size(); ++k) {
          const std::size_t i = (k + std::size_t(t)) % lines.size();
          const wire::Envelope env = wire::parse_line(lines[i], &memo);
          if (env.kind != wire::Envelope::Kind::kRequest || env.request->instance.key() != want[i])
            ++wrong[std::size_t(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int w : wrong) EXPECT_EQ(w, 0);
  const InstanceMemo::Stats s = memo.stats();
  EXPECT_EQ(s.entries, lines.size());
  EXPECT_EQ(s.hits + s.misses, std::uint64_t(kThreads) * kRounds * lines.size());
  // Racing first lookups of one text may each miss; never more than that.
  EXPECT_GE(s.misses, lines.size());
  EXPECT_LE(s.misses, lines.size() * kThreads);
}

TEST(SvcMemoRace, TextHandleParsesOnceAcrossThreads) {
  InstanceMemo memo(1 << 20);
  const std::string text = path_text(7);
  memo.resolve(text);
  const InstanceHandle h = memo.resolve(text);
  ASSERT_FALSE(h.parsed());
  std::vector<const Instance*> seen(4, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      const InstanceHandle copy = h;  // copies share one lazy parse
      seen[t] = &copy.get();
    });
  }
  for (std::thread& th : threads) th.join();
  for (const Instance* p : seen) EXPECT_EQ(p, &h.get());
  EXPECT_EQ(io::serialize_instance(h.get()), text);
}

}  // namespace
}  // namespace rmt::svc
