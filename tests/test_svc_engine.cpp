// Tests for the memoizing query engine (svc/engine.hpp): caching,
// in-batch coalescing, deadline rejection, error isolation, and the
// determinism contract (same bytes at any worker count, from any of the
// cached / coalesced / fresh paths).
//
// The SvcEngineRace tests belong to the TSan CI suite (regex `Svc`): they
// hammer one engine from several external threads so concurrent batches
// (which share the cache shards, the store and the stats atomics), and
// lookup() against them, run under the race detector.
#include "svc/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tests/test_util.hpp"

namespace rmt::svc {
namespace {

Instance path3() {
  const Graph g = generators::path_graph(3);
  return Instance::ad_hoc(g, testing::structure({NodeSet{1}}), 0, 2);
}

Instance ring(std::size_t n, NodeId receiver) {
  const Graph g = generators::cycle_graph(n);
  return Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, receiver);
}

Request decide(const Instance& inst, bool no_cache = false) {
  return Request{QueryKind::kDecideRmt, inst, SimParams{}, std::nullopt, no_cache};
}

TEST(SvcEngine, QueryKindNamesRoundTrip) {
  for (QueryKind k : {QueryKind::kDecideRmt, QueryKind::kDecideZpp, QueryKind::kAnalyze,
                      QueryKind::kSimulate}) {
    const auto back = parse_query_kind(to_string(k));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(parse_query_kind("frobnicate").has_value());
}

TEST(SvcEngine, CachesSecondAsk) {
  Engine engine(nullptr);
  std::vector<Request> batch{decide(path3())};
  const auto first = engine.run(batch);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].status, Response::Status::kOk);
  EXPECT_FALSE(first[0].cached);
  EXPECT_FALSE(first[0].result.empty());
  EXPECT_EQ(first[0].key.size(), 32u);

  const auto second = engine.run(batch);
  EXPECT_TRUE(second[0].cached);
  EXPECT_EQ(second[0].result, first[0].result);
  EXPECT_EQ(second[0].key, first[0].key);

  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.requests, 2u);
  EXPECT_EQ(s.computed, 1u);
}

TEST(SvcEngine, NoCacheBypassesLookupAndStore) {
  Engine engine(nullptr);
  std::vector<Request> batch{decide(path3(), /*no_cache=*/true)};
  engine.run(batch);
  engine.run(batch);
  EXPECT_EQ(engine.stats().computed, 2u);
  EXPECT_EQ(engine.cache().stats().entries, 0u);
}

TEST(SvcEngine, CoalescesDuplicatesInOneBatch) {
  Engine engine(nullptr);
  std::vector<Request> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(decide(path3(), /*no_cache=*/true));
  const auto responses = engine.run(batch);
  std::size_t coalesced = 0;
  for (const Response& r : responses) {
    EXPECT_EQ(r.status, Response::Status::kOk);
    EXPECT_EQ(r.result, responses[0].result);
    if (r.coalesced) ++coalesced;
  }
  EXPECT_EQ(coalesced, 3u);
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.requests, 4u);
  EXPECT_EQ(s.computed, 1u);
  EXPECT_EQ(s.coalesced, 3u);
}

TEST(SvcEngine, ZeroDeadlineIsAlreadyExpired) {
  Engine engine(nullptr);
  Request expired = decide(path3());
  expired.deadline_ms = 0;
  std::vector<Request> batch{expired, decide(ring(6, 3))};
  const auto responses = engine.run(batch);
  EXPECT_EQ(responses[0].status, Response::Status::kDeadlineExceeded);
  EXPECT_TRUE(responses[0].result.empty());
  EXPECT_EQ(responses[1].status, Response::Status::kOk);  // batch not wedged
  const Engine::Stats s = engine.stats();
  EXPECT_EQ(s.deadline_exceeded, 1u);
  EXPECT_EQ(s.computed, 1u);  // the expired request never computed

  // The same key without a deadline still works afterwards.
  std::vector<Request> retry{decide(path3())};
  EXPECT_EQ(engine.run(retry)[0].status, Response::Status::kOk);
}

TEST(SvcEngine, BadRequestDoesNotPoisonBatch) {
  Engine engine(nullptr);
  Request bad{QueryKind::kSimulate, path3(), SimParams{}, std::nullopt, false};
  bad.params.corrupted = NodeSet{1, 2};  // receiver corruption: inadmissible
  std::vector<Request> batch{decide(path3()), bad};
  const auto responses = engine.run(batch);
  EXPECT_EQ(responses[0].status, Response::Status::kOk);
  EXPECT_EQ(responses[1].status, Response::Status::kError);
  EXPECT_FALSE(responses[1].error.empty());
  EXPECT_EQ(engine.stats().errors, 1u);

  Request unknown{QueryKind::kSimulate, path3(), SimParams{}, std::nullopt, false};
  unknown.params.corrupted = NodeSet{1};
  unknown.params.strategy = "no-such-strategy";
  std::vector<Request> batch2{unknown};
  EXPECT_EQ(engine.run(batch2)[0].status, Response::Status::kError);
}

TEST(SvcEngine, SimulateIsDeterministicInContent) {
  // Without an explicit seed the simulate seed derives from (root seed,
  // instance key): two engines with the same root seed must agree byte
  // for byte, across runs and worker counts.
  Request sim{QueryKind::kSimulate, path3(), SimParams{}, std::nullopt, false};
  sim.params.corrupted = NodeSet{1};
  sim.params.strategy = "random-lies";

  Engine a(nullptr);
  exec::ThreadPool pool(4);
  Engine b(&pool);
  std::vector<Request> batch{sim};
  const std::string ra = a.run(batch)[0].result;
  const std::string rb = b.run(batch)[0].result;
  EXPECT_FALSE(ra.empty());
  EXPECT_EQ(ra, rb);

  // An explicit seed overrides the derivation, is echoed in the payload,
  // and is just as stable across engines.
  sim.params.seed = 99;
  std::vector<Request> seeded{sim};
  Engine c(nullptr);
  Engine d(nullptr);
  const std::string rc = c.run(seeded)[0].result;
  EXPECT_EQ(rc, d.run(seeded)[0].result);
  EXPECT_NE(rc.find("\"seed\":99"), std::string::npos);
  EXPECT_NE(rc, ra);  // different seed, different payload bytes
}

TEST(SvcEngine, SameBytesAtAnyWorkerCount) {
  // A mixed batch (several distinct keys + duplicates) through a
  // sequential engine and a pooled engine: positionally identical bytes.
  std::vector<Request> batch;
  for (std::size_t i = 0; i < 10; ++i) batch.push_back(decide(ring(8, NodeId(1 + i % 5))));
  batch.push_back(decide(path3()));
  batch.push_back(decide(path3()));

  Engine seq(nullptr);
  const auto a = seq.run(batch);
  exec::ThreadPool pool(4);
  Engine par(&pool);
  const auto b = par.run(batch);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, Response::Status::kOk);
    EXPECT_EQ(a[i].result, b[i].result) << "position " << i;
    EXPECT_EQ(a[i].key, b[i].key) << "position " << i;
  }
}

TEST(SvcEngine, AnalyzeAnswersAsAllThreeDecidersRunUnconditionally) {
  // The served `analyze` skips the decider its RMT answer implies; its
  // bytes must equal the answer formatted from all three deciders, on
  // solvable and unsolvable instances under every knowledge level.
  Rng rng(101);
  std::vector<Request> batch;
  std::vector<std::string> want;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t k = trial % 4 == 3 ? SIZE_MAX : std::size_t(trial % 4);
    const Instance inst = testing::random_instance(7, 0.3, 3, 2, k, rng);
    batch.push_back(Request{QueryKind::kAnalyze, inst, SimParams{}, std::nullopt, true});
    want.push_back(format_analyze_result(analysis::analyze_reference(inst)));
  }
  const std::vector<Response> got = Engine(nullptr).run(batch);
  std::size_t solvable = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].status, Response::Status::kOk);
    EXPECT_EQ(got[i].result, want[i]) << "position " << i;
    solvable += got[i].result.find("\"rmt_solvable\":true") != std::string::npos;
  }
  EXPECT_GT(solvable, 0u);
  EXPECT_LT(solvable, got.size());
}

TEST(SvcEngine, PublishStatsDeltasIntoRegistry) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  Engine engine(nullptr);
  std::vector<Request> batch{decide(path3()), decide(path3())};
  engine.run(batch);  // one computed, one coalesced
  engine.run(batch);  // two cached
  engine.publish_stats();
  obs::Registry& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("svc.requests").value(), 4u);
  EXPECT_EQ(reg.counter("svc.computed").value(), 1u);
  EXPECT_EQ(reg.counter("svc.coalesced").value(), 1u);
  EXPECT_EQ(reg.counter("svc.cache.hits").value(), 2u);
  engine.publish_stats();  // no new traffic: deltas are zero
  EXPECT_EQ(reg.counter("svc.requests").value(), 4u);
  obs::Registry::global().reset();
  obs::set_enabled(false);
}

// --- lookup(): the hit path without a batch ---------------------------------

void expect_same_stats(const Engine& a, const Engine& b) {
  const Engine::Stats x = a.stats(), y = b.stats();
  EXPECT_EQ(x.requests, y.requests);
  EXPECT_EQ(x.computed, y.computed);
  EXPECT_EQ(x.coalesced, y.coalesced);
  EXPECT_EQ(x.deadline_exceeded, y.deadline_exceeded);
  EXPECT_EQ(x.errors, y.errors);
  EXPECT_EQ(x.disk_hits, y.disk_hits);
}

void expect_same_cache_stats(Engine& a, Engine& b) {
  const ResultCache::Stats x = a.cache().stats(), y = b.cache().stats();
  EXPECT_EQ(x.hits, y.hits);
  EXPECT_EQ(x.misses, y.misses);
  EXPECT_EQ(x.entries, y.entries);
}

/// The svc.request root span `root` names, or null.
const obs::trace::SpanRecord* root_span(const std::vector<obs::trace::SpanRecord>& spans,
                                        std::uint64_t root) {
  for (const obs::trace::SpanRecord& s : spans)
    if (s.span_id == root && std::string(s.name) == "svc.request") return &s;
  return nullptr;
}

TEST(SvcEngine, LookupHitMatchesRunAndMovesTheSameCounters) {
  // Two engines with the same history; the warm hit is answered by run()
  // on one and by lookup() on the other.
  Engine by_run(nullptr), by_lookup(nullptr);
  const Request req = decide(path3());
  by_run.run({req});
  by_lookup.run({req});

  const Response want = by_run.run({req})[0];
  const std::optional<Response> got = by_lookup.lookup(req);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, want.status);
  EXPECT_EQ(got->key, want.key);
  EXPECT_EQ(got->result, want.result);
  EXPECT_EQ(got->error, want.error);
  EXPECT_TRUE(got->cached);
  EXPECT_FALSE(got->coalesced);
  EXPECT_GE(got->wall_us, 0.0);
  expect_same_stats(by_run, by_lookup);
  expect_same_cache_stats(by_run, by_lookup);
  EXPECT_EQ(by_lookup.stats().requests, 2u);
  EXPECT_EQ(by_lookup.cache().stats().hits, 1u);
}

TEST(SvcEngine, LookupHitIsTracedAndTimedLikeARunHit) {
  obs::trace::Recorder::global().clear();
  obs::trace::set_enabled(true);
  obs::set_enabled(true);
  obs::Registry::global().reset();
  Engine engine(nullptr);
  const Request req = decide(path3());
  engine.run({req});
  const Response by_run = engine.run({req})[0];
  const std::optional<Response> by_lookup = engine.lookup(req);
  const std::vector<obs::trace::SpanRecord> spans = obs::trace::Recorder::global().snapshot();
  const std::uint64_t timed = obs::Registry::global().histogram("svc.request_us").count();
  obs::Registry::global().reset();
  obs::set_enabled(false);
  obs::trace::set_enabled(false);

  ASSERT_TRUE(by_lookup.has_value());
  EXPECT_NE(by_lookup->trace_id, 0u);
  EXPECT_NE(by_lookup->trace_id, by_run.trace_id);  // a root of its own
  const obs::trace::SpanRecord* a = root_span(spans, by_run.root_span);
  const obs::trace::SpanRecord* b = root_span(spans, by_lookup->root_span);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->trace_id, by_lookup->trace_id);
  EXPECT_EQ(b->parent_span_id, 0u);
  EXPECT_EQ(std::string(b->attrs), std::string(a->attrs));
  EXPECT_NE(std::string(b->attrs).find("cache=hit"), std::string::npos);
  EXPECT_EQ(timed, 3u);  // the cold run, the run hit and the lookup hit
}

TEST(SvcEngine, LookupMissCountsNothing) {
  Engine engine(nullptr);
  const Request req = decide(path3());
  EXPECT_FALSE(engine.lookup(req).has_value());
  EXPECT_EQ(engine.stats().requests, 0u);
  EXPECT_EQ(engine.cache().stats().hits, 0u);
  EXPECT_EQ(engine.cache().stats().misses, 0u);
  // run() then counts the request and its miss once, as it always has.
  engine.run({req});
  EXPECT_EQ(engine.stats().requests, 1u);
  EXPECT_EQ(engine.cache().stats().misses, 1u);
}

TEST(SvcEngine, LookupDeclinesNoCacheAndDeadlineRequests) {
  Engine engine(nullptr);
  engine.run({decide(path3())});  // warm: a plain request would now hit
  ASSERT_TRUE(engine.lookup(decide(path3())).has_value());
  const Engine::Stats before = engine.stats();
  const ResultCache::Stats cache_before = engine.cache().stats();

  EXPECT_FALSE(engine.lookup(decide(path3(), /*no_cache=*/true)).has_value());
  for (const std::uint64_t ms : {std::uint64_t(0), std::uint64_t(60'000)}) {
    Request timed = decide(path3());
    timed.deadline_ms = ms;
    EXPECT_FALSE(engine.lookup(timed).has_value()) << "deadline_ms " << ms;
  }
  EXPECT_EQ(engine.stats().requests, before.requests);
  EXPECT_EQ(engine.cache().stats().hits, cache_before.hits);
  EXPECT_EQ(engine.cache().stats().misses, cache_before.misses);
}

// --- TSan target: external threads race one engine -----------------------

TEST(SvcEngineRace, ConcurrentBatchesShareOneEngine) {
  exec::ThreadPool pool(4);
  Engine engine(&pool);
  const std::string expected = [&] {
    Engine fresh(nullptr);
    std::vector<Request> one{decide(path3(), /*no_cache=*/true)};
    return fresh.run(one)[0].result;
  }();

  constexpr int kThreads = 4;
  constexpr int kBatches = 8;
  std::vector<std::thread> callers;
  callers.reserve(kThreads);
  std::atomic<int> wrong{0};
  for (int t = 0; t < kThreads; ++t)
    callers.emplace_back([&, t] {
      for (int i = 0; i < kBatches; ++i) {
        std::vector<Request> batch;
        batch.push_back(decide(path3()));                          // shared hot key
        batch.push_back(decide(ring(8, NodeId(1 + (t + i) % 7)))); // per-caller keys
        const auto responses = engine.run(batch);
        if (responses[0].result != expected) wrong.fetch_add(1);
        if (responses[1].status != Response::Status::kOk) wrong.fetch_add(1);
      }
    });
  for (auto& c : callers) c.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(engine.stats().requests, std::uint64_t(kThreads * kBatches * 2));
}

TEST(SvcEngineRace, LookupsReadTheCacheWhileBatchesWriteIt) {
  // The TCP loop thread's view: lookup() reads the cache shards while a
  // runner thread's batches (and their pool workers) fill and evict them.
  exec::ThreadPool pool(2);
  Engine::Options opts;
  opts.cache.max_bytes = 8u << 10;  // small enough to evict while racing
  Engine engine(&pool, opts);
  std::vector<Request> keys;
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 8; ++i) {
    keys.push_back(decide(ring(9, NodeId(1 + i))));
    Engine fresh(nullptr);
    expected.push_back(fresh.run({keys.back()})[0].result);
  }

  std::atomic<bool> done{false};
  std::atomic<int> wrong{0};
  std::uint64_t hits = 0;
  std::thread runner([&] {
    for (int round = 0; round < 20; ++round) engine.run(keys);
    done.store(true);
  });
  while (!done.load()) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::optional<Response> got = engine.lookup(keys[i]);
      if (!got) continue;
      ++hits;
      if (got->result != expected[i] || !got->cached) wrong.fetch_add(1);
    }
  }
  runner.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(engine.stats().requests, 20 * keys.size() + hits);
}

}  // namespace
}  // namespace rmt::svc
