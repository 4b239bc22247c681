// bench_svc — the serving-stack acceptance bench: cold vs. warm decide
// latency on solvable k-paths shapes, a closed-loop throughput sweep over
// concurrency × cache-hit ratio, through svc::Engine end to end, and the
// heap footprint of a cached answer.
//
// Latency section ("latency" rows, one per shape):
//   cold_us — best-of-kReps decide_rmt with no_cache (full compute path);
//   warm_us — best-of-kReps the same request answered by the result cache;
//   speedup = cold/warm, RMT_CHECKed >= kMinWarmSpeedup (3x): the cache
//   must not silently degenerate into recomputation.
//
// Throughput section ("throughput" rows): a closed-loop generator replays
// kStreamLen requests in engine batches, with hit_pct percent of the
// stream drawn from a pre-warmed hot set and the rest unique instances,
// at 1 worker and at hardware concurrency. qps counts completed requests;
// p50/p95/p99 come from an obs::Histogram fed each response's wall_us.
//
// Footprint section (one "footprint" row): kFootprintEntries real answers
// of all four kinds — decide_rmt, decide_zpp, analyze and simulate on
// relabelled cycles and parallel paths, as cold_mix serves them — computed
// by an svc::Engine and stored under their real composite keys (simulate
// params included; the engine's own cache confirms every key) into a
// fresh svc::ResultCache. heap_b_per_entry is the glibc mallinfo2 delta per
// entry, accounted_b_per_entry the cache's own key + value bytes per entry,
// put_ns / get_ns the mean cost of one put / one hit. Every served answer
// of a cold workload stays cached, so heap per entry is what the server's
// RSS grows by per answer: RMT_CHECKed heap <= kMaxHeapRatio (0.75) ×
// accounted, re-checked by tools/check_bench_json.py — the entry codec
// (svc/entry_codec.hpp) keeps a whole entry below its logical size.
// (Sanitizer builds replace malloc; they do not run this bench.)
//
// The `identical` column is the determinism gate: every response in the
// row — cached, coalesced, fresh, any worker count — must be byte-equal
// to the sequential fresh-engine answer for its key (footprint: every
// cached value reads back byte-equal). It is both reported and
// RMT_CHECKed, and tools/check_bench_json.py refuses a BENCH_svc.json
// whose identical column is not uniformly true. Timings themselves are
// never asserted beyond the warm-speedup floor.
#include <malloc.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "exec/campaign.hpp"
#include "svc/engine.hpp"
#include "svc/instance_key.hpp"

namespace {

using namespace rmt;

inline constexpr int kReps = 5;
// The floor needs headroom for slow CI machines AND for the decider itself
// getting faster: the cheapest latency shape's cold decide is ~15x a warm
// hit, while a cache that degenerated into recomputation would read ~1x —
// 3x still separates the two failure modes cleanly.
inline constexpr double kMinWarmSpeedup = 3.0;
// Footprint: entries measured, and the most heap an entry may cost as a
// share of its accounted key + value bytes (block header, bucket slot and
// allocator rounding included; unencoded entries cost ~1.4×).
inline constexpr std::size_t kFootprintEntries = 8000;
inline constexpr double kMaxHeapRatio = 0.75;
inline constexpr std::size_t kStreamLen = 96;
inline constexpr std::size_t kBatch = 16;
inline constexpr std::size_t kHotSet = 4;

svc::Request decide_request(const Instance& inst, bool no_cache = false) {
  return svc::Request{svc::QueryKind::kDecideRmt, inst, svc::SimParams{}, std::nullopt, no_cache};
}

/// The sequential, fresh-engine answer for one instance — the identity
/// baseline every other serving path must reproduce byte for byte.
std::string expected_result(const Instance& inst) {
  svc::Engine engine(nullptr);
  std::vector<svc::Request> batch;
  batch.push_back(decide_request(inst, /*no_cache=*/true));
  const std::vector<svc::Response> responses = engine.run(batch);
  RMT_CHECK(responses[0].status == svc::Response::Status::kOk,
            "bench_svc: baseline decide failed");
  return responses[0].result;
}

/// Solvable shapes from bench_decider_hotpath's k-parallel-paths rows, where
/// a cold decide_rmt still has to rule out every cut: under full views the
/// two-cover gate scans every pair of the 2-threshold's maximal sets, and
/// under 1-hop or ad hoc views the scan enumerates every connected B. A cold
/// decide there costs ~0.1–0.5 ms against a warm hit's 5–70 µs (keying a
/// threshold structure of a few hundred sets is the expensive part of a
/// hit). The full-view shape keeps its last path honest: with k paths
/// against a t-threshold over all relays, k > 2t disjoint paths settle the
/// two-cover without the pair scan (analysis/feasibility.hpp), so 4 paths
/// with a 2-threshold over the first three keep κ(D, R) = 2t, no two-cover,
/// and the whole 153-set pair grid to scan. Unsolvable shapes are no use
/// here: their witness is found within a few B, so a cold decide costs
/// about what a hit does and the floor would measure the clock, not the
/// cache.
std::vector<std::pair<std::string, Instance>> latency_workloads() {
  std::vector<std::pair<std::string, Instance>> out;
  // `honest` trailing paths hold no corruptible relay.
  const auto paths = [&](std::size_t k, std::size_t h, std::size_t t, const std::string& views,
                         std::size_t honest = 0) {
    const Graph g = generators::parallel_paths(k, h);
    const NodeId r = NodeId(g.num_nodes() - 1);
    NodeSet relays;
    for (NodeId v = 1; v <= NodeId((k - honest) * h); ++v) relays.insert(v);
    const AdversaryStructure z =
        t == 0 ? AdversaryStructure::trivial() : threshold_structure(relays, t);
    const ViewFunction gamma = views == "full"     ? ViewFunction::full(g)
                               : views == "k-hop1" ? ViewFunction::k_hop(g, 1)
                                                   : ViewFunction::ad_hoc(g);
    out.emplace_back(std::to_string(k) + "-paths-h" + std::to_string(h) + "-t" +
                         std::to_string(t) + "-" + views +
                         (honest == 0 ? "" : "-" + std::to_string(honest) + "-honest"),
                     Instance(g, z, gamma, 0, r));
  };
  paths(4, 6, 2, "full", 1);
  paths(5, 4, 1, "k-hop1");
  paths(5, 4, 1, "adhoc");
  paths(3, 8, 0, "adhoc");
  return out;
}

/// Unique-key instance family for the throughput miss stream: same cycle
/// shape, dealer/receiver moved around the ring — the (dealer, offset)
/// pairs only repeat with period lcm(8, 15) = 120 > kStreamLen, so every
/// miss-stream request is a distinct canonical instance of equal cost.
Instance unique_instance(std::size_t i) {
  const std::size_t n = 16;
  const Graph g = generators::cycle_graph(n);
  const NodeId d = NodeId((i * 2) % n);
  const NodeId r = NodeId((std::size_t(d) + 1 + (i % (n - 1))) % n);
  return Instance::ad_hoc(g, AdversaryStructure::trivial(), d, r);
}

/// The throughput hot set lives on an 18-cycle, so its keys never collide
/// with the 16-cycle miss stream and the measured hit rate is the stream's.
Instance hot_instance(std::size_t i) {
  const std::size_t n = 18;
  const Graph g = generators::cycle_graph(n);
  return Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, NodeId(1 + (i % (n - 1))));
}

/// One cached answer: its composite key and result bytes.
struct Answer {
  std::string key;
  std::string value;
};

/// `count` distinct real answers, a quarter of each kind, on cold_mix's
/// cheaper shapes (cycles and 3 parallel paths, trivial or 1-threshold
/// structures, ad hoc / 1-hop / full views) under a random relabelling.
/// Keys are spelled as Engine::composite_key spells them; the engine's own
/// cache must answer each one with its value, or the run fails.
std::vector<Answer> real_answers(exec::ThreadPool& pool, std::size_t count) {
  const char* const kStrategies[] = {"silent", "value-flip", "random-lies", "phantom-world",
                                     "two-faced"};
  const svc::QueryKind kKinds[] = {svc::QueryKind::kDecideRmt, svc::QueryKind::kDecideZpp,
                                   svc::QueryKind::kAnalyze, svc::QueryKind::kSimulate};
  Rng rng(1604);
  std::vector<svc::Request> requests;
  std::vector<Answer> out;
  std::unordered_set<std::string> seen;
  while (out.size() < count) {
    const Graph base = rng.chance(0.5) ? generators::cycle_graph(8 + rng.index(9))
                                       : generators::parallel_paths(3, 2 + rng.index(2));
    const std::size_t n = base.num_nodes();
    std::vector<NodeId> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = NodeId(i);
    std::shuffle(perm.begin(), perm.end(), rng.engine());
    Graph g(n);
    for (const Edge& e : base.edges()) g.add_edge(perm[e.a], perm[e.b]);
    const NodeId d = perm[0], r = perm[n - 1 - (n % 3)];
    const AdversaryStructure z = rng.chance(0.5)
                                     ? AdversaryStructure::trivial()
                                     : threshold_structure(g.nodes() - NodeSet{d, r}, 1);
    const std::size_t views = rng.index(3);
    const ViewFunction gamma = views == 0   ? ViewFunction::ad_hoc(g)
                               : views == 1 ? ViewFunction::k_hop(g, 1)
                                            : ViewFunction::full(g);
    svc::Request req{kKinds[out.size() % 4], Instance(g, z, gamma, d, r), svc::SimParams{},
                     std::nullopt, false};
    const svc::InstanceKey ikey = svc::instance_key(req.instance);
    std::string key = ikey.to_hex() + "|" + svc::to_string(req.kind);
    if (req.kind == svc::QueryKind::kSimulate) {
      svc::SimParams& p = req.params;
      p.value = rng.uniform(0, 999);
      p.corrupted = z.maximal_sets()[rng.index(z.maximal_sets().size())];
      p.strategy = kStrategies[rng.index(5)];
      key += "|corrupt=" + p.corrupted.to_string() + ";max_rounds=0;seed=" +
             std::to_string(exec::derive_seed(svc::Engine::Options{}.root_seed, ikey.lo)) +
             ";strategy=" + p.strategy + ";value=" + std::to_string(p.value);
    }
    if (!seen.insert(key).second) continue;
    requests.push_back(std::move(req));
    out.push_back(Answer{std::move(key), ""});
  }
  svc::Engine engine(&pool);
  const std::vector<svc::Response> responses = engine.run(requests);
  for (std::size_t i = 0; i < out.size(); ++i) {
    RMT_CHECK(responses[i].status == svc::Response::Status::kOk,
              "bench_svc: footprint answer failed: " + responses[i].error);
    out[i].value = responses[i].result;
    RMT_CHECK(engine.cache().get(out[i].key) == out[i].value,
              "bench_svc: footprint key is not the engine's composite key: " + out[i].key);
  }
  return out;
}

template <typename F>
double best_us(F&& f) {
  double best = 0;
  for (int i = 0; i < kReps; ++i) {
    const double us = rmt::bench::time_us(f);
    if (i == 0 || us < best) best = us;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rmt;
  using namespace rmt::bench;

  Reporter rep(argc, argv, "bench_svc");
  rep.columns({"section", "workload", "jobs", "hit_pct", "requests", "cold_us", "warm_us",
               "speedup", "qps", "p50_us", "p95_us", "p99_us", "hit_rate", "heap_b_per_entry",
               "accounted_b_per_entry", "put_ns", "get_ns", "identical"});

  const std::size_t jobs = rep.exec().jobs > 1
                               ? rep.exec().jobs
                               : std::max<std::size_t>(2, exec::ThreadPool::hardware_concurrency());
  exec::ThreadPool pool(jobs);

  // ---- Latency: cold vs. warm decide on solvable k-paths shapes --------
  for (const auto& [name, inst] : latency_workloads()) {
    const std::string expected = expected_result(inst);
    svc::Engine engine(&pool);

    std::vector<svc::Request> cold_batch;
    cold_batch.push_back(decide_request(inst, /*no_cache=*/true));
    std::vector<svc::Response> last;
    const double cold_us = best_us([&] { last = engine.run(cold_batch); });
    bool identical = last[0].result == expected;

    // One cacheable request populates the cache; then every rep must hit.
    std::vector<svc::Request> warm_batch;
    warm_batch.push_back(decide_request(inst));
    last = engine.run(warm_batch);
    identical = identical && last[0].result == expected;
    const double warm_us = best_us([&] { last = engine.run(warm_batch); });
    identical = identical && last[0].cached && last[0].result == expected;

    // Coalescing identity: duplicates in one batch share one computation
    // and still answer the same bytes, at full worker count.
    std::vector<svc::Request> dup_batch;
    for (int i = 0; i < 4; ++i) dup_batch.push_back(decide_request(inst, /*no_cache=*/true));
    const std::vector<svc::Response> dups = engine.run(dup_batch);
    for (const svc::Response& r : dups) identical = identical && r.result == expected;

    const double speedup = warm_us > 0 ? cold_us / warm_us : 0.0;
    rep.row({"latency", name, std::uint64_t(jobs), std::uint64_t(100), std::uint64_t(1), cold_us,
             warm_us, speedup, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, identical});
    RMT_CHECK(identical, "bench_svc: " + name + " served bytes diverged from fresh sequential");
    RMT_CHECK(speedup >= kMinWarmSpeedup,
              "bench_svc: " + name + " warm decide only " + fmt::fixed(speedup, 2) +
                  "x faster than cold (floor " + fmt::fixed(kMinWarmSpeedup, 1) + "x)");
    engine.publish_stats();
  }

  // ---- Throughput: closed loop over concurrency × hit ratio -----------
  for (const std::size_t run_jobs : {std::size_t(1), jobs}) {
    for (const std::size_t hit_pct : {std::size_t(0), std::size_t(50), std::size_t(90)}) {
      svc::Engine engine(run_jobs > 1 ? &pool : nullptr);

      // Pre-warm the hot set and record its expected bytes.
      std::vector<Instance> hot;
      std::vector<std::string> hot_expected;
      std::vector<svc::Request> warmup;
      for (std::size_t i = 0; i < kHotSet; ++i) {
        hot.push_back(hot_instance(i));
        hot_expected.push_back(expected_result(hot.back()));
        warmup.push_back(decide_request(hot.back()));
      }
      engine.run(warmup);

      // Deterministic request stream: positions i with i mod 100 < hit_pct
      // replay the hot set round-robin, the rest are fresh unique instances.
      std::vector<svc::Request> stream;
      std::vector<const std::string*> stream_expected;
      std::size_t fresh = 0;
      for (std::size_t i = 0; i < kStreamLen; ++i) {
        const bool is_hot = hit_pct > 0 && (i % 100) < hit_pct;
        if (is_hot) {
          const std::size_t h = i % kHotSet;
          stream.push_back(decide_request(hot[h]));
          stream_expected.push_back(&hot_expected[h]);
        } else {
          stream.push_back(decide_request(unique_instance(fresh++)));
          stream_expected.push_back(nullptr);
        }
      }

      const svc::ResultCache::Stats before = engine.cache().stats();
      obs::Histogram lat;
      bool identical = true;
      std::uint64_t completed = 0;
      const double wall_us = time_us([&] {
        for (std::size_t base = 0; base < stream.size(); base += kBatch) {
          const std::size_t end = std::min(stream.size(), base + kBatch);
          std::vector<svc::Request> batch(stream.begin() + std::ptrdiff_t(base),
                                          stream.begin() + std::ptrdiff_t(end));
          const std::vector<svc::Response> responses = engine.run(batch);
          for (std::size_t i = 0; i < responses.size(); ++i) {
            const svc::Response& r = responses[i];
            identical = identical && r.status == svc::Response::Status::kOk;
            if (const std::string* want = stream_expected[base + i])
              identical = identical && r.result == *want;
            lat.observe(r.wall_us);
            ++completed;
          }
        }
      });
      const svc::ResultCache::Stats after = engine.cache().stats();
      const std::uint64_t lookups = (after.hits - before.hits) + (after.misses - before.misses);
      const double hit_rate =
          lookups > 0 ? double(after.hits - before.hits) / double(lookups) : 0.0;
      const double qps = wall_us > 0 ? double(completed) * 1e6 / wall_us : 0.0;

      rep.row({"throughput", "cycle-16", std::uint64_t(run_jobs), std::uint64_t(hit_pct),
               completed, 0.0, 0.0, 0.0, qps, lat.p50(), lat.p95(), lat.p99(), hit_rate, 0.0,
               0.0, 0.0, 0.0, identical});
      RMT_CHECK(identical, "bench_svc: throughput stream (jobs=" + std::to_string(run_jobs) +
                               ", hit=" + std::to_string(hit_pct) +
                               "%) served bytes diverged from fresh sequential");
      engine.publish_stats();
    }
  }

  // ---- Footprint: heap per cached answer -------------------------------
  {
    // Answers are computed before the first snapshot, so the delta is the
    // cache's own growth: blocks, bucket arrays and allocator rounding.
    const std::vector<Answer> answers = real_answers(pool, kFootprintEntries);
    svc::ResultCache cache;
    const auto heap_bytes = [] {
      const struct mallinfo2 m = mallinfo2();
      return double(m.uordblks + m.hblkhd);
    };
    const double before = heap_bytes();
    const double put_us = time_us([&] {
      for (const Answer& a : answers) cache.put(a.key, a.value);
    });
    const double heap = (heap_bytes() - before) / double(answers.size());
    const svc::ResultCache::Stats st = cache.stats();
    const double accounted = double(st.bytes) / double(answers.size());
    bool identical = st.entries == answers.size() && st.evictions == 0;
    std::vector<std::optional<std::string>> got(answers.size());
    const double get_us = time_us([&] {
      for (std::size_t i = 0; i < answers.size(); ++i) got[i] = cache.get(answers[i].key);
    });
    for (std::size_t i = 0; i < answers.size(); ++i)
      identical = identical && got[i] == answers[i].value;
    const double per = 1000.0 / double(answers.size());
    rep.row({"footprint", "real answers", std::uint64_t(1), std::uint64_t(0),
             std::uint64_t(answers.size()), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, heap,
             accounted, put_us * per, get_us * per, identical});
    RMT_CHECK(identical, "bench_svc: cached answers did not read back byte-equal");
    RMT_CHECK(heap <= kMaxHeapRatio * accounted,
              "bench_svc: a cached answer costs " + fmt::fixed(heap, 1) + " B of heap for " +
                  fmt::fixed(accounted, 1) + " B accounted (at most " +
                  fmt::fixed(kMaxHeapRatio, 2) + "x)");
  }

  pool.publish_stats();
  rep.finish("SVC — memoizing query service: cold/warm latency, throughput and heap per "
             "cached answer (identical bytes)");
  return 0;
}
