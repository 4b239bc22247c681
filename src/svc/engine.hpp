// svc/engine.hpp — the memoizing query engine over the exact deciders.
//
// Turns the library's analysis and simulation entry points into *served*
// queries, the shape of an inference-serving stack: requests carry an
// instance, a query kind, parameters and an optional deadline; the engine
// answers from the sharded result cache when it can, coalesces duplicate
// keys into one computation when it cannot, and batches the remaining
// unique work onto an exec::ThreadPool. Memoization is sound because every
// query kind is a pure function of the canonical instance (the PODC'16
// characterizations are exact; simulation is seeded deterministically).
//
// Determinism contract: the result payload of a response is a pure
// function of (instance key, kind, canonical params) — never of worker
// count, scheduling order, cache state, or which of cached / coalesced /
// freshly-computed path produced it. bench_svc_throughput hard-checks the
// byte identity (the `identical` column of BENCH_svc.json); seeds for the
// simulate kind default to derive_seed(engine root seed, instance key), a
// function of content, not arrival order.
//
// Deadlines are enforced at *scheduling* granularity: a request whose
// deadline has passed before its computation (or cache lookup) starts is
// rejected with Status::kDeadlineExceeded; a decider that already started
// is never killed (the deciders are not interruptible, and an answer that
// was paid for is cached for the next asker). deadline_ms counts from
// run() entry; 0 is therefore already expired — a deterministic way to
// exercise the rejection path.
//
// Instances: Request::instance is an InstanceHandle (svc/instance_memo.hpp)
// — a built Instance, or the exact text and key of one the engine's memo
// parsed before. run() keys every request from the handle, and only a
// request that misses the cache and the store and is computed calls
// InstanceHandle::get(); a memo hit answered from the cache therefore
// builds no Instance and serializes nothing. The transports resolve
// instance texts through memo() (wire::parse_line), whose budget is 1/64
// of Options::cache.max_bytes.
//
// Hits without a batch: lookup() answers one request from the memory
// result cache — counted, traced and timed exactly as run() answers a hit,
// and run()'s own pre-pass goes through the same code. It takes only a
// cache shard mutex and never computes, reads the store or joins another
// batch, so the TCP event loop calls it on every admitted request and
// hands only what it returns nothing for to run().
//
// Coalescing: within one run() batch, duplicate keys share one
// computation (svc.coalesced). Across concurrent run() calls, a key
// already being computed by another batch is joined, not recomputed
// (svc.inflight_joins) — the joining *caller thread* blocks until the
// owning batch publishes. Consequently run() must not be called from the
// engine's own pool workers (the join could wait on a task queued behind
// itself); callers are external threads — tools, servers, tests.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/feasibility.hpp"
#include "instance/instance.hpp"
#include "store/store.hpp"
#include "svc/instance_key.hpp"
#include "svc/instance_memo.hpp"
#include "svc/result_cache.hpp"

namespace rmt::exec {
class ThreadPool;
}

namespace rmt::svc {

enum class QueryKind {
  kDecideRmt,   ///< find_rmt_cut: RMT solvability + witness
  kDecideZpp,   ///< find_rmt_zpp_cut: Z-CPA solvability + witness
  kAnalyze,     ///< all three characterizations (analysis::analyze)
  kSimulate,    ///< one seeded RMT-PKA run under an attack strategy
};

/// "decide_rmt" etc. — the names rmt.request/1 carries.
const char* to_string(QueryKind kind);
std::optional<QueryKind> parse_query_kind(const std::string& name);

/// Parameters of the simulate kind (ignored by the decide/analyze kinds).
struct SimParams {
  std::uint64_t value = 42;          ///< the dealer's input
  NodeSet corrupted;                 ///< must be admissible under Z
  std::string strategy = "two-faced";  ///< a sim::make_strategy name
  /// Seed for randomized strategies. Absent = derived from the engine
  /// root seed and the instance key — deterministic in content.
  std::optional<std::uint64_t> seed;
  std::size_t max_rounds = 0;  ///< 0 = the protocol's default bound
};

struct Request {
  QueryKind kind = QueryKind::kDecideRmt;
  /// Built, or a memo hit's exact text + key (parsed only if computed).
  InstanceHandle instance;
  SimParams params;  ///< simulate only
  /// Deadline in milliseconds from run() entry; nullopt = none. 0 is
  /// already expired (see header comment).
  std::optional<std::uint64_t> deadline_ms;
  bool no_cache = false;  ///< bypass lookup *and* store for this request
};

struct Response {
  enum class Status { kOk, kDeadlineExceeded, kError };
  Status status = Status::kOk;
  std::string key;      ///< InstanceKey::to_hex() of the request's instance
  std::string result;   ///< kOk: the result JSON object (deterministic bytes)
  std::string error;    ///< kError: what went wrong
  bool cached = false;     ///< served from the result cache
  bool coalesced = false;  ///< shared another request's computation
  double wall_us = 0;      ///< this request's wall time inside run() / lookup()
  /// Root trace id of this request's span subtree (obs/trace.hpp); 0 when
  /// tracing was disabled. The wire layer renders it as a 16-hex string.
  std::uint64_t trace_id = 0;
  /// Span id of the request's "svc.request" root span (0 when tracing was
  /// disabled). Never on the wire — the net layer joins its "net.write"
  /// spans to it so a response's transport leg links into the trace.
  std::uint64_t root_span = 0;
};

/// "ok" / "deadline_exceeded" / "error" — the rmt.response/1 status field
/// and the "status" attribute of svc.request spans.
const char* to_string(Response::Status status);

/// The result object of an `analyze` answer, byte for byte as the engine
/// serves it. The engine formats analysis::analyze (implication-aware);
/// tests and tools/rmt_fuzz format analysis::analyze_reference with it to
/// check the served bytes against all three deciders run unconditionally.
std::string format_analyze_result(const analysis::Analysis& a);

class Engine {
 public:
  struct Options {
    ResultCache::Options cache;
    /// Disk tier under the cache (store::Options::dir empty = memory
    /// only). Lookups go memory → disk → compute; completed results are
    /// written back through both tiers, so they survive restarts.
    store::Options store;
    /// Root of the derived simulate seeds (see SimParams::seed).
    std::uint64_t root_seed = 4242;
  };

  /// `pool` is borrowed (null = compute sequentially on the caller) and
  /// must outlive the engine.
  explicit Engine(exec::ThreadPool* pool);  ///< default Options
  Engine(exec::ThreadPool* pool, Options opts);

  /// Answer a batch. Responses are positionally aligned with `requests`.
  /// Individual failures (inadmissible corruption, oversized instance,
  /// unknown strategy) become Status::kError responses, never exceptions —
  /// one bad request must not poison its batch.
  std::vector<Response> run(const std::vector<Request>& requests);

  /// The non-blocking hit path: `req`'s response from the memory result
  /// cache, or nullopt. A hit counts in stats().requests and the cache's
  /// hits, gets its "svc.request" root span (cache=hit) and its wall_us
  /// (observed in svc.request_us) as in run(). A miss counts nothing; the
  /// caller then hands the request to run(), which counts it once.
  /// no_cache and deadline_ms requests always return nullopt: a deadline
  /// counts from run() entry. Never computes, never reads the store.
  std::optional<Response> lookup(const Request& req);

  ResultCache& cache() { return cache_; }
  /// The raw-text → key memo the transports hand to wire::parse_line;
  /// its budget is 1/64 of Options::cache.max_bytes (1 MiB at 64 MiB).
  InstanceMemo& memo() { return memo_; }
  /// The disk tier, or null when Options::store.dir was empty.
  store::Store* store() { return store_.get(); }
  const store::Store* store() const { return store_.get(); }

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t computed = 0;           ///< unique computations executed
    std::uint64_t coalesced = 0;          ///< in-batch duplicates served
    std::uint64_t inflight_joins = 0;     ///< cross-batch joins served
    std::uint64_t deadline_exceeded = 0;
    std::uint64_t errors = 0;
    std::uint64_t disk_hits = 0;          ///< served from the store tier
  };
  Stats stats() const;

  /// Push counter deltas into the global obs registry (svc.requests,
  /// svc.computed, svc.coalesced, svc.inflight_joins,
  /// svc.deadline_exceeded, svc.errors, svc.disk_hits, and the memo's
  /// svc.memo.{hits,misses,evictions} with svc.memo.{bytes,entries}
  /// gauges) and forward to cache().publish_stats() and the store tier's
  /// publish_stats().
  /// No-op while observability is disabled.
  void publish_stats();

 private:
  struct Inflight;

  /// The cache/coalescing identity of a request:
  /// "<key-hex>|<kind>|<canonical params>".
  std::string composite_key(const Request& req, const InstanceKey& key) const;

  /// Compute the deterministic result payload (throws on bad input).
  std::string compute(const Request& req, const InstanceKey& key) const;

  /// The one hit path (lookup() and run()'s pre-pass): answer `resp` —
  /// already keyed, with its root context when tracing — from the memory
  /// cache under `ckey`, timed from `t0`, and emit its root span begun at
  /// `start_ns`. False on a miss, which the cache counts only if
  /// `count_miss`.
  bool answer_hit(const Request& req, const std::string& ckey, bool count_miss,
                  std::chrono::steady_clock::time_point t0, std::uint64_t start_ns,
                  Response& resp);

  exec::ThreadPool* pool_;
  Options opts_;
  ResultCache cache_;
  InstanceMemo memo_;
  std::unique_ptr<store::Store> store_;  ///< null = no disk tier

  std::mutex inflight_m_;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> computed_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> inflight_joins_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> disk_hits_{0};

  std::mutex publish_m_;  // serializes delta accounting only
  Stats published_;
  InstanceMemo::Stats published_memo_;
};

}  // namespace rmt::svc
