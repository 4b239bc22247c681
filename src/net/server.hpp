// net/server.hpp — the multi-client TCP front end over svc::Engine.
//
// One poll(2)-based, non-blocking event loop accepts many concurrent
// clients speaking the rmt.request/1 JSONL protocol (src/svc/wire.hpp)
// and multiplexes them onto ONE shared engine, so duplicate keys coalesce
// *across* sockets exactly as they do within a stdio batch. The design
// splits the work across two threads with a single handoff point:
//
//  * the event-loop thread (the caller of serve()) owns every socket: it
//    accepts, reads through per-connection LineFramers, parses requests,
//    formats and writes responses, and enforces admission + backpressure.
//    Right after admission it answers memory-cache hits itself through
//    Engine::lookup (one cache shard mutex; no compute, no store read):
//    a hit is written in the same loop iteration, with no runner task
//    and no wake-up. Everything else joins a shared pending batch. It
//    never computes and never blocks on a socket;
//  * a dedicated one-thread runner pool executes engine batches one at a
//    time, in submission order: the loop thread must not compute, and
//    completions must arrive in batch order. They come back through a
//    mutex-guarded queue plus a self-pipe wake-up.
//
// Batching: misses, no_cache and deadline requests (and disk-tier hits)
// from all connections accumulate into one pending batch; a blank line
// from ANY connection flushes it (stdio parity — that is also what makes
// cross-socket in-batch coalescing deterministic for tests), as does
// reaching batch_limit or the batch_wait_ms age bound. A cache hit needs
// no flush. Responses are slotted per connection in request order even
// when a connection's requests span multiple batches; a hit behind an
// unanswered request of its connection waits for it.
//
// Backpressure state machine, per connection:
//
//   READING --(write queue > write_budget_bytes)--> PAUSED (POLLIN off)
//   PAUSED  --(queue drains below budget/2)-------> READING
//   any     --(queue > write_hard_cap_bytes)------> DROPPED (slow client)
//   any     --(admission budget exceeded)---------> request SHED with an
//                                                   "overloaded:" error
//
// Admission sheds (per-conn/global inflight request counts, or a write
// queue already past budget) answer immediately instead of queueing work
// for a client that is not draining — the connection itself stays up.
// They run before the cache lookup; a hit is never counted in flight.
// Graceful drain (stop(), async-signal-safe; rmt_serve wires SIGTERM to
// it): stop accepting and reading, finish every in-flight batch, flush
// every write queue, then serve() returns.
//
// Observability: net.* counters (src/obs/names.hpp) mirror the
// "net" section of the TCP "stats" probe — inline_hits and batches count
// the two paths; "net.conn" / "net.read" / "net.write" spans land in the
// flight recorder when tracing is on, with each engine-backed net.write
// span (inline hits included) *joined* to its response's svc.request root
// span. DESIGN §15 documents the whole layer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "svc/engine.hpp"
#include "svc/wire.hpp"

namespace rmt::exec {
class ThreadPool;
}

namespace rmt::net {

/// Transport counters, as reported by stats() and the "stats" probe's
/// `net` section. Monotonic except `active` (a level).
struct NetStats {
  std::uint64_t accepts = 0;        ///< connections accepted
  std::uint64_t active = 0;         ///< currently open connections
  std::uint64_t disconnects = 0;    ///< connections closed (any reason)
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t lines_in = 0;       ///< complete frames (incl. rejected)
  std::uint64_t responses_out = 0;  ///< response lines queued for write
  std::uint64_t shed = 0;           ///< requests answered "overloaded:"
  std::uint64_t slow_client_disconnects = 0;
  std::uint64_t frame_rejects = 0;  ///< oversized / NUL-embedded lines
  std::uint64_t inline_hits = 0;    ///< cache hits answered on the loop thread
  std::uint64_t batches = 0;        ///< engine batches handed to the runner
};

class Server {
 public:
  struct Options {
    /// TCP port on 127.0.0.1; 0 = ephemeral (read back via bound_port()).
    std::uint16_t port = 0;
    std::size_t max_conns = 1024;       ///< accept stalls above this
    std::size_t batch_limit = 64;       ///< max requests per engine batch
    /// Max age of a non-empty pending batch before it is submitted even
    /// without a blank-line flush. Large values make batching fully
    /// explicit (blank lines / batch_limit only) — the e2e coalescing
    /// scenario uses that for determinism.
    std::uint64_t batch_wait_ms = 5;
    /// Per-line size cap, enforced by the framing layer in O(1) memory.
    std::size_t max_line_bytes = svc::wire::kMaxRequestBytes;
    std::size_t max_inflight_per_conn = 256;  ///< admission: requests/conn
    std::size_t max_inflight_total = 4096;    ///< admission: requests total
    /// Soft per-connection write-queue bound: reading pauses above it and
    /// new requests are shed, resuming below half of it.
    std::size_t write_budget_bytes = 4u << 20;
    /// Hard bound: a connection whose unflushable queued bytes exceed it
    /// is dropped as a slow client. 0 = 4 * write_budget_bytes.
    std::size_t write_hard_cap_bytes = 0;
    /// SO_SNDBUF for accepted sockets; 0 = kernel default. Small values
    /// make write backpressure testable without megabytes of traffic.
    int so_sndbuf = 0;
    svc::Engine::Options engine;
  };

  /// Binds and listens immediately; throws std::runtime_error when the
  /// socket cannot be set up. `pool` is borrowed by the engine for the
  /// decider computations (null = compute sequentially on the runner).
  Server(exec::ThreadPool* pool, Options opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The port the listener actually bound (== opts.port unless it was 0).
  std::uint16_t bound_port() const;

  svc::Engine& engine();

  /// Run the event loop on the calling thread until stop(). Connections
  /// still open when the drain completes are closed.
  void serve();

  /// Request a graceful drain: async-signal-safe (one atomic store and a
  /// pipe write), callable from any thread or a signal handler.
  void stop();

  NetStats stats() const;

  /// Push net.* counter deltas into the global obs registry and forward
  /// to engine().publish_stats(). No-op while observability is disabled.
  void publish_stats();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rmt::net
