// obs/trace.hpp — request-scoped span tracing and the flight recorder.
//
// Where obs/metrics.hpp aggregates globally, this layer answers "where did
// *this request* spend its time": every span carries a 64-bit trace id
// (the request) and span id (the scope), a parent link, monotonic
// start/stop timestamps and a small attribute string. Ids are
// splitmix-derived from a global sequence — deterministic under a fixed
// set_seed, so tests can assert exact ids.
//
// Data path ("lock-free-enough"): a finished span is appended to a
// per-thread buffer under that thread's own uncontended mutex; full
// buffers flush in batches into the bounded flight-recorder ring (the
// last-capacity() spans are always retained in memory). The ring is
// dumped as rmt.trace/1 JSONL
//   * on demand            — write_file / write_jsonl / rmt_serve's
//                            "trace" probe / --trace-out at exit;
//   * on deadline_exceeded — svc::Engine calls dump_now when a dump path
//                            is configured;
//   * on crash             — install_crash_handler writes the ring with
//                            async-signal-safe calls only (best effort:
//                            unflushed per-thread tails are lost and a
//                            torn in-flight slot may be garbled; see
//                            DESIGN §13).
//
// Spans come from two places: RMT_PHASE scopes (obs/phase.hpp), which
// record themselves at exit, and hand-built SpanRecords passed to emit
// (request roots, coalescing joins, transport reads and writes).
//
// Context propagation: the current TraceContext is thread-local;
// exec::ThreadPool::submit captures the submitting thread's context and
// re-enters it in the worker (inside an "exec.task" phase), so decider
// phases nest under the owning request even across the pool boundary.
//
// Cost model: like obs::enabled(), tracing is off by default and every
// entry point guards on one relaxed atomic load; bench_trace_overhead
// hard-checks what an idle and a live RMT_PHASE cost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/names.hpp"

namespace rmt::obs::trace {

/// Global tracing switch, independent of obs::enabled(). Off by default.
bool enabled();
void set_enabled(bool on);

/// Reset the id stream: the k-th id after set_seed(s) is a pure function
/// of (s, k). Also the default stream's definition (seed 4242).
void set_seed(std::uint64_t seed);

/// Next id from the global splitmix stream; never 0 (0 = "no id").
std::uint64_t next_id();

/// The canonical 16-hex-digit wire spelling of a trace/span id ("...").
/// rmt.trace/1 and the rmt.response/1 trace_id field both use it.
std::string id_hex(std::uint64_t id);

/// Monotonic nanoseconds since the recorder's epoch (first use).
std::uint64_t now_ns();

/// The (trace id, active span id) pair a thread carries. trace_id == 0
/// means "no active trace" — spans started then become trace roots.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

/// This thread's active context ({0,0} when none).
TraceContext current();
/// Replace this thread's context. An RMT_PHASE scope makes its span
/// current at entry and restores the parent at exit.
void set_current(TraceContext ctx);

/// RAII: make `ctx` current until destruction (no-op for invalid ctx).
/// This is what the pool's task wrapper uses to re-enter the submitter's
/// context on a worker thread.
class ContextGuard {
 public:
  explicit ContextGuard(TraceContext ctx);
  ~ContextGuard();
  ContextGuard(const ContextGuard&) = delete;
  ContextGuard& operator=(const ContextGuard&) = delete;

 private:
  TraceContext prev_;
  bool active_ = false;
};

/// A fresh root context (new trace id, new root span id). The caller owns
/// emitting the matching root span record (see svc::Engine::run).
TraceContext new_root_context();

/// One finished span, as stored in the flight recorder. Fixed-size POD:
/// the ring is preallocated and the crash writer must never allocate, so
/// names and attributes live in bounded char arrays (silently truncated).
struct SpanRecord {
  static constexpr std::size_t kNameBytes = 48;
  static constexpr std::size_t kKindBytes = 8;
  static constexpr std::size_t kAttrBytes = 128;

  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  ///< 0 = root
  std::uint64_t join_span_id = 0;    ///< "join" spans: the leader's span
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  char name[kNameBytes] = {};
  char kind[kKindBytes] = {};  ///< "span" or "join"
  char attrs[kAttrBytes] = {};  ///< "k=v;k=v", append-only

  void set_name(std::string_view v);
  void set_kind(std::string_view v);
  /// Append "key=value"; dropped whole if it does not fit. The const char*
  /// overload exists so string literals do not decay into the bool one.
  void add_attr(std::string_view key, std::string_view value);
  void add_attr(std::string_view key, const char* value) {
    add_attr(key, std::string_view(value));
  }
  void add_attr(std::string_view key, std::uint64_t value);
  void add_attr(std::string_view key, bool value);
};

/// Record a manually-assembled span (fills kind with "span" when unset).
/// No-op while tracing is disabled.
void emit(const SpanRecord& rec);

/// Dump header: enough to align this dump with other artifacts from the
/// same process (rmt.bench/1 carries the same two anchors).
struct DumpHeader {
  std::uint64_t run_start_unix_ms = 0;  ///< wall clock at the epoch, once
  std::uint64_t mono_anchor_ns = 0;     ///< steady_clock raw value at the epoch
  std::uint64_t capacity = 0;
  std::uint64_t recorded = 0;  ///< spans ever flushed into the ring
  std::uint64_t dropped = 0;   ///< overwritten (recorded - retained)
};

/// The bounded flight recorder. One per process (global()); deliberately
/// leaked so the crash handler can never observe a destroyed ring.
class Recorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  static Recorder& global();

  /// Resize the ring (drops retained spans). Configure before tracing.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// Drop retained spans and reset the recorded/dropped accounting.
  void clear();

  std::uint64_t recorded() const;
  std::uint64_t dropped() const;
  DumpHeader header() const;

  /// Drain every thread buffer into the ring, then copy it out, oldest
  /// first. The recorder's read path for dumps, probes and tests.
  std::vector<SpanRecord> snapshot() const;

  /// rmt.trace/1 JSONL: one header line, then one line per retained span.
  void write_jsonl(std::ostream& out) const;
  /// write_jsonl to `path`; false (with no throw) on I/O failure.
  bool write_file(const std::string& path) const;

  /// Dump destination for dump_now / the crash handler ("" = disabled).
  void set_dump_path(std::string path);
  std::string dump_path() const;
  /// Best-effort write_file(dump_path()) tagged with `reason`; no-op when
  /// no dump path is configured. svc::Engine calls this on
  /// deadline_exceeded.
  void dump_now(const char* reason);

  // Internal producer API (RMT_PHASE / emit): append one finished record via
  // the calling thread's buffer.
  void record(const SpanRecord& rec);

  /// Opaque state; public only so the signal handler (a file-scope
  /// function, not a member) can hold a raw pointer to it.
  struct Impl;

 private:
  Recorder();
  Impl* impl_;  // leaked with the recorder
};

/// JSON for one span line / the header line (shared by file dumps and
/// rmt_serve's "trace" probe, so both speak identical rmt.trace/1 bytes).
std::string span_json(const SpanRecord& rec);
std::string header_json(const DumpHeader& h);

/// Install SIGSEGV/SIGBUS/SIGFPE/SIGABRT handlers that write the ring to
/// the configured dump path with async-signal-safe calls, then re-raise.
/// Opt-in (rmt_serve --trace-out); idempotent.
void install_crash_handler();

}  // namespace rmt::obs::trace

/// A span name for a hand-built SpanRecord: the literal itself, checked at
/// compile time against the span entries of obs/names.hpp.
#define RMT_TRACE_NAME(name) ::rmt::obs::checked_name(name, ::rmt::obs::NameKind::span)
