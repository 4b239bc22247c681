// tools/rmt_serve — the JSONL query server over svc::Engine.
//
// Two transports, one protocol (src/svc/wire.hpp):
//
//   rmt_serve --stdio   (default)  read rmt.request/1 lines from stdin,
//                                  answer rmt.response/1 lines on stdout;
//   rmt_serve --port N             accept many concurrent TCP clients on
//                                  127.0.0.1:N (0 = ephemeral) through the
//                                  src/net event loop — same line protocol
//                                  per connection, all connections multi-
//                                  plexed onto ONE engine so duplicate
//                                  keys coalesce across sockets.
//
// In both modes requests accumulate into a batch; a blank line (from any
// connection, in TCP mode), the batch limit, or — stdio only — EOF
// flushes the batch through the engine and emits the responses in input
// order. Both transports frame lines with net::LineFramer under the wire
// cap, so an oversized or NUL-embedded line gets the same error answer on
// either (stdio reads fd 0 in 64 KiB chunks; a final line without '\n'
// is still served). Deadlines (deadline_ms) count from the flush. In TCP mode a
// request the memory result cache can answer skips the batch: the event
// loop answers it at once (it still computes nothing), in order behind
// its connection's earlier requests. Probe lines the engine never sees:
//   * malformed requests — answered with an "error" response echoing the
//     id when one could be salvaged;
//   * {"schema":"rmt.request/1","id":"s","kind":"stats"} — flushes the
//     pending batch, then reports the engine, cache and instance-memo
//     counters as the result object; the TCP server appends its transport
//     counters as a "net" section ({"kind":"stats","engine":{...},
//     "cache":{...},"memo":{...},"net":{...}}), whose inline_hits and
//     batches count hits answered by the loop and batches it submitted;
//   * {"schema":"rmt.request/1","id":"t","kind":"trace"} — flushes, then
//     reports the flight recorder as the result object
//     ({"kind":"trace","header":{...},"spans":[...]}) where header and
//     every span are verbatim rmt.trace/1 objects.
//
// Tracing (obs/trace.hpp) is always on in the server: every response
// carries its trace_id and the flight recorder retains the last spans.
// The TCP server announces its bound port on stderr
// ("rmt_serve: listening on 127.0.0.1:<port>") so a harness that asked
// for an ephemeral port can find it, and drains gracefully on SIGTERM /
// SIGINT: stop accepting and reading, answer everything in flight, flush
// every write queue, then exit 0.
//
//   rmt_serve [--stdio | --port N] [--jobs N] [--batch N] [--cache-mb N]
//             [--store-dir DIR] [--store-budget N]
//             [--seed N] [--trace-out FILE]
//             [--batch-wait-ms N] [--max-conns N] [--max-line-bytes N]
//             [--max-inflight N] [--max-inflight-conn N]
//             [--write-budget N] [--write-hard-cap N] [--so-sndbuf N]
//
//   --jobs N        worker threads (default: hardware concurrency; 0 =
//                   compute sequentially)
//   --batch N       max requests per engine batch (default 64)
//   --cache-mb N    result cache budget in MiB (default 64); the instance
//                   memo (svc/instance_memo.hpp) gets 1/64 of it
//   --store-dir D   persistent result store directory (created if absent;
//                   recovered on start — a hostile store file refuses to
//                   serve). Default: memory-only
//   --store-budget N  store.log size cap in bytes (0 = unlimited)
//   --seed N        root seed for derived simulate seeds (default 4242)
//   --trace-out F   dump the flight recorder to F (rmt.trace/1 JSONL) at
//                   exit, on deadline_exceeded, and on crash (the crash
//                   handler is installed only with this flag)
// TCP mode only (see src/net/server.hpp for semantics):
//   --batch-wait-ms N     max age of a pending batch (default 5)
//   --max-conns N         concurrent connection cap (default 1024)
//   --max-line-bytes N    per-line size cap (default 4 MiB)
//   --max-inflight N      global admission budget (default 4096)
//   --max-inflight-conn N per-connection admission budget (default 256)
//   --write-budget N      write-queue pause threshold, bytes (default 4 MiB)
//   --write-hard-cap N    slow-client disconnect threshold, bytes
//                         (default 4x budget)
//   --so-sndbuf N         SO_SNDBUF for accepted sockets (default kernel)
//
// Exit code 0 on EOF / graceful drain, 1 on usage or bind errors.
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "net/framing.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "svc/engine.hpp"
#include "svc/wire.hpp"

namespace {

using namespace rmt;

int usage() {
  std::fprintf(stderr,
               "usage: rmt_serve [--stdio | --port N] [--jobs N] [--batch N]\n"
               "                 [--cache-mb N] [--store-dir DIR] [--store-budget N]\n"
               "                 [--seed N] [--trace-out FILE]\n"
               "                 [--batch-wait-ms N] [--max-conns N] [--max-line-bytes N]\n"
               "                 [--max-inflight N] [--max-inflight-conn N]\n"
               "                 [--write-budget N] [--write-hard-cap N] [--so-sndbuf N]\n"
               "reads rmt.request/1 JSONL on stdin (--stdio) or serves it to many\n"
               "concurrent TCP clients on 127.0.0.1 (--port); a blank line flushes\n"
               "the pending batch\n");
  return 1;
}

/// One stdin line awaiting its response: either an index into the pending
/// engine batch or an already-formatted response (parse errors).
struct Slot {
  bool engine = false;
  std::size_t index = 0;      ///< engine slots: position in the batch
  std::string id;             ///< engine slots: echoed request id
  std::string preformatted;   ///< non-engine slots: the response line
};

/// The stdio transport: one reader, one stream, flush-at-EOF semantics.
class StdioServer {
 public:
  StdioServer(exec::ThreadPool* pool, svc::Engine::Options opts, std::size_t batch_limit)
      : engine_(pool, opts), batch_limit_(batch_limit) {}

  /// One framed stdin line; a rejection (oversized / NUL) is answered in
  /// order with TCP's error text.
  void handle_frame(const net::LineFramer& framer, const net::LineFramer::Frame& frame) {
    if (frame.kind == net::LineFramer::Kind::kLine) {
      handle_line(frame.line);
      return;
    }
    slots_.push_back(
        Slot{false, 0, "", svc::wire::format_parse_error("", framer.reject_message(frame))});
  }

  void handle_line(const std::string& line) {
    if (line.empty()) {
      flush();
      return;
    }
    svc::wire::Envelope env = svc::wire::parse_line(line, &engine_.memo());
    switch (env.kind) {
      case svc::wire::Envelope::Kind::kStats:
      case svc::wire::Envelope::Kind::kTrace: {
        flush();  // probes report the state *after* everything queued so far
        const std::string out = env.kind == svc::wire::Envelope::Kind::kStats
                                    ? svc::wire::format_stats_response(env.id, engine_)
                                    : svc::wire::format_trace_response(env.id);
        std::printf("%s\n", out.c_str());
        std::fflush(stdout);
        return;
      }
      case svc::wire::Envelope::Kind::kRequest:
        slots_.push_back(Slot{true, batch_.size(), std::move(env.id), ""});
        batch_.push_back(std::move(*env.request));
        break;
      case svc::wire::Envelope::Kind::kError:
        slots_.push_back(Slot{false, 0, "", svc::wire::format_parse_error(env.id, env.error)});
        break;
    }
    if (batch_.size() >= batch_limit_) flush();
  }

  void flush() {
    if (slots_.empty()) return;
    const std::vector<svc::Response> responses = engine_.run(batch_);
    for (const Slot& slot : slots_) {
      const std::string line = slot.engine
                                   ? svc::wire::format_response(slot.id, responses[slot.index])
                                   : slot.preformatted;
      std::printf("%s\n", line.c_str());
    }
    std::fflush(stdout);
    batch_.clear();
    slots_.clear();
  }

 private:
  svc::Engine engine_;
  std::size_t batch_limit_;
  std::vector<svc::Request> batch_;
  std::vector<Slot> slots_;
};

net::Server* g_server = nullptr;

extern "C" void handle_drain_signal(int) {
  if (g_server) g_server->stop();  // async-signal-safe by contract
}

}  // namespace

int main(int argc, char** argv) {
  bool stdio = true;
  std::size_t jobs = exec::ThreadPool::hardware_concurrency();
  std::size_t batch_limit = 64;
  std::size_t cache_mb = 64;
  std::string store_dir;
  std::uint64_t store_budget = 0;
  std::uint64_t seed = 4242;
  std::string trace_out;
  net::Server::Options net_opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stdio") {
      stdio = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* val = argv[++i];
    const std::uint64_t n = std::strtoull(val, nullptr, 10);
    if (arg == "--jobs") jobs = std::size_t(n);
    else if (arg == "--batch") batch_limit = std::size_t(n);
    else if (arg == "--cache-mb") cache_mb = std::size_t(n);
    else if (arg == "--store-dir") store_dir = val;
    else if (arg == "--store-budget") store_budget = n;
    else if (arg == "--seed") seed = n;
    else if (arg == "--trace-out") trace_out = val;
    else if (arg == "--port") {
      stdio = false;
      net_opts.port = std::uint16_t(n);
    } else if (arg == "--batch-wait-ms") net_opts.batch_wait_ms = n;
    else if (arg == "--max-conns") net_opts.max_conns = std::size_t(n);
    else if (arg == "--max-line-bytes") net_opts.max_line_bytes = std::size_t(n);
    else if (arg == "--max-inflight") net_opts.max_inflight_total = std::size_t(n);
    else if (arg == "--max-inflight-conn") net_opts.max_inflight_per_conn = std::size_t(n);
    else if (arg == "--write-budget") net_opts.write_budget_bytes = std::size_t(n);
    else if (arg == "--write-hard-cap") net_opts.write_hard_cap_bytes = std::size_t(n);
    else if (arg == "--so-sndbuf") net_opts.so_sndbuf = int(n);
    else return usage();
  }
  if (batch_limit == 0) batch_limit = 1;

  obs::trace::set_enabled(true);
  if (!trace_out.empty()) {
    obs::trace::Recorder::global().set_dump_path(trace_out);
    obs::trace::install_crash_handler();
  }

  std::unique_ptr<exec::ThreadPool> pool;
  if (jobs > 0) pool = std::make_unique<exec::ThreadPool>(jobs);

  svc::Engine::Options opts;
  opts.cache.max_bytes = cache_mb << 20;
  opts.store.dir = store_dir;
  opts.store.max_bytes = store_budget;
  opts.root_seed = seed;

  if (stdio) {
    // Engine construction opens (and recovers) the store; a hostile store
    // file is a clean refusal to serve, never a crash.
    std::unique_ptr<StdioServer> server;
    try {
      server = std::make_unique<StdioServer>(pool.get(), opts, batch_limit);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "rmt_serve: %s\n", e.what());
      return 1;
    }
    net::LineFramer framer(svc::wire::kMaxRequestBytes);
    net::LineFramer::Frame frame;
    std::vector<char> buf(64 << 10);
    for (;;) {
      const ssize_t n = ::read(0, buf.data(), buf.size());
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // EOF, or a read error: answer what is queued
      framer.feed(buf.data(), std::size_t(n));
      while (framer.next(frame)) server->handle_frame(framer, frame);
    }
    if (framer.mid_line()) {
      framer.feed("\n", 1);  // the final line needs no terminator
      while (framer.next(frame)) server->handle_frame(framer, frame);
    }
    server->flush();
    obs::trace::Recorder::global().dump_now("exit");
    return 0;
  }

  net_opts.batch_limit = batch_limit;
  net_opts.engine = opts;
  std::unique_ptr<net::Server> server;
  try {
    server = std::make_unique<net::Server>(pool.get(), net_opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rmt_serve: %s\n", e.what());
    return 1;
  }
  g_server = server.get();
  std::signal(SIGTERM, handle_drain_signal);
  std::signal(SIGINT, handle_drain_signal);
  std::signal(SIGPIPE, SIG_IGN);  // dead sockets surface as EPIPE on send

  // The harness contract: one parseable stderr line naming the bound port
  // (ephemeral when --port 0), flushed before the loop starts.
  std::fprintf(stderr, "rmt_serve: listening on 127.0.0.1:%u\n", unsigned(server->bound_port()));
  std::fflush(stderr);

  server->serve();
  obs::trace::Recorder::global().dump_now("exit");
  g_server = nullptr;
  return 0;
}
