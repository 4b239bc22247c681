#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "net/framing.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/wire.hpp"
#include "util/check.hpp"

namespace rmt::net {

namespace {

using clock_t_ = std::chrono::steady_clock;

void set_nonblocking_pipe(int fds[2]) {
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0)
    throw std::runtime_error("net::Server: pipe2 failed");
}

}  // namespace

struct Server::Impl {
  // -- one response-in-waiting on a connection ------------------------------
  //
  // Connections answer strictly in request order even when their requests
  // span several engine batches: slots form a FIFO, and the drain below
  // stops at the first slot whose result is not available yet.
  struct Slot {
    enum class Kind {
      kEngine,  ///< waits for batch `seq`, response at `index`
      kReady,   ///< preformatted (cache hit, parse error, shed) — writable
      kStats,   ///< stats probe: waits until `seq` batches completed
      kTrace,   ///< trace probe: ditto
    };
    Kind kind = Kind::kReady;
    std::uint64_t seq = 0;
    std::size_t index = 0;
    std::string id;
    std::string preformatted;
    std::uint64_t root_span = 0;  ///< kReady cache hit: its svc.request root
  };

  struct Conn {
    int fd = -1;
    LineFramer framer;
    std::deque<Slot> slots;
    std::string wbuf;
    std::size_t woff = 0;      ///< prefix of wbuf already written
    std::size_t inflight = 0;  ///< engine slots not yet answered
    bool paused = false;       ///< backpressure: POLLIN off
    bool eof = false;          ///< client half-closed; answer, then close
    bool dead = false;         ///< error / slow client; close at the sweep
    // trace + per-connection accounting (net.conn span attributes)
    std::uint64_t trace_id = 0;
    std::uint64_t open_ns = 0;
    std::uint64_t bytes_in = 0, bytes_out = 0, requests = 0, shed = 0;

    explicit Conn(std::size_t max_line) : framer(max_line) {}
    std::size_t queued() const { return wbuf.size() - woff; }
  };

  Options opts;
  svc::Engine engine;
  exec::ThreadPool runner{1};  ///< executes engine batches in order

  int listen_fd = -1;
  std::uint16_t port = 0;
  int wake_r = -1, wake_w = -1;
  std::atomic<bool> stop_requested{false};
  bool stopping = false;

  std::unordered_map<int, Conn> conns;
  std::vector<svc::Request> pending;
  clock_t_::time_point pending_since{};
  std::uint64_t submitted = 0;  ///< batches handed to the runner
  std::uint64_t completed = 0;  ///< batches whose responses arrived
  std::size_t inflight_total = 0;

  std::mutex completions_m;
  std::vector<std::pair<std::uint64_t, std::vector<svc::Response>>> completions;
  std::unordered_map<std::uint64_t, std::vector<svc::Response>> results;
  std::unordered_map<std::uint64_t, std::size_t> refs;  ///< unconsumed slots

  // net.* counters (single writer: the event-loop thread; atomics so
  // stats() is safely readable from tests and signal-adjacent contexts).
  std::atomic<std::uint64_t> accepts{0}, active{0}, disconnects{0};
  std::atomic<std::uint64_t> bytes_in{0}, bytes_out{0}, lines_in{0};
  std::atomic<std::uint64_t> responses_out{0}, shed{0};
  std::atomic<std::uint64_t> slow_client_disconnects{0}, frame_rejects{0};
  std::atomic<std::uint64_t> inline_hits{0}, batches{0};
  std::mutex publish_m;
  NetStats published;

  Impl(exec::ThreadPool* pool, Options o) : opts(std::move(o)), engine(pool, opts.engine) {
    RMT_REQUIRE(opts.batch_limit > 0, "net::Server: batch_limit must be positive");
    RMT_REQUIRE(opts.max_line_bytes > 0, "net::Server: max_line_bytes must be positive");
    if (opts.write_hard_cap_bytes == 0)
      opts.write_hard_cap_bytes = 4 * opts.write_budget_bytes;
    int pipe_fds[2];
    set_nonblocking_pipe(pipe_fds);
    wake_r = pipe_fds[0];
    wake_w = pipe_fds[1];
    open_listener();
  }

  ~Impl() {
    for (auto& [fd, conn] : conns) ::close(fd);
    conns.clear();
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_r >= 0) ::close(wake_r);
    if (wake_w >= 0) ::close(wake_w);
  }

  void open_listener() {
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) throw std::runtime_error("net::Server: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opts.port);
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
      throw std::runtime_error(std::string("net::Server: bind failed: ") +
                               std::strerror(errno));
    if (::listen(listen_fd, 128) != 0)
      throw std::runtime_error(std::string("net::Server: listen failed: ") +
                               std::strerror(errno));
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0)
      throw std::runtime_error("net::Server: getsockname failed");
    port = ntohs(bound.sin_port);
  }

  void wake() {
    const char b = 1;
    // Best effort: a full pipe already guarantees a pending wake-up.
    [[maybe_unused]] const ssize_t r = ::write(wake_w, &b, 1);  // lint:raw-io-allowed: self-pipe
  }

  // -- batching -------------------------------------------------------------

  void flush_pending() {
    if (pending.empty()) return;
    const std::uint64_t seq = submitted++;
    batches.fetch_add(1, std::memory_order_relaxed);
    refs[seq] = pending.size();
    // shared_ptr keeps the task copyable for std::function; the batch is
    // owned by the runner task from here on.
    auto reqs = std::make_shared<std::vector<svc::Request>>(std::move(pending));
    pending.clear();
    runner.submit([this, seq, reqs] {
      std::vector<svc::Response> responses;
      try {
        responses = engine.run(*reqs);
      } catch (const std::exception& e) {
        // Engine::run converts per-request failures itself; this is the
        // never-expected belt-and-braces path that keeps a throw from
        // wedging every connection waiting on the batch.
        svc::Response err;
        err.status = svc::Response::Status::kError;
        err.error = std::string("internal: batch failed: ") + e.what();
        responses.assign(reqs->size(), err);
      }
      {
        std::lock_guard<std::mutex> lock(completions_m);
        completions.emplace_back(seq, std::move(responses));
      }
      wake();
    });
  }

  bool batch_wait_expired() const {
    if (pending.empty()) return false;
    const auto age =
        std::chrono::duration_cast<std::chrono::milliseconds>(clock_t_::now() - pending_since);
    return std::uint64_t(age.count()) >= opts.batch_wait_ms;
  }

  void drain_completions() {
    std::vector<std::pair<std::uint64_t, std::vector<svc::Response>>> done;
    {
      std::lock_guard<std::mutex> lock(completions_m);
      done.swap(completions);
    }
    if (done.empty()) return;
    for (auto& [seq, responses] : done) {
      ++completed;  // the one-thread runner completes batches in order
      const auto it = refs.find(seq);
      if (it != refs.end() && it->second > 0) results[seq] = std::move(responses);
      else refs.erase(seq);  // every slot was dropped with its connection
    }
    for (auto& [fd, conn] : conns) drain_slots(conn);
  }

  void consume_ref(std::uint64_t seq) {
    const auto it = refs.find(seq);
    if (it == refs.end()) return;
    if (--it->second == 0) {
      refs.erase(it);
      results.erase(seq);
    }
  }

  // -- per-connection response path -----------------------------------------

  void enqueue_line(Conn& conn, const std::string& line) {
    conn.wbuf.append(line);
    conn.wbuf.push_back('\n');
    responses_out.fetch_add(1, std::memory_order_relaxed);
  }

  void emit_write_span(const Conn& conn, std::uint64_t root_span, std::size_t bytes) {
    if (conn.trace_id == 0 || !obs::trace::enabled()) return;
    obs::trace::SpanRecord rec;
    rec.trace_id = conn.trace_id;
    rec.span_id = obs::trace::next_id();
    rec.set_name(RMT_TRACE_NAME("net.write"));
    // Joined to the response's svc.request root: the transport leg of a
    // request links into the engine's trace forest.
    rec.join_span_id = root_span;
    rec.start_ns = obs::trace::now_ns();
    rec.end_ns = rec.start_ns;
    rec.add_attr("bytes", std::uint64_t(bytes));
    obs::trace::emit(rec);
  }

  std::string overloaded_response(const std::string& id, const std::string& why) {
    shed.fetch_add(1, std::memory_order_relaxed);
    return svc::wire::format_parse_error(id, "overloaded: " + why);
  }

  void drain_slots(Conn& conn) {
    while (!conn.slots.empty()) {
      Slot& slot = conn.slots.front();
      if (slot.kind == Slot::Kind::kReady) {
        enqueue_line(conn, slot.preformatted);
        if (slot.root_span != 0)
          emit_write_span(conn, slot.root_span, slot.preformatted.size() + 1);
      } else if (slot.kind == Slot::Kind::kEngine) {
        const auto it = results.find(slot.seq);
        if (it == results.end()) break;  // batch still computing
        const svc::Response& resp = it->second[slot.index];
        const std::string line = svc::wire::format_response(slot.id, resp);
        enqueue_line(conn, line);
        emit_write_span(conn, resp.root_span, line.size() + 1);
        --conn.inflight;
        --inflight_total;
        consume_ref(slot.seq);
      } else {
        // Probes report the state after everything submitted before them.
        if (completed < slot.seq) break;
        enqueue_line(conn, slot.kind == Slot::Kind::kStats
                               ? svc::wire::format_stats_response(slot.id, engine, "net",
                                                                  net_section_json())
                               : svc::wire::format_trace_response(slot.id));
      }
      conn.slots.pop_front();
    }
    flush_writes(conn);
  }

  void flush_writes(Conn& conn) {
    if (conn.dead) return;
    while (conn.woff < conn.wbuf.size()) {
      const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                               conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
      if (n > 0) {
        conn.woff += std::size_t(n);
        conn.bytes_out += std::uint64_t(n);
        bytes_out.fetch_add(std::uint64_t(n), std::memory_order_relaxed);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      conn.dead = true;  // EPIPE / ECONNRESET: the client is gone
      return;
    }
    if (conn.woff == conn.wbuf.size()) {
      conn.wbuf.clear();
      conn.woff = 0;
    } else if (conn.woff > (64u << 10)) {
      conn.wbuf.erase(0, conn.woff);
      conn.woff = 0;
    }
    // Backpressure state machine: pause reads past the budget, resume
    // below half of it, drop the connection past the hard cap (a slow
    // client must not pin megabytes of the server's memory).
    const std::size_t queued = conn.queued();
    if (queued > opts.write_hard_cap_bytes) {
      slow_client_disconnects.fetch_add(1, std::memory_order_relaxed);
      conn.dead = true;
      return;
    }
    if (queued > opts.write_budget_bytes) conn.paused = true;
    else if (conn.paused && queued <= opts.write_budget_bytes / 2) conn.paused = false;
  }

  // -- request path ---------------------------------------------------------

  void handle_request_line(Conn& conn, const std::string& line) {
    svc::wire::Envelope env = svc::wire::parse_line(line, &engine.memo());
    Slot slot;
    if (env.kind == svc::wire::Envelope::Kind::kStats ||
        env.kind == svc::wire::Envelope::Kind::kTrace) {
      flush_pending();  // probes report the state after everything queued
      slot.kind = env.kind == svc::wire::Envelope::Kind::kStats ? Slot::Kind::kStats
                                                                : Slot::Kind::kTrace;
      slot.seq = submitted;
      slot.id = std::move(env.id);
      conn.slots.push_back(std::move(slot));
      return;
    }
    // Admission control: shed instead of queueing work for a connection
    // (or a server) that is already past its budget. Shedding is checked
    // before a malformed line's parse error is reported. The response is
    // immediate and the connection stays usable.
    if (conn.inflight >= opts.max_inflight_per_conn) {
      ++conn.shed;
      slot.preformatted = overloaded_response(
          env.id, "connection has " + std::to_string(conn.inflight) +
                      " requests in flight (budget " +
                      std::to_string(opts.max_inflight_per_conn) + ")");
    } else if (inflight_total >= opts.max_inflight_total) {
      ++conn.shed;
      slot.preformatted = overloaded_response(
          env.id, "server has " + std::to_string(inflight_total) +
                      " requests in flight (budget " +
                      std::to_string(opts.max_inflight_total) + ")");
    } else if (conn.queued() > opts.write_budget_bytes) {
      ++conn.shed;
      slot.preformatted = overloaded_response(
          env.id, "write queue at " + std::to_string(conn.queued()) + " bytes (budget " +
                      std::to_string(opts.write_budget_bytes) + ")");
    } else if (env.kind == svc::wire::Envelope::Kind::kError) {
      slot.preformatted = svc::wire::format_parse_error(env.id, env.error);
    } else if (std::optional<svc::Response> hit = engine.lookup(*env.request)) {
      // A memory-cache hit is answered here, on the loop thread: no batch,
      // no runner task, no wake-up. It is never in flight, and it still
      // waits behind any unanswered slot of its connection.
      inline_hits.fetch_add(1, std::memory_order_relaxed);
      ++conn.requests;
      slot.preformatted = svc::wire::format_response(env.id, *hit);
      slot.root_span = hit->root_span;
    } else {
      slot.kind = Slot::Kind::kEngine;
      slot.seq = submitted;  // the pending batch's future sequence number
      slot.index = pending.size();
      slot.id = std::move(env.id);
      if (pending.empty()) pending_since = clock_t_::now();
      pending.push_back(std::move(*env.request));
      ++conn.inflight;
      ++inflight_total;
      ++conn.requests;
      conn.slots.push_back(std::move(slot));
      if (pending.size() >= opts.batch_limit) flush_pending();
      return;
    }
    conn.slots.push_back(std::move(slot));
  }

  void process_frames(Conn& conn) {
    LineFramer::Frame frame;
    while (!conn.dead && conn.framer.next(frame)) {
      lines_in.fetch_add(1, std::memory_order_relaxed);
      switch (frame.kind) {
        case LineFramer::Kind::kOversized:
        case LineFramer::Kind::kEmbeddedNul: {
          frame_rejects.fetch_add(1, std::memory_order_relaxed);
          Slot slot;
          slot.preformatted = svc::wire::format_parse_error("", conn.framer.reject_message(frame));
          conn.slots.push_back(std::move(slot));
          break;
        }
        case LineFramer::Kind::kLine:
          if (frame.line.empty()) flush_pending();  // blank line = flush
          else handle_request_line(conn, frame.line);
          break;
      }
    }
  }

  void handle_readable(Conn& conn) {
    if (conn.eof || conn.dead) return;
    const bool tracing = conn.trace_id != 0 && obs::trace::enabled();
    const std::uint64_t t0 = tracing ? obs::trace::now_ns() : 0;
    std::uint64_t got = 0;
    char buf[64 << 10];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n > 0) {
        got += std::uint64_t(n);
        conn.bytes_in += std::uint64_t(n);
        bytes_in.fetch_add(std::uint64_t(n), std::memory_order_relaxed);
        conn.framer.feed(buf, std::size_t(n));
        process_frames(conn);
        if (conn.dead) break;
        if (std::size_t(n) < sizeof buf) break;  // socket likely drained
        continue;
      }
      if (n == 0) {
        conn.eof = true;  // half-open: answer what is queued, then close
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn.dead = true;
      break;
    }
    if (tracing && got > 0) {
      obs::trace::SpanRecord rec;
      rec.trace_id = conn.trace_id;
      rec.span_id = obs::trace::next_id();
      rec.set_name(RMT_TRACE_NAME("net.read"));
      rec.start_ns = t0;
      rec.end_ns = obs::trace::now_ns();
      rec.add_attr("bytes", got);
      obs::trace::emit(rec);
    }
    drain_slots(conn);
  }

  void handle_accept() {
    while (conns.size() < opts.max_conns) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN, or a transient accept failure: retry next cycle
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      if (opts.so_sndbuf > 0)
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &opts.so_sndbuf, sizeof opts.so_sndbuf);
      auto [it, inserted] = conns.emplace(fd, Conn(opts.max_line_bytes));
      Conn& conn = it->second;
      conn.fd = fd;
      if (obs::trace::enabled()) {
        conn.trace_id = obs::trace::next_id();
        conn.open_ns = obs::trace::now_ns();
      }
      accepts.fetch_add(1, std::memory_order_relaxed);
      active.store(conns.size(), std::memory_order_relaxed);
    }
  }

  void close_conn(Conn& conn) {
    if (conn.trace_id != 0 && obs::trace::enabled()) {
      obs::trace::SpanRecord rec;
      rec.trace_id = conn.trace_id;
      rec.span_id = obs::trace::next_id();
      rec.set_name(RMT_TRACE_NAME("net.conn"));
      rec.start_ns = conn.open_ns;
      rec.end_ns = obs::trace::now_ns();
      rec.add_attr("bytes_in", conn.bytes_in);
      rec.add_attr("bytes_out", conn.bytes_out);
      rec.add_attr("requests", conn.requests);
      rec.add_attr("shed", conn.shed);
      obs::trace::emit(rec);
    }
    // Release every response slot still referencing a batch — a closed
    // connection must not pin batch results (or the admission budget).
    for (const Slot& slot : conn.slots) {
      if (slot.kind != Slot::Kind::kEngine) continue;
      --conn.inflight;
      --inflight_total;
      consume_ref(slot.seq);
    }
    conn.slots.clear();
    ::close(conn.fd);
    disconnects.fetch_add(1, std::memory_order_relaxed);
  }

  /// Close everything that is finished (or doomed): dead connections, and
  /// connections with nothing left to say once the client half-closed or
  /// the server is draining.
  void close_sweep() {
    std::vector<int> doomed;
    for (auto& [fd, conn] : conns) {
      if (conn.dead) doomed.push_back(fd);
      else if ((conn.eof || stopping) && conn.slots.empty() && conn.queued() == 0)
        doomed.push_back(fd);
    }
    for (const int fd : doomed) {
      const auto it = conns.find(fd);
      close_conn(it->second);
      conns.erase(it);
    }
    if (!doomed.empty()) active.store(conns.size(), std::memory_order_relaxed);
  }

  std::string net_section_json() {
    const NetStats s = snapshot();
    obs::json::Writer w;
    w.begin_object();
    w.field("accepts", s.accepts);
    w.field("active", s.active);
    w.field("disconnects", s.disconnects);
    w.field("bytes_in", s.bytes_in);
    w.field("bytes_out", s.bytes_out);
    w.field("lines_in", s.lines_in);
    w.field("responses_out", s.responses_out);
    w.field("shed", s.shed);
    w.field("slow_client_disconnects", s.slow_client_disconnects);
    w.field("frame_rejects", s.frame_rejects);
    w.field("inline_hits", s.inline_hits);
    w.field("batches", s.batches);
    w.end_object();
    return w.take();
  }

  NetStats snapshot() const {
    NetStats s;
    s.accepts = accepts.load(std::memory_order_relaxed);
    s.active = active.load(std::memory_order_relaxed);
    s.disconnects = disconnects.load(std::memory_order_relaxed);
    s.bytes_in = bytes_in.load(std::memory_order_relaxed);
    s.bytes_out = bytes_out.load(std::memory_order_relaxed);
    s.lines_in = lines_in.load(std::memory_order_relaxed);
    s.responses_out = responses_out.load(std::memory_order_relaxed);
    s.shed = shed.load(std::memory_order_relaxed);
    s.slow_client_disconnects = slow_client_disconnects.load(std::memory_order_relaxed);
    s.frame_rejects = frame_rejects.load(std::memory_order_relaxed);
    s.inline_hits = inline_hits.load(std::memory_order_relaxed);
    s.batches = batches.load(std::memory_order_relaxed);
    return s;
  }

  void begin_drain() {
    if (stopping) return;
    stopping = true;
    flush_pending();  // requests read before the drain still get answers
  }

  void serve() {
    std::vector<pollfd> pfds;
    std::vector<int> pfd_conn;  // conn fd per pfds entry past the fixed two
    for (;;) {
      if (stop_requested.load(std::memory_order_relaxed)) begin_drain();
      close_sweep();
      if (stopping && conns.empty() && completed == submitted && pending.empty()) break;

      pfds.clear();
      pfd_conn.clear();
      pfds.push_back(pollfd{wake_r, POLLIN, 0});
      const bool accepting = !stopping && conns.size() < opts.max_conns;
      pfds.push_back(pollfd{accepting ? listen_fd : -1, POLLIN, 0});
      for (auto& [fd, conn] : conns) {
        short events = 0;
        if (!conn.eof && !conn.dead && !conn.paused && !stopping) events |= POLLIN;
        if (conn.queued() > 0) events |= POLLOUT;
        pfds.push_back(pollfd{fd, events, 0});
        pfd_conn.push_back(fd);
      }

      int timeout_ms = stopping ? 50 : 1000;
      if (!pending.empty()) {
        const auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
            clock_t_::now() - pending_since);
        const std::int64_t left = std::int64_t(opts.batch_wait_ms) - age.count();
        timeout_ms = int(std::clamp<std::int64_t>(left, 0, 1000));
      }

      const int ready = ::poll(pfds.data(), nfds_t(pfds.size()), timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("net::Server: poll failed: ") +
                                 std::strerror(errno));
      }

      if (pfds[0].revents & POLLIN) {
        char sink[256];
        while (::read(wake_r, sink, sizeof sink) > 0) {
        }
      }
      drain_completions();
      if (stop_requested.load(std::memory_order_relaxed)) begin_drain();

      if (!stopping && (pfds[1].revents & POLLIN)) handle_accept();

      for (std::size_t i = 2; i < pfds.size(); ++i) {
        const auto it = conns.find(pfd_conn[i - 2]);
        if (it == conns.end()) continue;
        Conn& conn = it->second;
        if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) handle_readable(conn);
        if (pfds[i].revents & POLLOUT) flush_writes(conn);
      }

      if (batch_wait_expired()) flush_pending();
    }
  }
};

Server::Server(exec::ThreadPool* pool, Options opts)
    : impl_(std::make_unique<Impl>(pool, std::move(opts))) {}

Server::~Server() = default;

std::uint16_t Server::bound_port() const { return impl_->port; }

svc::Engine& Server::engine() { return impl_->engine; }

void Server::serve() { impl_->serve(); }

void Server::stop() {
  impl_->stop_requested.store(true, std::memory_order_relaxed);
  impl_->wake();
}

NetStats Server::stats() const { return impl_->snapshot(); }

void Server::publish_stats() {
  impl_->engine.publish_stats();
  if (!obs::enabled()) return;
  const NetStats now = impl_->snapshot();
  std::lock_guard<std::mutex> lock(impl_->publish_m);
  NetStats& last = impl_->published;
  obs::Registry& reg = obs::Registry::global();
  reg.counter("net.accepts").inc(now.accepts - last.accepts);
  reg.gauge("net.active").set(double(now.active));
  reg.counter("net.disconnects").inc(now.disconnects - last.disconnects);
  reg.counter("net.bytes_in").inc(now.bytes_in - last.bytes_in);
  reg.counter("net.bytes_out").inc(now.bytes_out - last.bytes_out);
  reg.counter("net.lines_in").inc(now.lines_in - last.lines_in);
  reg.counter("net.responses_out").inc(now.responses_out - last.responses_out);
  reg.counter("net.shed").inc(now.shed - last.shed);
  reg.counter("net.slow_client_disconnects")
      .inc(now.slow_client_disconnects - last.slow_client_disconnects);
  reg.counter("net.frame_rejects").inc(now.frame_rejects - last.frame_rejects);
  reg.counter("net.inline_hits").inc(now.inline_hits - last.inline_hits);
  reg.counter("net.batches").inc(now.batches - last.batches);
  last = now;
}

}  // namespace rmt::net
