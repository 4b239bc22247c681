// perfbench/src/e2e.cpp — the untraced end-to-end run: rmt_serve as a
// child process, driven over loopback TCP or its stdio pipes by closed-loop
// clients in this process.
#include "e2e.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common.hpp"

namespace perfbench {

namespace {

// ---- child process ----------------------------------------------------------

/// Pins the calling thread to the highest-numbered CPU it may use, and
/// restores its mask on destruction. Threads and children it starts
/// meanwhile inherit the pin.
class OneCpu {
 public:
  OneCpu() {
    if (::sched_getaffinity(0, sizeof old_, &old_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int c = CPU_SETSIZE - 1; c >= 0; --c)
      if (CPU_ISSET(c, &old_)) {
        CPU_SET(c, &one);
        break;
      }
    pinned_ = ::sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~OneCpu() {
    if (pinned_) ::sched_setaffinity(0, sizeof old_, &old_);
  }
  OneCpu(const OneCpu&) = delete;
  OneCpu& operator=(const OneCpu&) = delete;

 private:
  cpu_set_t old_;
  bool pinned_ = false;
};

/// rmt_serve as a child. The destructor always reaps it (SIGKILL after a
/// grace period), so no exit path leaves a process behind.
class Child {
 public:
  Child(const std::vector<std::string>& argv, bool stdio) {
    int in[2] = {-1, -1}, out[2] = {-1, -1}, err[2] = {-1, -1};
    if (stdio && (::pipe(in) != 0 || ::pipe(out) != 0))
      throw std::runtime_error("pipe failed");
    if (!stdio && ::pipe(err) != 0) throw std::runtime_error("pipe failed");
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    const int devnull = ::open("/dev/null", O_RDWR);
    // vfork: the start costs the same however much memory the harness holds
    // (setup_s is timed around it). The child only makes system calls.
    pid_ = ::vfork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      ::dup2(stdio ? in[0] : devnull, 0);
      ::dup2(stdio ? out[1] : devnull, 1);
      if (!stdio) ::dup2(err[1], 2);
      for (int fd = 3; fd < 1024; ++fd) ::close(fd);
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    ::close(devnull);
    if (pid_ < 0) throw std::runtime_error("vfork failed");
    if (stdio) {
      ::close(in[0]);
      ::close(out[1]);
      to_ = in[1];
      from_ = out[0];
    } else {
      ::close(err[1]);
      from_ = err[0];
    }
  }
  ~Child() {
    close_input();
    if (pid_ > 0) {
      if (!wait_exit(5.0)) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
      }
    }
    if (from_ >= 0) ::close(from_);
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  int to() const { return to_; }
  int from() const { return from_; }
  void close_input() {
    if (to_ >= 0) ::close(to_);
    to_ = -1;
  }
  void terminate() {
    if (pid_ > 0) ::kill(pid_, SIGTERM);
  }
  /// Waits up to `seconds` for the child; returns true once reaped.
  bool wait_exit(double seconds) {
    if (pid_ <= 0) return true;
    const Clock::time_point end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                     std::chrono::duration<double>(seconds));
    for (;;) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        exit_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        return true;
      }
      if (Clock::now() > end) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  bool exit_ok() const { return exit_ok_; }

 private:
  pid_t pid_ = -1;
  int to_ = -1;
  int from_ = -1;
  bool exit_ok_ = false;
};

/// Buffered line reader over a file descriptor.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  /// False on EOF, timeout (SO_RCVTIMEO) or error.
  bool next(std::string& line) {
    for (;;) {
      const std::size_t nl = buf_.find('\n', scan_);
      if (nl != std::string::npos) {
        line.assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        scan_ = 0;
        return true;
      }
      scan_ = buf_.size();
      char chunk[1 << 16];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n > 0) {
        buf_.append(chunk, std::size_t(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

 private:
  int fd_;
  std::string buf_;
  std::size_t scan_ = 0;
};

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n > 0) off += std::size_t(n);
    else if (n < 0 && errno == EINTR) continue;
    else return false;
  }
  return true;
}

class Socket {
 public:
  explicit Socket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) + " failed");
    }
  }
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int fd() const { return fd_; }

 private:
  int fd_ = -1;
};

// ---- /proc accounting -------------------------------------------------------

/// utime + stime of the whole process, in microseconds.
double proc_cpu_us(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string f;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> f; ++i)
    if (i == 14 || i == 15) ticks += std::stod(f);
  return ticks * 1e6 / double(::sysconf(_SC_CLK_TCK));
}

/// VmHWM in MiB.
double proc_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

// ---- answer checking --------------------------------------------------------

/// A response that is not the expected answer: either a failure (shed,
/// deadline, unexpected error — counted) or a wrong answer (aborts).
struct Verdict {
  bool ok = false;
  bool wrong = false;
};

Verdict judge(const Item& item, const std::string& segment) {
  if (segment == item.expect) return {true, false};
  const bool got_error = segment.rfind("\"status\":\"error\"", 0) == 0;
  const bool got_late = segment.rfind("\"status\":\"deadline_exceeded\"", 0) == 0;
  const bool want_ok = item.expect.rfind("\"status\":\"ok\"", 0) == 0;
  if (got_late || (got_error && (want_ok || segment.find("overloaded:") != std::string::npos)))
    return {false, false};
  return {false, true};
}

std::string clip(const std::string& s) { return s.size() > 300 ? s.substr(0, 300) + "..." : s; }

/// Per-client tallies; merged after the window.
struct Tally {
  bool timed = false;        ///< set per chunk: pre-roll answers are checked, not timed
  std::vector<double> done;  ///< latency (us) of each timed answered request
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cached = 0;
  std::vector<std::pair<std::uint64_t, std::string>> unchecked;  ///< (position, segment)
  std::string error;  ///< first wrong answer / protocol violation
  bool exhausted = false;  ///< the stream ran dry before the deadline
  bool lost = false;       ///< the connection or pipe broke
};

/// Checks one response to stream position `pos` (id "q<pos>").
void record(const Workload& w, Tally& t, std::uint64_t pos, const std::string& line,
            Clock::time_point sent, Clock::time_point got) {
  std::string id, segment;
  bool cached = false;
  if (!split_response(line, id, segment, cached)) {
    t.error = "request q" + std::to_string(pos) + ": not an rmt.response/1 line: " + clip(line);
    return;
  }
  if (id != "q" + std::to_string(pos)) {
    t.error = "request q" + std::to_string(pos) + ": answered out of order (got id '" + id + "')";
    return;
  }
  ++t.completed;
  t.cached += cached;
  const Item& item = w.items[w.pick(pos)];
  if (item.expect.empty()) {
    t.unchecked.emplace_back(pos, std::move(segment));
    if (t.timed) t.done.push_back(us_between(sent, got));
    return;
  }
  const Verdict v = judge(item, segment);
  if (v.wrong) {
    t.error = "request q" + std::to_string(pos) + " (" + item.kind + "): wrong answer\n  want " +
              clip(item.expect) + "\n  got  " + clip(segment);
    return;
  }
  if (!v.ok) ++t.failed;
  else if (t.timed) t.done.push_back(us_between(sent, got));
}

std::uint16_t read_port(Child& c) {
  LineReader err(c.from());
  std::string line;
  while (err.next(line)) {
    const std::size_t at = line.rfind(':');
    if (line.find("listening on") != std::string::npos && at != std::string::npos)
      return std::uint16_t(std::stoul(line.substr(at + 1)));
  }
  throw std::runtime_error("rmt_serve did not announce a port");
}

const std::string kStatsProbe =
    "{\"schema\":\"rmt.request/1\",\"id\":\"probe\",\"kind\":\"stats\"}\n";

/// One served process: spawned, ready (a stats probe answered) and, for
/// warm_hits, warmed. TCP keeps a control connection for the final probe.
struct Server {
  std::unique_ptr<Child> child;
  std::uint16_t port = 0;
  std::unique_ptr<Socket> control;
  std::unique_ptr<LineReader> reader;  ///< control socket (TCP) or stdout (stdio)
  double setup_s = 0;
};

std::vector<std::string> server_argv(const E2eOptions& o, const Workload& w,
                                     const std::string& store_dir) {
  std::vector<std::string> argv = {o.server};
  if (w.transport == Transport::kTcp) argv.insert(argv.end(), {"--port", "0"});
  else argv.push_back("--stdio");
  argv.insert(argv.end(), {"--jobs", std::to_string(w.jobs)});
  if (!store_dir.empty()) argv.insert(argv.end(), {"--store-dir", store_dir});
  return argv;
}

/// Sends one line plus the blank-line flush and returns its response.
std::string roundtrip(int fd, LineReader& r, const std::string& line) {
  std::string resp;
  if (!write_all(fd, line + "\n\n") || !r.next(resp))
    throw std::runtime_error("lost the connection during set-up");
  return resp;
}

void check_setup_answer(const Item& item, const std::string& resp, const std::string& id) {
  std::string got_id, segment;
  bool cached = false;
  if (!split_response(resp, got_id, segment, cached) || got_id != id || segment != item.expect)
    throw std::runtime_error("set-up request " + id + " (" + item.kind +
                             "): wrong answer\n  want " + clip(item.expect) + "\n  got  " +
                             clip(resp));
}

Server start_server(const E2eOptions& o, const Workload& w, const std::string& store_dir) {
  Server s;
  const Clock::time_point t0 = Clock::now();
  s.child = std::make_unique<Child>(server_argv(o, w, store_dir), w.transport == Transport::kStdio);
  std::string resp;
  if (w.transport == Transport::kTcp) {
    s.port = read_port(*s.child);
    s.control = std::make_unique<Socket>(s.port);
    s.reader = std::make_unique<LineReader>(s.control->fd());
    if (!write_all(s.control->fd(), kStatsProbe) || !s.reader->next(resp))
      throw std::runtime_error("rmt_serve did not answer the readiness probe");
    for (std::size_t i : w.warmup) {
      const std::string id = "w" + std::to_string(i);
      check_setup_answer(w.items[i], roundtrip(s.control->fd(), *s.reader, w.items[i].line(id)),
                         id);
    }
  } else {
    s.reader = std::make_unique<LineReader>(s.child->from());
    if (!write_all(s.child->to(), kStatsProbe) || !s.reader->next(resp))
      throw std::runtime_error("rmt_serve did not answer the readiness probe");
  }
  s.setup_s = us_between(t0, Clock::now()) / 1e6;
  return s;
}

/// Graceful stop; returns the final stats probe's response line.
std::string stop_server(Server& s, const Workload& w) {
  std::string stats;
  if (w.transport == Transport::kTcp) {
    if (write_all(s.control->fd(), kStatsProbe)) s.reader->next(stats);
    s.control.reset();
    s.child->terminate();
  } else {
    if (write_all(s.child->to(), kStatsProbe)) s.reader->next(stats);
    s.child->close_input();
    std::string rest;
    while (s.reader->next(rest)) {
    }
  }
  if (!s.child->wait_exit(20.0) || !s.child->exit_ok())
    throw std::runtime_error("rmt_serve did not exit cleanly");
  return stats;
}

/// A previous rmt_serve process writes the fill items to the store log.
void fill_store(const E2eOptions& o, const Workload& w, const std::string& dir) {
  Workload filler = w;
  filler.transport = Transport::kStdio;
  filler.jobs = 3;
  Child child(server_argv(o, filler, dir), true);
  LineReader reader(child.from());
  constexpr std::size_t kBatch = 64;
  for (std::size_t base = 0; base < w.fill; base += kBatch) {
    const std::size_t end = std::min(w.fill, base + kBatch);
    std::string bytes;
    for (std::size_t i = base; i < end; ++i) bytes += w.items[i].line("f" + std::to_string(i)) + "\n";
    if (!write_all(child.to(), bytes + "\n")) throw std::runtime_error("filler died");
    for (std::size_t i = base; i < end; ++i) {
      std::string resp;
      if (!reader.next(resp)) throw std::runtime_error("filler died");
      check_setup_answer(w.items[i], resp, "f" + std::to_string(i));
    }
  }
  child.close_input();
  if (!child.wait_exit(60.0) || !child.exit_ok()) throw std::runtime_error("filler failed");
}

// ---- the timed window -------------------------------------------------------

/// A client connection, kept open across the window's chunks.
struct Conn {
  explicit Conn(std::uint16_t port) : sock(port), reader(sock.fd()) {}
  Socket sock;
  LineReader reader;
};

/// TCP: each client connection sends one request plus the blank-line flush
/// and waits for its answer; positions come from a shared counter.
void tcp_client(const Workload& w, Conn& conn, std::atomic<std::uint64_t>& next,
                Clock::time_point deadline, Tally& t) {
  std::string resp;
  while (Clock::now() < deadline && t.error.empty()) {
    const std::uint64_t pos = next.fetch_add(1);
    if (pos >= w.capacity()) {
      t.exhausted = true;  // the window ends early
      return;
    }
    const std::string bytes = w.items[w.pick(pos)].line("q" + std::to_string(pos)) + "\n\n";
    ++t.attempted;
    const Clock::time_point t0 = Clock::now();
    if (!write_all(conn.sock.fd(), bytes) || !conn.reader.next(resp)) {
      ++t.failed;  // lost connection or timeout
      t.lost = true;
      return;
    }
    record(w, t, pos, resp, t0, Clock::now());
  }
}

/// stdio: one pipelined client writes a batch plus a blank line, then
/// reads the batch's answers; latency runs from the batch's first byte.
void stdio_client(const Workload& w, Server& s, std::atomic<std::uint64_t>& next,
                  Clock::time_point deadline, Tally& t) {
  std::string resp;
  while (Clock::now() < deadline && t.error.empty()) {
    const std::uint64_t pos = next.fetch_add(w.batch);
    if (pos + w.batch > w.capacity()) {
      t.exhausted = true;
      return;
    }
    std::string bytes;
    for (std::size_t k = 0; k < w.batch; ++k)
      bytes += w.items[w.pick(pos + k)].line("q" + std::to_string(pos + k)) + "\n";
    bytes += "\n";
    t.attempted += w.batch;
    const Clock::time_point t0 = Clock::now();
    if (!write_all(s.child->to(), bytes)) {
      t.failed += w.batch;
      t.lost = true;
      return;
    }
    for (std::size_t k = 0; k < w.batch; ++k) {
      if (!s.reader->next(resp)) {
        t.failed += w.batch - k;
        t.lost = true;
        return;
      }
      record(w, t, pos + k, resp, t0, Clock::now());
    }
  }
}

constexpr double kPrerollS = 1.0;
constexpr std::size_t kChunks = 20;      // the window's chunks; a server start follows each
constexpr std::size_t kBareStarts = 10;  // restart_store: starts without the store
constexpr std::size_t kExpectThreads = 4;  // expected answers, outside the window

std::uint64_t json_u64(const std::string& doc, const std::string& key) {
  const std::size_t at = doc.find("\"" + key + "\":");
  return at == std::string::npos ? 0 : std::stoull(doc.substr(at + key.size() + 3));
}

}  // namespace

int run_e2e(const E2eOptions& o, Workload& w) {
  namespace fs = std::filesystem;
  const bool restart = w.fill > 0;
  const std::string store_dir = restart ? o.workdir + "/store" : "";
  if (restart) {
    fs::remove_all(store_dir);
    fs::create_directories(store_dir);
  }

  // Expected answers for everything the set-up sends, before any timing.
  for (std::size_t i : w.warmup) compute_expected(w, i, i + 1, 1);
  for (std::size_t i : w.malformed) compute_expected(w, i, i + 1, 1);
  if (restart) {
    compute_expected(w, 0, w.fill, kExpectThreads);
    const Clock::time_point f0 = Clock::now();
    fill_store(o, w, store_dir);
    std::fprintf(stderr, "filled %zu records in %.2f s (not part of setup_s)\n", w.fill,
                 us_between(f0, Clock::now()) / 1e6);
  }

  // One CPU (Workload::one_cpu): this thread, which drives the set-ups'
  // warm-up, the servers and the client threads, until the window ends.
  std::optional<OneCpu> pin;
  if (w.one_cpu) pin.emplace();

  // The serving server's start is setup_s's first sample. The timed window
  // runs in kChunks chunks; after each, with the load paused, a fresh
  // server is started and stopped beside the idle one. So the samples span
  // the whole run, not one moment of it (README.md, "Noise").
  // restart_store's extra starts open a copy of the log.
  const std::string probe_dir = restart ? o.workdir + "/store-probe" : "";
  if (restart) fs::copy(store_dir, probe_dir, fs::copy_options::recursive);
  std::vector<double> setups;
  Server s = start_server(o, w, store_dir);
  setups.push_back(s.setup_s);
  double bare_s = 0;
  if (restart) {
    // The same server without its store: what store recovery adds to setup_s.
    std::vector<double> bare;
    for (std::size_t k = 0; k < kBareStarts; ++k) {
      Server b = start_server(o, w, "");
      bare.push_back(b.setup_s);
      stop_server(b, w);
    }
    bare_s = median(bare);
  }

  std::vector<Tally> tallies(w.conns);
  std::vector<std::unique_ptr<Conn>> conns;
  if (w.transport == Transport::kTcp)
    for (std::size_t c = 0; c < w.conns; ++c) conns.push_back(std::make_unique<Conn>(s.port));
  std::atomic<std::uint64_t> next{0};
  // Runs the clients for `seconds`; returns the wall time until the last
  // client's last answer.
  const auto run_chunk = [&](double seconds, bool timed) {
    const Clock::time_point c0 = Clock::now();
    const Clock::time_point deadline =
        c0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < w.conns; ++c) {
      tallies[c].timed = timed;
      clients.emplace_back([&, c] {
        try {
          if (w.transport == Transport::kTcp) tcp_client(w, *conns[c], next, deadline, tallies[c]);
          else stdio_client(w, s, next, deadline, tallies[c]);
        } catch (const std::exception& e) {
          tallies[c].error = e.what();
        }
      });
    }
    for (std::thread& th : clients) th.join();
    return us_between(c0, Clock::now()) / 1e6;
  };
  const auto timed_answers = [&tallies] {
    std::size_t n = 0;
    for (const Tally& t : tallies) n += t.done.size();
    return n;
  };
  const auto stopped = [&tallies] {
    for (const Tally& t : tallies)
      if (!t.error.empty() || t.exhausted || t.lost) return true;
    return false;
  };
  // The pre-roll, then the chunks; the server's CPU counters are read at
  // each chunk's edges.
  run_chunk(kPrerollS, false);
  double timed_s = 0, cpu_us = 0;
  std::vector<double> chunk_rate;
  for (std::size_t k = 0; k < kChunks && !stopped(); ++k) {
    const std::size_t before = timed_answers();
    const double cpu0 = proc_cpu_us(s.child->pid());
    const double chunk_s = run_chunk(o.seconds / double(kChunks), true);
    cpu_us += proc_cpu_us(s.child->pid()) - cpu0;
    timed_s += chunk_s;
    chunk_rate.push_back(double(timed_answers() - before) / chunk_s);
    Server probe = start_server(o, w, probe_dir);
    setups.push_back(probe.setup_s);
    stop_server(probe, w);
  }
  const double hwm_mb = proc_hwm_mb(s.child->pid());
  conns.clear();
  const std::string stats = stop_server(s, w);
  if (restart)
    std::fprintf(stderr, "setup_s %.4f s with the %zu-record store, %.4f s without it\n",
                 median(setups), w.fill, bare_s);

  pin.reset();

  Tally all;
  for (Tally& t : tallies) {
    if (!t.error.empty()) {
      std::fprintf(stderr, "FAILED: %s\n", t.error.c_str());
      return 3;
    }
    all.attempted += t.attempted;
    all.completed += t.completed;
    all.failed += t.failed;
    all.cached += t.cached;
    all.done.insert(all.done.end(), t.done.begin(), t.done.end());
    all.unchecked.insert(all.unchecked.end(), t.unchecked.begin(), t.unchecked.end());
    all.exhausted = all.exhausted || t.exhausted;
  }
  if (all.exhausted)
    std::fprintf(stderr, "warning: the stream ran dry before the deadline; "
                 "raise max_positions() in main.cpp\n");

  // Answers whose expected bytes were not needed before the window.
  std::size_t lo = w.items.size(), hi = 0;
  for (const auto& [pos, seg] : all.unchecked) {
    lo = std::min(lo, w.pick(pos));
    hi = std::max(hi, w.pick(pos) + 1);
  }
  const Clock::time_point e0 = Clock::now();
  compute_expected(w, lo, hi, kExpectThreads);
  for (const auto& [pos, seg] : all.unchecked) {
    const Item& item = w.items[w.pick(pos)];
    const Verdict v = judge(item, seg);
    if (v.wrong) {
      std::fprintf(stderr, "FAILED: request q%llu (%s): wrong answer\n  want %s\n  got  %s\n",
                   static_cast<unsigned long long>(pos), item.kind.c_str(),
                   clip(item.expect).c_str(), clip(seg).c_str());
      return 3;
    }
    if (!v.ok) ++all.failed;
  }
  const std::uint64_t answered = all.completed - all.failed;
  std::fprintf(stderr, "window %.3f s in %zu chunks: %llu attempted (pre-roll included), "
               "%llu completed, %llu failed, %llu cached; "
               "%zu answers checked after the window in %.2f s\n",
               timed_s, chunk_rate.size(), static_cast<unsigned long long>(all.attempted),
               static_cast<unsigned long long>(all.completed),
               static_cast<unsigned long long>(all.failed),
               static_cast<unsigned long long>(all.cached), all.unchecked.size(),
               us_between(e0, Clock::now()) / 1e6);
  std::fprintf(stderr, "%s\n", composition(w, all.attempted).c_str());
  std::fprintf(stderr, "server stats: engine.computed=%llu cache.hits=%llu net.shed=%llu "
               "store.hits=%llu\n",
               static_cast<unsigned long long>(json_u64(stats, "computed")),
               static_cast<unsigned long long>(json_u64(stats, "hits")),
               static_cast<unsigned long long>(json_u64(stats, "shed")),
               static_cast<unsigned long long>(
                   stats.find("\"store\"") == std::string::npos
                       ? 0
                       : json_u64(stats.substr(stats.find("\"store\"")), "hits")));
  std::vector<double>& lat = all.done;
  const std::uint64_t in_window = lat.size();
  if (all.attempted == 0 || answered == 0 || in_window == 0) {
    std::fprintf(stderr, "FAILED: no request was answered in the window\n");
    return 3;
  }

  // Rate and percentiles pool the whole window. The host's speed shifts
  // between plateaus that last tens of seconds; a pooled figure moves
  // smoothly with the share of the window spent on each plateau, where a
  // median over chunks would jump from one plateau to the other
  // (README.md, "Noise"). The per-chunk rates are printed on stderr.
  Metrics m;
  m.add("throughput_rps", double(in_window) / timed_s, "1/s");
  m.add("latency_p50_us", percentile(lat, 0.50), "us");
  m.add("latency_p99_us", percentile(lat, 0.99), "us");
  m.add("ok_ratio", double(all.attempted - all.failed) / double(all.attempted), "ratio");
  m.add("server_cpu_us_per_req", cpu_us / double(std::max<std::uint64_t>(1, in_window)), "us");
  m.add("server_rss_peak_mb", hwm_mb, "MiB");
  m.add("setup_s", median(setups), "s");
  std::fprintf(stderr, "samples: latency %llu in the window, setup %zu; fail_ratio %.6f\n",
               static_cast<unsigned long long>(in_window), setups.size(),
               double(all.failed) / double(all.attempted));
  std::string starts = "setup starts (s):";
  for (double v : setups) starts += " " + std::to_string(v).substr(0, 6);
  std::fprintf(stderr, "%s\n", starts.c_str());
  std::string rates = "per-chunk rate:";
  for (double r : chunk_rate) rates += " " + std::to_string(int(r));
  std::fprintf(stderr, "%s\n", rates.c_str());
  for (const auto& [name, v] : m.rows)
    std::fprintf(stderr, "  %-24s %14.4f %s\n", name.c_str(), v.first, v.second.c_str());
  print_result(true, all.attempted, all.failed, m);
  return 0;
}

}  // namespace perfbench
