#include "obs/trace.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace rmt::obs::trace {

namespace {

std::atomic<bool> g_enabled{false};

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kDefaultSeed = 4242;

std::uint64_t splitmix_mix(std::uint64_t z) {
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ull;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z;
}

std::atomic<std::uint64_t> g_id_state{kDefaultSeed};

thread_local TraceContext t_context;

std::string hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[std::size_t(i)] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

/// Bounded copy into a SpanRecord char field, always NUL-terminated.
void copy_bounded(char* dst, std::size_t cap, std::string_view src) {
  const std::size_t n = src.size() < cap - 1 ? src.size() : cap - 1;
  std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

std::string_view field_view(const char* field, std::size_t cap) {
  std::size_t n = 0;
  while (n < cap && field[n] != '\0') ++n;
  return std::string_view(field, n);
}

/// One thread's pending-span buffer; flushed in batches so the ring mutex
/// stays off the per-span path most of the time.
constexpr std::size_t kFlushBatch = 32;

struct ThreadBuffer {
  std::mutex m;
  std::vector<SpanRecord> buf;
};

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void set_seed(std::uint64_t seed) { g_id_state.store(seed, std::memory_order_relaxed); }

std::uint64_t next_id() {
  const std::uint64_t s = g_id_state.fetch_add(kGolden, std::memory_order_relaxed) + kGolden;
  const std::uint64_t id = splitmix_mix(s);
  return id != 0 ? id : 1;
}

std::string id_hex(std::uint64_t id) { return hex16(id); }

TraceContext current() { return t_context; }
void set_current(TraceContext ctx) { t_context = ctx; }

ContextGuard::ContextGuard(TraceContext ctx) {
  if (!ctx.valid()) return;
  prev_ = t_context;
  t_context = ctx;
  active_ = true;
}

ContextGuard::~ContextGuard() {
  if (active_) t_context = prev_;
}

TraceContext new_root_context() {
  TraceContext ctx;
  ctx.trace_id = next_id();
  ctx.span_id = next_id();
  return ctx;
}

void SpanRecord::set_name(std::string_view v) { copy_bounded(name, kNameBytes, v); }
void SpanRecord::set_kind(std::string_view v) { copy_bounded(kind, kKindBytes, v); }

void SpanRecord::add_attr(std::string_view key, std::string_view value) {
  const std::size_t used = field_view(attrs, kAttrBytes).size();
  // "<;>key=value" + NUL must fit; an attribute never appears truncated.
  const std::size_t sep = used > 0 ? 1 : 0;
  if (used + sep + key.size() + 1 + value.size() + 1 > kAttrBytes) return;
  char* p = attrs + used;
  if (sep) *p++ = ';';
  std::memcpy(p, key.data(), key.size());
  p += key.size();
  *p++ = '=';
  std::memcpy(p, value.data(), value.size());
  p += value.size();
  *p = '\0';
}

void SpanRecord::add_attr(std::string_view key, std::uint64_t value) {
  add_attr(key, std::string_view(std::to_string(value)));
}

void SpanRecord::add_attr(std::string_view key, bool value) {
  add_attr(key, value ? std::string_view("true") : std::string_view("false"));
}

// ---------------------------------------------------------------------------
// Recorder

struct Recorder::Impl {
  mutable std::mutex m;  // ring, accounting, buffer registry, dump path
  std::vector<SpanRecord> ring;
  std::size_t head = 0;        // next slot to overwrite
  std::uint64_t recorded = 0;  // spans ever flushed into the ring
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::string dump_path;

  std::uint64_t run_start_unix_ms = 0;
  std::chrono::steady_clock::time_point mono_epoch;
  std::uint64_t mono_anchor_ns = 0;

  void append_locked(const SpanRecord& rec) {
    ring[head] = rec;
    head = (head + 1) % ring.size();
    ++recorded;
  }

  void drain_locked(ThreadBuffer& tb) {
    std::lock_guard<std::mutex> lock(tb.m);
    for (const SpanRecord& rec : tb.buf) append_locked(rec);
    tb.buf.clear();
  }
};

namespace {

/// Raw view for the signal handler: set once when the recorder is built
/// (the recorder itself is leaked, so these never dangle).
Recorder::Impl* g_crash_impl = nullptr;
char g_crash_path[512] = {};

/// The recorder's monotonic epoch, mirrored here so now_ns() pays one
/// clock read and a subtraction, no lock.
std::chrono::steady_clock::time_point g_mono_epoch;

}  // namespace

Recorder::Recorder() : impl_(new Impl) {
  impl_->ring.resize(kDefaultCapacity);
  impl_->mono_epoch = std::chrono::steady_clock::now();
  impl_->mono_anchor_ns = std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                            impl_->mono_epoch.time_since_epoch())
                                            .count());
  impl_->run_start_unix_ms =
      std::uint64_t(std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count());
  g_mono_epoch = impl_->mono_epoch;
  g_crash_impl = impl_;
}

Recorder& Recorder::global() {
  // Leaked on purpose: thread buffers and the crash handler may outlive
  // normal static destruction order.
  static Recorder* r = new Recorder();
  return *r;
}

std::uint64_t now_ns() {
  (void)Recorder::global();  // establish the epoch on first use
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - g_mono_epoch)
                           .count());
}

void Recorder::set_capacity(std::size_t capacity) {
  RMT_REQUIRE(capacity >= 1, "trace::Recorder: capacity must be >= 1");
  std::lock_guard<std::mutex> lock(impl_->m);
  impl_->ring.assign(capacity, SpanRecord{});
  impl_->head = 0;
  impl_->recorded = 0;
}

std::size_t Recorder::capacity() const {
  std::lock_guard<std::mutex> lock(impl_->m);
  return impl_->ring.size();
}

void Recorder::clear() {
  std::lock_guard<std::mutex> lock(impl_->m);
  for (const std::shared_ptr<ThreadBuffer>& tb : impl_->buffers) {
    std::lock_guard<std::mutex> lb(tb->m);
    tb->buf.clear();
  }
  std::fill(impl_->ring.begin(), impl_->ring.end(), SpanRecord{});
  impl_->head = 0;
  impl_->recorded = 0;
}

std::uint64_t Recorder::recorded() const {
  std::lock_guard<std::mutex> lock(impl_->m);
  return impl_->recorded;
}

std::uint64_t Recorder::dropped() const {
  std::lock_guard<std::mutex> lock(impl_->m);
  const std::uint64_t cap = impl_->ring.size();
  return impl_->recorded > cap ? impl_->recorded - cap : 0;
}

DumpHeader Recorder::header() const {
  std::lock_guard<std::mutex> lock(impl_->m);
  DumpHeader h;
  h.run_start_unix_ms = impl_->run_start_unix_ms;
  h.mono_anchor_ns = impl_->mono_anchor_ns;
  h.capacity = impl_->ring.size();
  h.recorded = impl_->recorded;
  const std::uint64_t cap = impl_->ring.size();
  h.dropped = impl_->recorded > cap ? impl_->recorded - cap : 0;
  return h;
}

namespace {

/// The calling thread's buffer, registered with the recorder on first
/// use and drained/unregistered at thread exit.
ThreadBuffer& local_buffer(Recorder::Impl& impl) {
  struct Handle {
    Recorder::Impl* impl;
    std::shared_ptr<ThreadBuffer> tb;
    ~Handle() {
      std::lock_guard<std::mutex> lock(impl->m);
      impl->drain_locked(*tb);
      auto& v = impl->buffers;
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (v[i] == tb) {
          v.erase(v.begin() + std::ptrdiff_t(i));
          break;
        }
      }
    }
  };
  thread_local Handle handle = [&impl] {
    auto tb = std::make_shared<ThreadBuffer>();
    {
      std::lock_guard<std::mutex> lock(impl.m);
      impl.buffers.push_back(tb);
    }
    return Handle{&impl, std::move(tb)};
  }();
  return *handle.tb;
}

}  // namespace

void Recorder::record(const SpanRecord& rec) {
  if (rec.span_id == 0) return;
  ThreadBuffer& tb = local_buffer(*impl_);
  std::vector<SpanRecord> full;
  {
    std::lock_guard<std::mutex> lock(tb.m);
    tb.buf.push_back(rec);
    if (tb.buf.size() < kFlushBatch) return;
    full.swap(tb.buf);
    tb.buf.reserve(kFlushBatch);
  }
  // The buffer lock is released before the ring lock is taken, so the
  // snapshot path (ring lock, then buffer locks) can never deadlock us.
  std::lock_guard<std::mutex> lock(impl_->m);
  for (const SpanRecord& r : full) impl_->append_locked(r);
}

std::vector<SpanRecord> Recorder::snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->m);
  for (const std::shared_ptr<ThreadBuffer>& tb : impl_->buffers) impl_->drain_locked(*tb);
  const std::size_t cap = impl_->ring.size();
  const std::size_t count =
      impl_->recorded < cap ? std::size_t(impl_->recorded) : cap;
  std::vector<SpanRecord> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k)
    out.push_back(impl_->ring[(impl_->head + cap - count + k) % cap]);
  return out;
}

void Recorder::set_dump_path(std::string path) {
  std::lock_guard<std::mutex> lock(impl_->m);
  impl_->dump_path = std::move(path);
  copy_bounded(g_crash_path, sizeof(g_crash_path), impl_->dump_path);
}

std::string Recorder::dump_path() const {
  std::lock_guard<std::mutex> lock(impl_->m);
  return impl_->dump_path;
}

// ---------------------------------------------------------------------------
// JSONL emission

std::string span_json(const SpanRecord& rec) {
  json::Writer w;
  w.begin_object();
  w.field("schema", "rmt.trace/1");
  w.field("trace", hex16(rec.trace_id));
  w.field("span", hex16(rec.span_id));
  w.key("parent");
  if (rec.parent_span_id != 0) w.value(hex16(rec.parent_span_id));
  else w.null();
  w.field("name", std::string(field_view(rec.name, SpanRecord::kNameBytes)));
  w.field("kind", std::string(field_view(rec.kind, SpanRecord::kKindBytes)));
  w.key("join");
  if (rec.join_span_id != 0) w.value(hex16(rec.join_span_id));
  else w.null();
  w.field("start_ns", rec.start_ns);
  w.field("end_ns", rec.end_ns);
  w.field("attrs", std::string(field_view(rec.attrs, SpanRecord::kAttrBytes)));
  w.end_object();
  return w.take();
}

std::string header_json(const DumpHeader& h) {
  json::Writer w;
  w.begin_object();
  w.field("schema", "rmt.trace/1");
  w.field("run_start_unix_ms", h.run_start_unix_ms);
  w.field("mono_anchor_ns", h.mono_anchor_ns);
  w.field("capacity", h.capacity);
  w.field("recorded", h.recorded);
  w.field("dropped", h.dropped);
  w.end_object();
  return w.take();
}

void Recorder::write_jsonl(std::ostream& out) const {
  // snapshot() first: it drains the per-thread buffers, so the header's
  // recorded count agrees with the span lines that follow it.
  const std::vector<SpanRecord> spans = snapshot();
  const DumpHeader h = header();
  out << header_json(h) << '\n';
  for (const SpanRecord& rec : spans) out << span_json(rec) << '\n';
}

bool Recorder::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_jsonl(out);
  return bool(out);
}

void Recorder::dump_now(const char* reason) {
  const std::string path = dump_path();
  if (path.empty()) return;
  (void)reason;  // the header carries the anchors; reasons live in logs
  (void)write_file(path);
}

// ---------------------------------------------------------------------------
// Spans

void emit(const SpanRecord& rec) {
  if (!enabled() || rec.span_id == 0) return;
  SpanRecord copy = rec;
  if (copy.kind[0] == '\0') copy.set_kind(copy.join_span_id != 0 ? "join" : "span");
  Recorder::global().record(copy);
}

// ---------------------------------------------------------------------------
// Crash dumping (async-signal-safe: open/write/close and manual
// formatting only; no locks, no allocation, no stdio)

namespace {

void ss_write(int fd, const char* s, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::write(fd, s, n);  // lint:raw-io-allowed: async-signal-safe crash dump
    if (k <= 0) return;
    s += k;
    n -= std::size_t(k);
  }
}

std::size_t ss_dec(std::uint64_t v, char* out) {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = char('0' + v % 10);
    v /= 10;
  } while (v > 0);
  for (std::size_t i = 0; i < n; ++i) out[i] = tmp[n - 1 - i];
  return n;
}

std::size_t ss_hex16(std::uint64_t v, char* out) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[v & 0xf];
    v >>= 4;
  }
  return 16;
}

/// Copy a bounded char field, replacing anything that could break the
/// JSON string (quotes, backslashes, control bytes) with '_'.
std::size_t ss_sanitized(const char* field, std::size_t cap, char* out) {
  std::size_t n = 0;
  for (; n < cap && field[n] != '\0'; ++n) {
    const char c = field[n];
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-' ||
                      c == '=' || c == ';' || c == ',' || c == ':' || c == '/' ||
                      c == ' ' || c == '{' || c == '}';
    out[n] = safe ? c : '_';
  }
  return n;
}

struct LineBuf {
  char buf[768];
  std::size_t len = 0;
  void lit(const char* s) {
    while (*s != '\0' && len < sizeof(buf) - 1) buf[len++] = *s++;
  }
  void dec(std::uint64_t v) {
    if (len + 20 < sizeof(buf)) len += ss_dec(v, buf + len);
  }
  void hex(std::uint64_t v) {
    if (len + 16 < sizeof(buf)) len += ss_hex16(v, buf + len);
  }
  void hex_or_null(std::uint64_t v) {
    if (v == 0) {
      lit("null");
    } else {
      lit("\"");
      hex(v);
      lit("\"");
    }
  }
  void sanitized(const char* field, std::size_t cap) {
    if (len + cap < sizeof(buf)) len += ss_sanitized(field, cap, buf + len);
  }
};

void rmt_trace_crash_handler(int sig) {
  static volatile std::sig_atomic_t in_crash = 0;
  if (in_crash == 0 && g_crash_impl != nullptr && g_crash_path[0] != '\0') {
    in_crash = 1;
    Recorder::Impl* impl = g_crash_impl;
    const int fd = ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC,  // lint:raw-io-allowed: signal handler
                          0644);
    if (fd >= 0) {
      // Unlocked reads: the process is dying, torn values are acceptable
      // (the consumer treats a crash dump as best effort; see DESIGN §13).
      const SpanRecord* ring = impl->ring.data();
      const std::size_t cap = impl->ring.size();
      const std::uint64_t recorded = impl->recorded;
      const std::size_t head = impl->head < cap ? impl->head : 0;
      const std::size_t count = recorded < cap ? std::size_t(recorded) : cap;
      {
        LineBuf line;
        line.lit("{\"schema\":\"rmt.trace/1\",\"run_start_unix_ms\":");
        line.dec(impl->run_start_unix_ms);
        line.lit(",\"mono_anchor_ns\":");
        line.dec(impl->mono_anchor_ns);
        line.lit(",\"capacity\":");
        line.dec(cap);
        line.lit(",\"recorded\":");
        line.dec(recorded);
        line.lit(",\"dropped\":");
        line.dec(recorded > cap ? recorded - cap : 0);
        line.lit("}\n");
        ss_write(fd, line.buf, line.len);
      }
      for (std::size_t k = 0; k < count; ++k) {
        const SpanRecord& rec = ring[(head + cap - count + k) % cap];
        if (rec.span_id == 0) continue;
        LineBuf line;
        line.lit("{\"schema\":\"rmt.trace/1\",\"trace\":\"");
        line.hex(rec.trace_id);
        line.lit("\",\"span\":\"");
        line.hex(rec.span_id);
        line.lit("\",\"parent\":");
        line.hex_or_null(rec.parent_span_id);
        line.lit(",\"name\":\"");
        line.sanitized(rec.name, SpanRecord::kNameBytes);
        line.lit("\",\"kind\":\"");
        line.sanitized(rec.kind, SpanRecord::kKindBytes);
        line.lit("\",\"join\":");
        line.hex_or_null(rec.join_span_id);
        line.lit(",\"start_ns\":");
        line.dec(rec.start_ns);
        line.lit(",\"end_ns\":");
        line.dec(rec.end_ns);
        line.lit(",\"attrs\":\"");
        line.sanitized(rec.attrs, SpanRecord::kAttrBytes);
        line.lit("\"}\n");
        ss_write(fd, line.buf, line.len);
      }
      ::close(fd);
    }
  }
  std::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void install_crash_handler() {
  (void)Recorder::global();  // bind g_crash_impl before any signal can fire
  static std::atomic<bool> installed{false};
  if (installed.exchange(true)) return;
  std::signal(SIGSEGV, rmt_trace_crash_handler);
  std::signal(SIGBUS, rmt_trace_crash_handler);
  std::signal(SIGFPE, rmt_trace_crash_handler);
  std::signal(SIGABRT, rmt_trace_crash_handler);
}

}  // namespace rmt::obs::trace
