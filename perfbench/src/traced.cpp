// perfbench/src/traced.cpp — the traced in-process replay.
//
// The replay calls each layer's public functions in the order rmt_serve
// does (probe_kind → parse_request → instance_key → ResultCache::get →
// Store::get → compute → ResultCache::put / Store::put → format_response)
// and records a span around every call. A layer call that happens *inside*
// another public function (the instance parse inside parse_request, the
// serialize inside instance_key, the deciders and the simulator inside
// Engine::run) cannot be wrapped from outside, so it is re-executed right
// after its parent as a "shadow" span: a child of the parent for self-time
// accounting, left out of the request's wall time. Spans stay in memory
// and are written to <workdir>/spans.tsv when the run ends.
//
// Legs, each bounded by a share of --seconds:
//   chain    the traced layer-by-layer pass (self times, per-call times);
//   plain    the same positions with tracing off (the spans' overhead);
//   engine   Engine::run over server-shaped batches (svc.engine);
//   exec     pooled vs sequential Engine::run on cold batches (exec);
//   store    open/get/put on the workload's results (store);
//   net      an in-process net::Server and net::Client (net).
#include "traced.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "analysis/feasibility.hpp"
#include "analysis/rmt_cut.hpp"
#include "analysis/zpp_cut.hpp"
#include "common.hpp"
#include "exec/campaign.hpp"
#include "exec/thread_pool.hpp"
#include "io/serialize.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "protocols/rmt_pka.hpp"
#include "protocols/runner.hpp"
#include "sim/strategies.hpp"
#include "store/store.hpp"
#include "svc/engine.hpp"
#include "svc/instance_key.hpp"
#include "svc/result_cache.hpp"
#include "svc/wire.hpp"

namespace perfbench {

using namespace rmt;

namespace {

// ---- spans ------------------------------------------------------------------

struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint32_t parent;  ///< index + 1 of the parent span; 0 = none
  std::uint64_t req;     ///< stream position (warm-up item i: ~i)
  bool shadow;

  double us() const { return double(end_ns - start_ns) / 1e3; }
};

std::uint64_t now_ns() {
  return std::uint64_t(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

/// In-memory span log; a disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  std::uint32_t begin(const char* name, std::uint32_t parent, std::uint64_t req,
                      bool shadow = false) {
    if (!on_) return 0;
    spans_.push_back(Span{name, now_ns(), 0, parent, req, shadow});
    return std::uint32_t(spans_.size());
  }
  void end(std::uint32_t id) {
    if (id) spans_[id - 1].end_ns = now_ns();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Layer of a span name: its prefix, mapped to the module it measures.
std::string layer_of(const std::string& name) {
  const std::string p = name.substr(0, name.find('.'));
  if (p == "wire" || p == "key" || p == "cache" || p == "engine") return "svc." + p;
  return p;  // io, store, analysis, protocols, request
}

// ---- the request chain -------------------------------------------------------

constexpr std::uint64_t kRootSeed = 4242;  // rmt_serve's default --seed

std::unique_ptr<sim::AdversaryStrategy> strategy_of(const std::string& name, std::uint64_t seed) {
  if (name == "silent") return std::make_unique<sim::SilentStrategy>();
  if (name == "value-flip") return std::make_unique<sim::ValueFlipStrategy>();
  if (name == "random-lies") return std::make_unique<sim::RandomLieStrategy>(Rng{seed}, 4);
  if (name == "phantom-world") return std::make_unique<sim::FictitiousWorldStrategy>();
  return std::make_unique<sim::TwoFacedStrategy>();
}

struct SimCounts {
  std::uint64_t runs = 0, rounds = 0, honest_messages = 0;
};

/// One replay state: the tiers the server would hold.
struct Tiers {
  svc::ResultCache cache;
  std::unique_ptr<store::Store> store;
  SimCounts sim;
  std::uint64_t hits = 0, lookups = 0;
  std::uint64_t store_gets = 0, store_hits = 0;
};

/// Shadow re-execution of the deciders / simulator Engine::run called.
void compute_shadows(Tracer& tr, std::uint32_t parent, std::uint64_t req,
                     const svc::Request& r, const svc::InstanceKey& key, SimCounts& sim) {
  const Instance& inst = r.instance;
  const auto shadow = [&](const char* name, const auto& fn) {
    const std::uint32_t s = tr.begin(name, parent, req, true);
    fn();
    tr.end(s);
  };
  switch (r.kind) {
    case svc::QueryKind::kDecideRmt:
      shadow("analysis.find_rmt_cut", [&] { (void)analysis::find_rmt_cut(inst); });
      break;
    case svc::QueryKind::kDecideZpp:
      shadow("analysis.find_rmt_zpp_cut", [&] { (void)analysis::find_rmt_zpp_cut(inst); });
      break;
    case svc::QueryKind::kAnalyze:
      shadow("analysis.find_rmt_cut", [&] { (void)analysis::find_rmt_cut(inst); });
      shadow("analysis.find_rmt_zpp_cut", [&] { (void)analysis::find_rmt_zpp_cut(inst); });
      shadow("analysis.full_knowledge", [&] {
        (void)analysis::solvable_full_knowledge(inst.graph(), inst.adversary(), inst.dealer(),
                                                inst.receiver());
      });
      break;
    case svc::QueryKind::kSimulate: {
      const svc::SimParams& p = r.params;
      const std::uint64_t seed = p.seed ? *p.seed : exec::derive_seed(kRootSeed, key.lo);
      shadow("protocols.run_rmt", [&] {
        const auto strategy = strategy_of(p.strategy, seed);
        const protocols::Outcome out = protocols::run_rmt(inst, protocols::RmtPka{}, p.value,
                                                          p.corrupted, strategy.get(),
                                                          p.max_rounds);
        ++sim.runs;
        sim.rounds += out.stats.rounds;
        sim.honest_messages += out.stats.honest_messages;
      });
      break;
    }
  }
}

/// Serves one line through the layers in server order; returns the
/// response line. Shadows run only when tracing.
std::string serve_line(Tracer& tr, Tiers& t, const Item& item, const std::string& line,
                       std::uint64_t req) {
  const std::uint32_t root = tr.begin("request", 0, req);
  std::uint32_t s = tr.begin("wire.probe", root, req);
  const bool probe = !svc::wire::probe_kind(line).empty();
  tr.end(s);
  if (probe) throw std::logic_error("replay stream holds a probe line");

  svc::Response resp;
  std::string id, error;
  s = tr.begin("wire.parse_request", root, req);
  std::optional<svc::wire::ParsedRequest> parsed;
  try {
    parsed = svc::wire::parse_request(line);
  } catch (const std::exception& e) {
    error = e.what();
  }
  tr.end(s);
  if (parsed) {
    if (tr.on()) {
      const std::uint32_t sh = tr.begin("io.parse_instance", s, req, true);
      (void)io::parse_instance_string(item.text);
      tr.end(sh);
    }
    svc::Request& r = parsed->request;
    s = tr.begin("key.instance_key", root, req);
    const svc::InstanceKey key = svc::instance_key(r.instance);
    tr.end(s);
    if (tr.on()) {
      const std::uint32_t sh = tr.begin("io.serialize_instance", s, req, true);
      (void)io::serialize_instance(r.instance);
      tr.end(sh);
    }
    resp.key = key.to_hex();
    const std::string ckey = resp.key + item.ckey.substr(32);
    ++t.lookups;
    s = tr.begin("cache.get", root, req);
    std::optional<std::string> hit = t.cache.get(ckey);
    tr.end(s);
    if (!hit && t.store) {
      s = tr.begin("store.get", root, req);
      hit = t.store->get(ckey);
      tr.end(s);
      ++t.store_gets;
      t.store_hits += hit.has_value();
      if (hit) {
        s = tr.begin("cache.put", root, req);
        t.cache.put(ckey, *hit);
        tr.end(s);
      }
    }
    if (hit) {
      ++t.hits;
      resp.result = std::move(*hit);
      resp.cached = true;
    } else {
      s = tr.begin("engine.compute", root, req);
      r.no_cache = true;
      svc::Engine engine(nullptr);
      svc::Response fresh = engine.run({r})[0];
      tr.end(s);
      if (tr.on()) compute_shadows(tr, s, req, r, key, t.sim);
      resp.status = fresh.status;
      resp.result = std::move(fresh.result);
      resp.error = std::move(fresh.error);
      if (resp.status == svc::Response::Status::kOk) {
        s = tr.begin("cache.put", root, req);
        t.cache.put(ckey, resp.result);
        tr.end(s);
        if (t.store) {
          s = tr.begin("store.put", root, req);
          t.store->put(ckey, resp.result);
          tr.end(s);
        }
      }
    }
    id = parsed->id;
  }
  s = tr.begin("wire.format_response", root, req);
  std::string out = parsed ? svc::wire::format_response(id, resp)
                           : svc::wire::format_parse_error(svc::wire::extract_id(line), error);
  tr.end(s);
  tr.end(root);
  return out;
}

void check_answer(const Item& item, const std::string& line, const std::string& what) {
  std::string id, segment;
  bool cached = false;
  if (!split_response(line, id, segment, cached) || segment != item.expect)
    throw std::runtime_error(what + " (" + item.kind + "): wrong answer in the replay\n  want " +
                             item.expect.substr(0, 300) + "\n  got  " + line.substr(0, 300));
}

std::string result_of(const Item& item) {
  const std::size_t a = item.expect.find("\"result\":");
  const std::size_t b = item.expect.rfind(",\"error\":null");
  return a == std::string::npos || b == std::string::npos ? "" : item.expect.substr(a + 9, b - a - 9);
}

std::unique_ptr<store::Store> open_store(const std::string& dir) {
  store::Options so;
  so.dir = dir;
  return std::make_unique<store::Store>(so);
}

/// A fresh copy of the pre-run store log in `dir` (restart_store); ""
/// for the memory-only workloads.
std::string log_copy(const Workload& w, const std::string& base, const std::string& dir) {
  if (w.fill == 0) return "";
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::copy(base, dir, fs::copy_options::recursive);
  return dir;
}

std::unique_ptr<store::Store> store_copy(const Workload& w, const std::string& base,
                                         const std::string& dir) {
  const std::string copy = log_copy(w, base, dir);
  return copy.empty() ? nullptr : open_store(copy);
}

std::string stream_line(const Workload& w, std::uint64_t pos) {
  return w.items[w.pick(pos)].line("q" + std::to_string(pos));
}

Clock::time_point after(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

// ---- metrics helpers --------------------------------------------------------

struct Dist {
  std::vector<double> v;
  double p(double q) { return percentile(v, q); }
};

}  // namespace

int run_traced(const TracedOptions& o, Workload& w) {
  namespace fs = std::filesystem;
  const double S = o.seconds;
  const std::size_t threads = 4;
  const Clock::time_point run0 = Clock::now();

  // Expected answers for the warm-up and the fill; the fill becomes the
  // pre-run store log, written straight through Store::put.
  for (std::size_t i : w.warmup) compute_expected(w, i, i + 1, 1);
  for (std::size_t i : w.malformed) compute_expected(w, i, i + 1, 1);
  const std::string base = o.workdir + "/store-base";
  fs::remove_all(base);
  if (w.fill > 0) {
    compute_expected(w, 0, w.fill, threads);
    auto st = open_store(base);
    for (std::size_t i = 0; i < w.fill; ++i) st->put(w.items[i].ckey, result_of(w.items[i]));
  }

  // ---- chain: traced pass, then the same positions untraced -------------------
  Tracer traced(true), plain(false);
  Tiers t1, t2;
  t1.store = store_copy(w, base, o.workdir + "/store-chain");
  t2.store = store_copy(w, base, o.workdir + "/store-plain");
  for (std::size_t i : w.warmup) {
    const std::string line = w.items[i].line("w" + std::to_string(i));
    check_answer(w.items[i], serve_line(traced, t1, w.items[i], line, ~std::uint64_t(i)),
                 "warm-up w" + std::to_string(i));
    serve_line(plain, t2, w.items[i], line, ~std::uint64_t(i));
  }
  const std::uint64_t lookups0 = t1.lookups, hits0 = t1.hits;
  const std::size_t first_span = traced.spans().size();
  std::uint64_t n = 0;
  std::vector<std::pair<std::uint64_t, std::string>> pending;  // (pos, response)
  for (const Clock::time_point end = after(0.25 * S); Clock::now() < end && n < w.capacity(); ++n) {
    const std::size_t i = w.pick(n);
    std::string resp = serve_line(traced, t1, w.items[i], stream_line(w, n), n);
    if (w.items[i].expect.empty()) pending.emplace_back(n, std::move(resp));
    else check_answer(w.items[i], resp, "request q" + std::to_string(n));
  }
  std::vector<double> plain_us;
  for (std::uint64_t p = 0; p < n; ++p) {
    const std::size_t i = w.pick(p);
    const std::string line = stream_line(w, p);
    const Clock::time_point a = Clock::now();
    serve_line(plain, t2, w.items[i], line, p);
    plain_us.push_back(us_between(a, Clock::now()));
  }
  if (!pending.empty()) {
    std::size_t lo = w.items.size(), hi = 0;
    for (const auto& [p, r] : pending) {
      lo = std::min(lo, w.pick(p));
      hi = std::max(hi, w.pick(p) + 1);
    }
    compute_expected(w, lo, hi, threads);
    for (const auto& [p, r] : pending)
      check_answer(w.items[w.pick(p)], r, "request q" + std::to_string(p));
  }

  // Self times: span minus children; shadows are children of their parent
  // and not part of the request's wall time.
  const std::vector<Span>& spans = traced.spans();
  std::vector<double> child_us(spans.size(), 0.0);
  for (std::size_t k = 0; k < spans.size(); ++k)
    if (spans[k].parent) child_us[spans[k].parent - 1] += spans[k].us();
  std::map<std::string, Dist> calls;      // per span name, every call (warm-up included)
  std::map<std::string, double> self_us;  // per layer, timed positions only
  double wall_us = 0, covered_us = 0;
  std::vector<double> format_us(n, 0.0);
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Span& sp = spans[k];
    const double dur = sp.us();
    if (sp.parent) calls[sp.name].v.push_back(dur);
    if (k < first_span || !sp.parent) continue;
    if (std::string(sp.name) == "wire.format_response") format_us[sp.req] = dur;
    const double self = dur - child_us[k];
    self_us[layer_of(sp.name)] += self;
    covered_us += self;
  }
  // Request wall = root duration minus the shadows it contains.
  {
    std::vector<double> shadow_us(n, 0.0);
    for (std::size_t k = first_span; k < spans.size(); ++k)
      if (spans[k].shadow) shadow_us[spans[k].req] += spans[k].us();
    for (std::size_t k = first_span; k < spans.size(); ++k)
      if (!spans[k].parent) wall_us += spans[k].us() - shadow_us[spans[k].req];
  }
  self_us["other"] = std::max(0.0, wall_us - covered_us);

  // ---- engine: Engine::run over server-shaped batches -------------------------
  exec::ThreadPool pool(w.jobs);
  Dist engine_run;
  double computed_ratio = 0, coalesced = 0;
  {
    svc::Engine::Options so;
    so.store.dir = log_copy(w, base, o.workdir + "/store-engine");
    svc::Engine served(&pool, so);
    std::vector<svc::Request> warm;
    for (std::size_t i : w.warmup)
      warm.push_back(svc::wire::parse_request(w.items[i].line("w")).request);
    if (!warm.empty()) served.run(warm);
    const svc::Engine::Stats s0 = served.stats();
    const Clock::time_point end = after(0.15 * S);
    for (std::uint64_t p = 0; p + w.batch <= n && Clock::now() < end; p += w.batch) {
      std::vector<svc::Request> batch;
      for (std::uint64_t k = p; k < p + w.batch; ++k) {
        if (w.items[w.pick(k)].kind == "malformed") continue;
        batch.push_back(svc::wire::parse_request(stream_line(w, k)).request);
      }
      if (batch.empty()) continue;
      const Clock::time_point a = Clock::now();
      served.run(batch);
      engine_run.v.push_back(us_between(a, Clock::now()));
    }
    const svc::Engine::Stats s1 = served.stats();
    computed_ratio = s1.requests > s0.requests
                         ? double(s1.computed - s0.computed) / double(s1.requests - s0.requests)
                         : 0;
    coalesced = double(s1.coalesced - s0.coalesced);
  }

  // ---- exec: pooled vs sequential Engine::run on batches of misses ------------
  double seq_total = 0, pooled_total = 0;
  {
    std::vector<std::size_t> cold;  // items that miss: the warm-up set or the stream's new keys
    if (!w.warmup.empty()) cold = w.warmup;
    else
      for (std::uint64_t p = 0; p < n && cold.size() < 4096; ++p)
        if (w.pick(p) >= w.fill) cold.push_back(w.pick(p));
    const Clock::time_point end = after(0.1 * S);
    for (std::size_t b = 0; b + 8 <= cold.size() && Clock::now() < end; b += 8) {
      std::vector<svc::Request> batch;
      for (std::size_t k = b; k < b + 8; ++k) {
        batch.push_back(svc::wire::parse_request(w.items[cold[k]].line("x")).request);
        batch.back().no_cache = true;
      }
      for (const svc::Request& r : batch) {
        svc::Engine seq(nullptr);
        const Clock::time_point a = Clock::now();
        seq.run({r});
        seq_total += us_between(a, Clock::now());
      }
      svc::Engine pooled(&pool);
      const Clock::time_point a = Clock::now();
      pooled.run(batch);
      pooled_total += us_between(a, Clock::now());
    }
  }

  // ---- store ----------------------------------------------------------------
  // restart_store: the chain's own disk lookups and appends, and opens of
  // the pre-run log. The memory-only workloads never touch a store, so a
  // log is written from their results and read back.
  Dist store_get, store_put, store_open;
  std::uint64_t store_hits = t1.store_hits, store_gets = t1.store_gets;
  std::uint64_t read_errors = 0, log_bytes = 0;
  std::string open_dir = base;
  if (w.fill > 0) {
    for (const Span& sp : spans) {
      const std::string name = sp.name;
      if (name == "store.get") store_get.v.push_back(sp.us());
      if (name == "store.put") store_put.v.push_back(sp.us());
    }
    const store::Stats ss = t1.store->stats();
    read_errors = ss.read_errors;
    log_bytes = ss.bytes;
  } else {
    open_dir = o.workdir + "/store-leg";
    fs::remove_all(open_dir);
    // Every distinct answered key of the warm-up and the replayed stream.
    std::vector<std::pair<std::string, std::string>> kv;
    std::unordered_set<std::string> keys;
    const auto add = [&](const Item& item) {
      if (item.expect.rfind("\"status\":\"ok\"", 0) == 0 && keys.insert(item.ckey).second)
        kv.emplace_back(item.ckey, result_of(item));
    };
    for (std::size_t i : w.warmup) add(w.items[i]);
    for (std::uint64_t p = 0; p < n && kv.size() < 20000; ++p) add(w.items[w.pick(p)]);
    auto st = open_store(open_dir);
    for (const auto& [k, v] : kv) {
      const Clock::time_point a = Clock::now();
      st->put(k, v);
      store_put.v.push_back(us_between(a, Clock::now()));
    }
    for (const auto& [k, v] : kv) {
      const Clock::time_point a = Clock::now();
      const std::optional<std::string> got = st->get(k);
      store_get.v.push_back(us_between(a, Clock::now()));
      ++store_gets;
      store_hits += got.has_value();
    }
    const store::Stats ss = st->stats();
    read_errors = ss.read_errors;
    log_bytes = ss.bytes;
  }
  for (int r = 0; r < 3; ++r) {
    const Clock::time_point a = Clock::now();
    auto st = open_store(open_dir);
    store_open.v.push_back(us_between(a, Clock::now()) / 1e3);
  }

  // ---- net: an in-process net::Server with one net::Client ---------------------
  Dist rtt, transport;
  double bytes_in = 0, bytes_out = 0, net_reqs = 0;
  net::NetStats ns;
  {
    net::Server::Options no;
    no.batch_limit = 64;
    no.engine.store.dir = log_copy(w, base, o.workdir + "/store-net");
    net::Server server(&pool, no);
    std::thread loop([&server] { server.serve(); });
    try {
      net::Client client;
      client.connect(server.bound_port());
      std::string resp;
      for (std::size_t i : w.warmup) {
        client.send_line(w.items[i].line("w") + "\n");  // the request, then the flush
        client.recv_line(resp);
      }
      const net::NetStats s0 = server.stats();
      const Clock::time_point end = after(0.1 * S);
      for (std::uint64_t p = 0; p < n && Clock::now() < end; ++p) {
        const std::string line = stream_line(w, p);
        const Clock::time_point a = Clock::now();
        client.send_line(line + "\n");
        if (!client.recv_line(resp)) throw std::runtime_error("net leg: connection lost");
        const double us = us_between(a, Clock::now());
        rtt.v.push_back(us);
        check_answer(w.items[w.pick(p)], resp, "net leg q" + std::to_string(p));
        const std::size_t at = resp.find("\"wall_us\":");
        const double engine_us = at == std::string::npos ? 0 : std::stod(resp.substr(at + 10));
        transport.v.push_back(us - engine_us - format_us[p]);
        ++net_reqs;
      }
      ns = server.stats();
      bytes_in = double(ns.bytes_in - s0.bytes_in);
      bytes_out = double(ns.bytes_out - s0.bytes_out);
      client.close();
    } catch (...) {
      server.stop();
      loop.join();
      throw;
    }
    server.stop();
    loop.join();
  }

  // ---- spans out, metrics ------------------------------------------------------
  {
    std::ofstream out(o.workdir + "/spans.tsv");
    out << "id\tparent\treq\tname\tstart_ns\tend_ns\tshadow\n";
    for (std::size_t k = 0; k < spans.size(); ++k)
      out << k + 1 << '\t' << spans[k].parent << '\t' << std::int64_t(spans[k].req) << '\t'
          << spans[k].name << '\t' << spans[k].start_ns << '\t' << spans[k].end_ns << '\t'
          << spans[k].shadow << '\n';
  }
  const double per_req = n ? wall_us / double(n) : 0;
  const double plain_mean =
      plain_us.empty() ? 0
                       : std::accumulate(plain_us.begin(), plain_us.end(), 0.0) /
                             double(plain_us.size());
  const auto share = [&](const char* layer) {
    const auto it = self_us.find(layer);
    return wall_us > 0 && it != self_us.end() ? it->second / wall_us : 0.0;
  };
  const auto safe = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const std::uint64_t lookups = t1.lookups - lookups0, hits = t1.hits - hits0;
  const svc::ResultCache::Stats cs = t1.cache.stats();
  std::uint64_t decided = 0, solvable = 0;
  for (std::uint64_t p = 0; p < n; ++p) {
    const Item& item = w.items[w.pick(p)];
    if (item.kind == "simulate" || item.kind == "malformed") continue;
    ++decided;
    solvable += item.solvable;
  }

  Metrics m;
  m.add("net.rtt_us.p50", rtt.p(0.5), "us");
  m.add("net.rtt_us.p99", rtt.p(0.99), "us");
  m.add("net.transport_us.p50", transport.p(0.5), "us");
  m.add("net.bytes_in_per_req", safe(bytes_in, net_reqs), "B");
  m.add("net.bytes_out_per_req", safe(bytes_out, net_reqs), "B");
  m.add("net.shed", double(ns.shed), "count");
  m.add("net.frame_rejects", double(ns.frame_rejects), "count");
  m.add("wire.probe_us.p50", calls["wire.probe"].p(0.5), "us");
  m.add("wire.parse_request_us.p50", calls["wire.parse_request"].p(0.5), "us");
  m.add("wire.parse_request_us.p99", calls["wire.parse_request"].p(0.99), "us");
  m.add("wire.format_response_us.p50", calls["wire.format_response"].p(0.5), "us");
  double parse_us = 0, parse_bytes = 0;
  for (std::size_t k = 0; k < spans.size(); ++k)
    if (std::string(spans[k].name) == "io.parse_instance") {
      parse_us += spans[k].us();
      const std::uint64_t req = spans[k].req;
      const std::size_t item = req >= n ? std::size_t(~req) : w.pick(req);
      parse_bytes += double(w.items[item].text.size());
    }
  m.add("io.parse_instance_us.p50", calls["io.parse_instance"].p(0.5), "us");
  m.add("io.parse_ns_per_byte", safe(parse_us * 1e3, parse_bytes), "ns/B");
  m.add("io.serialize_instance_us.p50", calls["io.serialize_instance"].p(0.5), "us");
  m.add("key.instance_key_us.p50", calls["key.instance_key"].p(0.5), "us");
  m.add("cache.get_us.p50", calls["cache.get"].p(0.5), "us");
  m.add("cache.put_us.p50", calls["cache.put"].p(0.5), "us");
  m.add("cache.hit_ratio", safe(double(hits), double(lookups)), "ratio");
  m.add("cache.evictions", double(cs.evictions), "count");
  m.add("store.open_ms", median(store_open.v), "ms");
  m.add("store.get_us.p50", store_get.p(0.5), "us");
  m.add("store.get_us.p99", store_get.p(0.99), "us");
  m.add("store.put_us.p50", store_put.p(0.5), "us");
  m.add("store.put_us.p99", store_put.p(0.99), "us");
  m.add("store.hit_ratio", safe(double(store_hits), double(store_gets)), "ratio");
  m.add("store.read_errors", double(read_errors), "count");
  m.add("store.log_bytes", double(log_bytes), "B");
  m.add("engine.run_us.p50", engine_run.p(0.5), "us");
  m.add("engine.computed_ratio", computed_ratio, "ratio");
  m.add("engine.coalesced", coalesced, "count");
  m.add("exec.batch_speedup", safe(seq_total, pooled_total), "x");
  m.add("analysis.find_rmt_cut_ms.p50", calls["analysis.find_rmt_cut"].p(0.5) / 1e3, "ms");
  m.add("analysis.find_rmt_cut_ms.p99", calls["analysis.find_rmt_cut"].p(0.99) / 1e3, "ms");
  m.add("analysis.find_rmt_zpp_cut_ms.p50", calls["analysis.find_rmt_zpp_cut"].p(0.5) / 1e3, "ms");
  m.add("analysis.find_rmt_zpp_cut_ms.p99", calls["analysis.find_rmt_zpp_cut"].p(0.99) / 1e3, "ms");
  m.add("analysis.full_knowledge_ms.p50", calls["analysis.full_knowledge"].p(0.5) / 1e3, "ms");
  m.add("analysis.full_knowledge_ms.p99", calls["analysis.full_knowledge"].p(0.99) / 1e3, "ms");
  m.add("analysis.solvable_ratio", safe(double(solvable), double(decided)), "ratio");
  m.add("protocols.run_rmt_us.p50", calls["protocols.run_rmt"].p(0.5), "us");
  m.add("sim.rounds_per_run", safe(double(t1.sim.rounds), double(t1.sim.runs)), "count");
  m.add("sim.honest_messages_per_run", safe(double(t1.sim.honest_messages), double(t1.sim.runs)),
        "count");
  for (const char* layer : {"svc.wire", "io", "svc.key", "svc.cache", "store", "svc.engine",
                            "analysis", "protocols", "other"})
    m.add(std::string("share.") + layer, share(layer), "ratio");
  m.add("traced.req_us", per_req, "us");
  m.add("untraced.req_us", plain_mean, "us");
  m.add("trace.overhead_ratio", safe(per_req, plain_mean), "x");

  std::fprintf(stderr, "traced replay: %llu positions (+%zu warm-up), %zu spans, %.2f s total\n",
               static_cast<unsigned long long>(n), w.warmup.size(), spans.size(),
               us_between(run0, Clock::now()) / 1e6);
  std::fprintf(stderr, "%s\n", composition(w, n).c_str());
  for (const auto& [name, v] : m.rows)
    std::fprintf(stderr, "  %-36s %14.4f %s\n", name.c_str(), v.first, v.second.c_str());
  print_result(true, n + w.warmup.size(), 0, m);
  return 0;
}

}  // namespace perfbench
