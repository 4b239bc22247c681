#include "svc/engine.hpp"

#include <chrono>
#include <exception>

#include "analysis/feasibility.hpp"
#include "analysis/rmt_cut.hpp"
#include "analysis/zpp_cut.hpp"
#include "exec/campaign.hpp"
#include "exec/thread_pool.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "protocols/rmt_pka.hpp"
#include "protocols/runner.hpp"
#include "sim/strategies.hpp"
#include "util/check.hpp"

namespace rmt::svc {

namespace {

using Clock = std::chrono::steady_clock;

/// The instance memo's share of the result cache budget.
constexpr std::size_t kMemoBudgetDivisor = 64;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Put `key` on `resp` and, when tracing, a fresh root context; returns the
/// root span's start (0 when not tracing).
std::uint64_t begin_response(const InstanceKey& key, bool tracing, Response& resp) {
  resp.key = key.to_hex();
  if (!tracing) return 0;
  const obs::trace::TraceContext ctx = obs::trace::new_root_context();
  resp.trace_id = ctx.trace_id;
  resp.root_span = ctx.span_id;
  return obs::trace::now_ns();
}

/// Emit `resp`'s "svc.request" root span, begun at `start_ns`. cache_tag:
/// "hit" / "disk" / "miss" / "bypass" (no_cache) / "none" (rejected before
/// lookup); join_tag: "batch" / "inflight" / null (owned leader).
void emit_root(const Request& req, const Response& resp, std::uint64_t start_ns,
               const char* cache_tag, const char* join_tag) {
  obs::trace::SpanRecord rec;
  rec.trace_id = resp.trace_id;
  rec.span_id = resp.root_span;
  rec.set_name(RMT_TRACE_NAME("svc.request"));
  rec.start_ns = start_ns;
  rec.end_ns = obs::trace::now_ns();
  rec.add_attr("kind", to_string(req.kind));
  rec.add_attr("status", to_string(resp.status));
  rec.add_attr("cache", cache_tag);
  if (join_tag != nullptr) rec.add_attr("join", join_tag);
  rec.add_attr("coalesced", resp.coalesced);
  rec.add_attr("bytes", std::uint64_t(resp.result.size()));
  obs::trace::emit(rec);
}

void write_witness(obs::json::Writer& w, const NodeSet& c1, const NodeSet& c2,
                   const NodeSet& b) {
  w.begin_object();
  w.field("c1", c1.to_string());
  w.field("c2", c2.to_string());
  w.field("b", b.to_string());
  w.end_object();
}

}  // namespace

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kDecideRmt: return "decide_rmt";
    case QueryKind::kDecideZpp: return "decide_zpp";
    case QueryKind::kAnalyze: return "analyze";
    case QueryKind::kSimulate: return "simulate";
  }
  return "unknown";
}

const char* to_string(Response::Status status) {
  switch (status) {
    case Response::Status::kOk: return "ok";
    case Response::Status::kDeadlineExceeded: return "deadline_exceeded";
    case Response::Status::kError: return "error";
  }
  return "unknown";
}

std::string format_analyze_result(const analysis::Analysis& a) {
  obs::json::Writer w;
  w.begin_object();
  w.field("kind", to_string(QueryKind::kAnalyze));
  w.field("rmt_solvable", !a.rmt_cut.has_value());
  w.key("rmt_cut_witness");
  if (a.rmt_cut) write_witness(w, a.rmt_cut->c1, a.rmt_cut->c2, a.rmt_cut->b);
  else w.null();
  w.field("zcpa_solvable", a.zcpa_solvable);
  w.field("full_knowledge_solvable", a.full_knowledge_solvable);
  w.end_object();
  return w.take();
}

std::optional<QueryKind> parse_query_kind(const std::string& name) {
  if (name == "decide_rmt") return QueryKind::kDecideRmt;
  if (name == "decide_zpp") return QueryKind::kDecideZpp;
  if (name == "analyze") return QueryKind::kAnalyze;
  if (name == "simulate") return QueryKind::kSimulate;
  return std::nullopt;
}

struct Engine::Inflight {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  Response::Status status = Response::Status::kOk;
  std::string result;
  std::string error;
  /// The owner's "svc.compute" span id (0 when tracing was off or the
  /// computation never started); joiners' "svc.join" spans reference it.
  std::uint64_t compute_span = 0;
};

Engine::Engine(exec::ThreadPool* pool) : Engine(pool, Options{}) {}

Engine::Engine(exec::ThreadPool* pool, Options opts)
    : pool_(pool),
      opts_(opts),
      cache_(opts.cache),
      memo_(opts.cache.max_bytes / kMemoBudgetDivisor) {
  // The disk tier opens (and recovers) eagerly: a hostile store file
  // rejects at construction, not on the first served request.
  if (!opts_.store.dir.empty()) store_ = std::make_unique<store::Store>(opts_.store);
}

std::string Engine::composite_key(const Request& req, const InstanceKey& key) const {
  std::string out = key.to_hex();
  out += '|';
  out += to_string(req.kind);
  if (req.kind == QueryKind::kSimulate) {
    const SimParams& p = req.params;
    const std::uint64_t seed =
        p.seed ? *p.seed : exec::derive_seed(opts_.root_seed, key.lo);
    out += "|corrupt=" + p.corrupted.to_string();
    out += ";max_rounds=" + std::to_string(p.max_rounds);
    out += ";seed=" + std::to_string(seed);
    out += ";strategy=" + p.strategy;
    out += ";value=" + std::to_string(p.value);
  }
  return out;
}

std::string Engine::compute(const Request& req, const InstanceKey& key) const {
  const Instance& inst = req.instance.get();  // a memo hit's text parses here, once
  if (req.kind == QueryKind::kAnalyze) return format_analyze_result(analysis::analyze(inst));
  obs::json::Writer w;
  w.begin_object();
  w.field("kind", to_string(req.kind));
  switch (req.kind) {
    case QueryKind::kDecideRmt: {
      const auto cut = analysis::find_rmt_cut(inst);
      w.field("solvable", !cut.has_value());
      w.key("witness");
      if (cut) write_witness(w, cut->c1, cut->c2, cut->b);
      else w.null();
      break;
    }
    case QueryKind::kDecideZpp: {
      const auto cut = analysis::find_rmt_zpp_cut(inst);
      w.field("solvable", !cut.has_value());
      w.key("witness");
      if (cut) write_witness(w, cut->c1, cut->c2, cut->b);
      else w.null();
      break;
    }
    case QueryKind::kAnalyze:  // formatted above
      break;
    case QueryKind::kSimulate: {
      const SimParams& p = req.params;
      if (!inst.admissible_corruption(p.corrupted))
        throw std::invalid_argument("corruption set " + p.corrupted.to_string() +
                                    " is not admissible under Z");
      const std::uint64_t seed =
          p.seed ? *p.seed : exec::derive_seed(opts_.root_seed, key.lo);
      const auto strategy = sim::make_strategy(p.strategy, seed);
      const protocols::Outcome out = protocols::run_rmt(
          inst, protocols::RmtPka{}, p.value, p.corrupted, strategy.get(), p.max_rounds);
      w.field("value", p.value);
      w.field("corrupted", p.corrupted.to_string());
      w.field("strategy", p.strategy);
      w.field("seed", seed);
      w.key("decision");
      if (out.decision) w.value(std::uint64_t(*out.decision));
      else w.null();
      w.field("correct", out.correct);
      w.field("wrong", out.wrong);
      w.field("rounds", std::uint64_t(out.stats.rounds));
      w.field("honest_messages", std::uint64_t(out.stats.honest_messages));
      break;
    }
  }
  w.end_object();
  return w.take();
}

bool Engine::answer_hit(const Request& req, const std::string& ckey, bool count_miss,
                        Clock::time_point t0, std::uint64_t start_ns, Response& resp) {
  std::optional<std::string> hit = count_miss ? cache_.get(ckey) : cache_.try_get(ckey);
  if (!hit) return false;
  resp.status = Response::Status::kOk;
  resp.result = std::move(*hit);
  resp.cached = true;
  resp.wall_us = us_since(t0);
  if (resp.trace_id != 0) emit_root(req, resp, start_ns, "hit", nullptr);
  return true;
}

std::optional<Response> Engine::lookup(const Request& req) {
  if (req.no_cache || req.deadline_ms) return std::nullopt;
  const Clock::time_point t0 = Clock::now();
  const InstanceKey key = req.instance.key();
  Response resp;
  const std::uint64_t start_ns = begin_response(key, obs::trace::enabled(), resp);
  if (!answer_hit(req, composite_key(req, key), /*count_miss=*/false, t0, start_ns, resp))
    return std::nullopt;
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (obs::enabled()) obs::Registry::global().histogram("svc.request_us").observe(resp.wall_us);
  return resp;
}

std::vector<Response> Engine::run(const std::vector<Request>& requests) {
  RMT_OBS_SCOPE("svc.batch");
  RMT_TRACE_SPAN("svc.batch");
  const Clock::time_point t0 = Clock::now();
  const auto elapsed_ms = [&t0] {
    return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  };

  const std::size_t n = requests.size();
  requests_.fetch_add(n, std::memory_order_relaxed);
  std::vector<Response> out(n);

  // Request-scoped tracing: each request gets a fresh root context in the
  // pre-pass; the root "svc.request" span is emitted when its response is
  // final (timestamps are captured eagerly, records lazily).
  const bool tracing = obs::trace::enabled();
  std::vector<std::uint64_t> start_ns(n);
  bool any_deadline = false;

  // A unit of computation: the first request of each composite key leads;
  // in-batch duplicates follow; a key another batch is already computing
  // is joined instead of claimed.
  struct Job {
    std::size_t leader = 0;
    std::vector<std::size_t> followers;
    std::shared_ptr<Inflight> slot;
    InstanceKey ikey;        ///< computed once in the pre-pass
    std::string ckey;        ///< composite cache key, ditto
    bool owner = false;      ///< this batch computes the slot
    bool store = false;      ///< any attached request allows caching
    double start_ms = -1;    ///< compute start (owner jobs; -1 = never ran)
    double claim_ms = 0;     ///< when the key was claimed/joined
    obs::trace::TraceContext ctx;  ///< leader's root context (tracing only)
  };
  std::vector<Job> jobs;
  std::unordered_map<std::string, std::size_t> job_of_key;

  // Pre-pass (caller thread): reject expired, serve cache hits, group the
  // rest by composite key and claim/join the in-flight slot per group.
  for (std::size_t i = 0; i < n; ++i) {
    const Request& req = requests[i];
    const InstanceKey key = req.instance.key();
    start_ns[i] = begin_response(key, tracing, out[i]);
    if (req.deadline_ms && elapsed_ms() >= double(*req.deadline_ms)) {
      out[i].status = Response::Status::kDeadlineExceeded;
      out[i].wall_us = us_since(t0);
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      if (tracing) {
        any_deadline = true;
        emit_root(req, out[i], start_ns[i], "none", nullptr);
      }
      continue;
    }
    const std::string ckey = composite_key(req, key);
    if (!req.no_cache) {
      if (answer_hit(req, ckey, /*count_miss=*/true, t0, start_ns[i], out[i])) continue;
      // Memory missed: consult the disk tier. A verified disk hit is
      // promoted into the memory cache so the next asker skips the read.
      if (store_) {
        if (std::optional<std::string> hit = store_->get(ckey)) {
          cache_.put(ckey, *hit);
          out[i].status = Response::Status::kOk;
          out[i].result = std::move(*hit);
          out[i].cached = true;
          out[i].wall_us = us_since(t0);
          disk_hits_.fetch_add(1, std::memory_order_relaxed);
          if (tracing) emit_root(req, out[i], start_ns[i], "disk", nullptr);
          continue;
        }
      }
    }
    if (const auto it = job_of_key.find(ckey); it != job_of_key.end()) {
      jobs[it->second].followers.push_back(i);
      jobs[it->second].store = jobs[it->second].store || !req.no_cache;
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    Job job;
    job.leader = i;
    job.ikey = key;
    job.ckey = ckey;
    job.store = !req.no_cache;
    job.claim_ms = elapsed_ms();
    if (tracing) job.ctx = obs::trace::TraceContext{out[i].trace_id, out[i].root_span};
    {
      std::lock_guard<std::mutex> lock(inflight_m_);
      if (const auto inflight_it = inflight_.find(ckey); inflight_it != inflight_.end()) {
        job.slot = inflight_it->second;  // join the other batch's computation
        inflight_joins_.fetch_add(1, std::memory_order_relaxed);
      } else {
        job.slot = std::make_shared<Inflight>();
        job.owner = true;
        inflight_.emplace(ckey, job.slot);
      }
    }
    job_of_key.emplace(ckey, jobs.size());
    jobs.push_back(std::move(job));
  }

  // Owned jobs run on the pool, one task each (requests are the batching
  // unit; each computation is itself sequential and deterministic).
  std::vector<std::size_t> owned;
  for (std::size_t j = 0; j < jobs.size(); ++j)
    if (jobs[j].owner) owned.push_back(j);
  exec::parallel_for(pool_, 0, owned.size(), 1, [&](std::size_t k) {
    Job& job = jobs[owned[k]];
    const Request& req = requests[job.leader];
    // Compute under the leader's root context so the "svc.compute" span —
    // and every decider phase span inside it — nests under the owning
    // request even when this task landed on a pool worker.
    obs::trace::ContextGuard trace_guard(job.ctx);
    job.start_ms = elapsed_ms();
    // Reject-before-start: compute only if some attached request is still
    // inside its deadline; a running decider is never killed afterwards.
    const auto live_at_start = [&](std::size_t idx) {
      return !requests[idx].deadline_ms ||
             job.start_ms < double(*requests[idx].deadline_ms);
    };
    bool any_live = live_at_start(job.leader);
    for (std::size_t f : job.followers) any_live = any_live || live_at_start(f);
    Inflight& slot = *job.slot;
    std::string result, error;
    Response::Status status = Response::Status::kOk;
    std::uint64_t compute_span = 0;
    if (any_live) {
      RMT_OBS_SCOPE("svc.compute");
      RMT_TRACE_SPAN("svc.compute");
      compute_span = obs::trace::current().span_id;
      try {
        result = compute(req, job.ikey);
        computed_.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception& e) {
        status = Response::Status::kError;
        error = e.what();
      }
    } else {
      status = Response::Status::kDeadlineExceeded;
    }
    {
      std::lock_guard<std::mutex> lock(slot.m);
      slot.status = status;
      slot.result = result;
      slot.error = error;
      slot.compute_span = compute_span;
      slot.done = true;
    }
    slot.cv.notify_all();
    if (status == Response::Status::kOk && job.store) {
      cache_.put(job.ckey, result);
      if (store_) {
        // Write-back through the disk tier too (runs on a pool worker;
        // the store is internally locked). A full or failing disk must
        // not poison an answer that was already computed and served.
        try {
          store_->put(job.ckey, result);
        } catch (const std::exception&) {
        }
      }
    }
  });

  // Fill phase: joined slots may still be computing in another batch —
  // the caller thread waits for them here (never a pool worker, see the
  // header contract).
  for (Job& job : jobs) {
    Inflight& slot = *job.slot;
    {
      std::unique_lock<std::mutex> lock(slot.m);
      slot.cv.wait(lock, [&slot] { return slot.done; });
    }
    const double start_ms = job.owner ? job.start_ms : job.claim_ms;
    const auto fill = [&](std::size_t idx, bool is_leader) {
      const Request& req = requests[idx];
      Response& resp = out[idx];
      if (slot.status == Response::Status::kDeadlineExceeded ||
          (req.deadline_ms && start_ms >= double(*req.deadline_ms))) {
        resp.status = Response::Status::kDeadlineExceeded;
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        any_deadline = true;
      } else if (slot.status == Response::Status::kError) {
        resp.status = Response::Status::kError;
        resp.error = slot.error;
        errors_.fetch_add(1, std::memory_order_relaxed);
      } else {
        resp.status = Response::Status::kOk;
        resp.result = slot.result;
        resp.coalesced = !(job.owner && is_leader);
      }
      resp.wall_us = us_since(t0);
    };
    fill(job.leader, true);
    for (std::size_t f : job.followers) fill(f, false);

    if (tracing) {
      // Coalescing is explicit in the trace: every request that shared
      // the computation gets a "svc.join" span (child of its own root)
      // referencing the leader's compute span — in-batch followers and
      // cross-batch inflight joiners alike. Joins close before roots so
      // intervals nest.
      const std::uint64_t leader_target =
          slot.compute_span != 0 ? slot.compute_span : out[job.leader].root_span;
      const auto emit_join = [&](std::size_t idx) {
        obs::trace::SpanRecord rec;
        rec.trace_id = out[idx].trace_id;
        rec.span_id = obs::trace::next_id();
        rec.parent_span_id = out[idx].root_span;
        rec.set_name(RMT_TRACE_NAME("svc.join"));
        rec.join_span_id = leader_target;
        rec.start_ns = start_ns[idx];
        rec.end_ns = obs::trace::now_ns();
        obs::trace::emit(rec);
      };
      if (!job.owner) emit_join(job.leader);
      for (std::size_t f : job.followers) emit_join(f);
      const auto cache_tag = [&](std::size_t idx) {
        return requests[idx].no_cache ? "bypass" : "miss";
      };
      emit_root(requests[job.leader], out[job.leader], start_ns[job.leader],
                cache_tag(job.leader), job.owner ? nullptr : "inflight");
      for (std::size_t f : job.followers)
        emit_root(requests[f], out[f], start_ns[f], cache_tag(f), "batch");
    }
  }

  // Release owned slots only after their results are filled everywhere;
  // a future batch then starts fresh (and will hit the cache instead).
  {
    std::lock_guard<std::mutex> lock(inflight_m_);
    for (const auto& [ckey, j] : job_of_key)
      if (jobs[j].owner) inflight_.erase(ckey);
  }

  if (obs::enabled()) {
    obs::Histogram& h = obs::Registry::global().histogram("svc.request_us");
    for (const Response& resp : out) h.observe(resp.wall_us);
  }
  // Flight-recorder dump on deadline_exceeded: when a dump path is
  // configured (rmt_serve --trace-out), the spans leading up to a missed
  // deadline are preserved for post-mortem before the ring overwrites
  // them. No-op otherwise.
  if (tracing && any_deadline) obs::trace::Recorder::global().dump_now("deadline_exceeded");
  return out;
}

Engine::Stats Engine::stats() const {
  Stats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.computed = computed_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  s.inflight_joins = inflight_joins_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  return s;
}

void Engine::publish_stats() {
  cache_.publish_stats();
  if (store_) store_->publish_stats();
  if (!obs::enabled()) return;
  const Stats now = stats();
  std::lock_guard<std::mutex> lock(publish_m_);
  obs::Registry& reg = obs::Registry::global();
  reg.counter("svc.requests").inc(now.requests - published_.requests);
  reg.counter("svc.computed").inc(now.computed - published_.computed);
  reg.counter("svc.coalesced").inc(now.coalesced - published_.coalesced);
  reg.counter("svc.inflight_joins").inc(now.inflight_joins - published_.inflight_joins);
  reg.counter("svc.deadline_exceeded").inc(now.deadline_exceeded - published_.deadline_exceeded);
  reg.counter("svc.errors").inc(now.errors - published_.errors);
  reg.counter("svc.disk_hits").inc(now.disk_hits - published_.disk_hits);
  published_ = now;
  const InstanceMemo::Stats memo = memo_.stats();
  reg.counter("svc.memo.hits").inc(memo.hits - published_memo_.hits);
  reg.counter("svc.memo.misses").inc(memo.misses - published_memo_.misses);
  reg.counter("svc.memo.evictions").inc(memo.evictions - published_memo_.evictions);
  reg.gauge("svc.memo.bytes").set(double(memo.bytes));
  reg.gauge("svc.memo.entries").set(double(memo.entries));
  published_memo_ = memo;
}

}  // namespace rmt::svc
