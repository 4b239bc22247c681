#include "exec/thread_pool.hpp"

#include <algorithm>
#include <exception>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"

namespace rmt::exec {

namespace {

/// The pool whose worker is running the current thread (null elsewhere).
/// Lets the parallel loops detect nesting and run inline instead of
/// submitting to a pool that is blocked waiting on them.
thread_local const ThreadPool* t_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  RMT_REQUIRE(threads >= 1, "ThreadPool: needs at least one worker");
  queues_.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) queues_.push_back(std::make_unique<WorkerQueue>());
  workers_.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::on_worker_thread() const { return t_worker_pool == this; }

void ThreadPool::submit(std::function<void()> task) {
  RMT_REQUIRE(task != nullptr, "ThreadPool::submit: null task");
  // Request-scoped tracing crosses the pool boundary here: capture the
  // submitting thread's context and re-enter it on the worker, so spans
  // opened inside the task nest under the owning request rather than
  // starting parentless traces. One relaxed load when tracing is off.
  if (obs::trace::enabled()) {
    if (const obs::trace::TraceContext ctx = obs::trace::current(); ctx.valid()) {
      task = [ctx, inner = std::move(task)] {
        obs::trace::ContextGuard guard(ctx);
        RMT_PHASE("exec.task");
        inner();
      };
    }
  }
  const std::size_t target =
      std::size_t(next_queue_.fetch_add(1, std::memory_order_relaxed)) % queues_.size();
  {
    std::lock_guard<std::mutex> qlock(queues_[target]->m);
    queues_[target]->q.push_back(std::move(task));
  }
  {
    std::lock_guard<std::mutex> lock(m_);
    ++pending_;
  }
  cv_.notify_one();
}

std::optional<std::function<void()>> ThreadPool::try_take(std::size_t self) {
  // Own deque first (FIFO), then steal from the siblings' tails.
  for (std::size_t k = 0; k < queues_.size(); ++k) {
    const std::size_t i = (self + k) % queues_.size();
    WorkerQueue& wq = *queues_[i];
    std::lock_guard<std::mutex> qlock(wq.m);
    if (wq.q.empty()) continue;
    std::function<void()> task;
    if (i == self) {
      task = std::move(wq.q.front());
      wq.q.pop_front();
    } else {
      task = std::move(wq.q.back());
      wq.q.pop_back();
      steals_.fetch_add(1, std::memory_order_relaxed);
    }
    return task;
  }
  return std::nullopt;
}

void ThreadPool::worker_loop(std::size_t self) {
  t_worker_pool = this;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(m_);
      cv_.wait(lock, [&] { return stop_ || pending_ > 0; });
      if (pending_ == 0 && stop_) return;  // drained: every claimed task ran
      --pending_;
    }
    // Holding a claim guarantees a task exists in some deque until we take
    // one — tasks are only removed by claim holders, one task per claim.
    std::optional<std::function<void()>> task;
    while (!(task = try_take(self))) {
    }
    // Count before running: anyone who synchronises on a task's side
    // effects (a completion condvar, parallel_for's wait) then reads a
    // settled counter — the increment happens-before the effects they saw.
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    (*task)();
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(m_);
    s.queue_depth = pending_;
  }
  return s;
}

void ThreadPool::publish_stats() {
  if (!obs::enabled()) return;
  const Stats s = stats();
  std::lock_guard<std::mutex> lock(publish_m_);
  obs::Registry& reg = obs::Registry::global();
  if (s.tasks_executed > published_tasks_)
    reg.counter("exec.tasks").inc(s.tasks_executed - published_tasks_);
  if (s.steals > published_steals_) reg.counter("exec.steals").inc(s.steals - published_steals_);
  published_tasks_ = s.tasks_executed;
  published_steals_ = s.steals;
  reg.gauge("exec.queue_depth").set(double(s.queue_depth));
}

std::size_t ThreadPool::hardware_concurrency() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t suggest_grain(std::size_t total, const ThreadPool* pool) {
  if (total == 0) return 1;
  if (pool == nullptr || pool->num_workers() <= 1) return total;
  return std::max<std::size_t>(1, total / (8 * pool->num_workers()));
}

void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t n = end - begin;
  if (pool == nullptr || pool->num_workers() <= 1 || n <= grain || pool->on_worker_thread()) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  const std::size_t chunks = (n + grain - 1) / grain;
  std::vector<std::exception_ptr> errors(chunks);
  std::mutex done_m;
  std::condition_variable done_cv;
  std::size_t remaining = chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    pool->submit([&, c] {
      const std::size_t lo = begin + c * grain;
      const std::size_t hi = std::min(end, lo + grain);
      try {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        errors[c] = std::current_exception();
      }
      // Notify under the lock: done_cv lives on the waiter's stack, and the
      // waiter may destroy it the moment it can observe remaining == 0. With
      // the mutex held the waiter cannot return from wait() until this
      // signaler has released it, which keeps the condvar alive through
      // notify_one.
      std::lock_guard<std::mutex> lock(done_m);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(done_m);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
  // Deterministic error selection: the lowest-index failing chunk wins.
  for (std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace rmt::exec
