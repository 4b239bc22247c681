// obs/metrics.hpp — the observability core: named, label-tagged metrics.
//
// Four metric kinds cover everything the experiments report:
//   * Counter   — monotone event count (messages routed, oracle queries);
//   * Gauge     — last-written level (live instances, current round);
//   * Histogram — value distribution over fixed log-scale buckets, with
//                 percentile estimation (phase latencies, payload sizes);
//   * Summary   — the existing OnlineStats (util/stats.hpp) under a name.
//
// Metrics live in a Registry keyed by (name, labels). The global()
// registry is what the RMT_PHASE scopes and the simulator feed;
// drivers snapshot it (obs/json.hpp) into machine-readable reports.
//
// Cost model: observability is *globally disabled by default*. Every
// instrumentation site guards on obs::enabled() — one relaxed atomic
// load — so the fault-free hot paths pay nothing measurable when the
// feature is off. Metric objects themselves use relaxed atomics, so a
// handle obtained once can be bumped from hot loops without locking;
// the registry mutex is touched only on lookup/registration.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace rmt::obs {

/// Global observability switch. Off by default; experiment drivers and the
/// CLI flip it on before the runs they want measured.
bool enabled();
void set_enabled(bool on);

/// Labels attach dimensions to a metric name ("protocol" -> "zcpa").
/// Sorted on construction so label order never splits a series.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t by = 1) { v_.fetch_add(by, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  /// Fold another counter in (totals add).
  void merge(const Counter& o) { inc(o.value()); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  /// Gauges are last-written levels; merging adopts the other's value.
  void merge(const Gauge& o) { set(o.value()); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-scale histogram: bucket i counts observations in (2^(i-1), 2^i]
/// (bucket 0 is [0, 1]). 64 buckets span the full non-negative double
/// range the experiments can produce (nanosecond phases up to hours,
/// byte counts up to exabytes) with ≤ 2x relative quantile error — the
/// right trade for regress-checking latency percentiles across PRs.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  ///< 0 when empty
  double max() const;  ///< 0 when empty
  double mean() const;

  /// Quantile estimate (q in [0,1]) by linear interpolation inside the
  /// selected log bucket. p50/p95/p99 in reports come from here.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// Non-empty buckets as (upper_bound, count) pairs, for export.
  std::vector<std::pair<double, std::uint64_t>> nonzero_buckets() const;

  /// Fold another histogram in: bucket-wise counts add; sum/count add;
  /// min/max widen. Quantiles of the merge equal those of the combined
  /// observation stream (up to the shared bucket resolution). Counts
  /// saturate at 2^64-1 instead of wrapping.
  void merge(const Histogram& o);

 private:
  static std::size_t bucket_of(double v);
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{0.0};
};

/// OnlineStats under a registry name — exact mean/stddev/min/max where
/// the log-bucket resolution of Histogram is too coarse (table cells).
/// Not lock-free; guarded by its own mutex (summary sites are not hot).
class Summary {
 public:
  void observe(double v) {
    std::lock_guard<std::mutex> lock(m_);
    stats_.add(v);
  }
  OnlineStats snapshot() const {
    std::lock_guard<std::mutex> lock(m_);
    return stats_;
  }
  /// Fold another summary in (parallel Welford combination).
  void merge(const Summary& o) {
    const OnlineStats theirs = o.snapshot();  // lock o, then self: no nesting
    std::lock_guard<std::mutex> lock(m_);
    stats_.merge(theirs);
  }

 private:
  mutable std::mutex m_;
  OnlineStats stats_;
};

/// Owns all metrics. Lookup registers on first use; returned references
/// stay valid for the registry's lifetime (metrics are never removed).
class Registry {
 public:
  /// The process-wide registry all built-in instrumentation feeds.
  static Registry& global();

  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Histogram& histogram(const std::string& name, Labels labels = {});
  Summary& summary(const std::string& name, Labels labels = {});

  /// Drop every metric (a fresh slate between bench sections).
  void reset();

  /// Fold every metric of `other` into this registry (get-or-create by
  /// (name, labels), then kind-wise merge: counters/histograms/summaries
  /// add, gauges adopt the other's level). This is how per-worker sinks
  /// combine into an aggregate without contending on one registry from
  /// hot loops: workers feed private registries, the owner concatenates
  /// them once at a shard/phase boundary. A name registered with a
  /// different kind on the two sides is an error.
  void merge_from(const Registry& other);

  /// One metric at snapshot time, for export and tests.
  struct Entry {
    enum class Kind { kCounter, kGauge, kHistogram, kSummary };
    std::string name;
    Labels labels;
    Kind kind;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
    const Summary* summary = nullptr;
  };

  /// Stable order: by name, then labels.
  std::vector<Entry> entries() const;

 private:
  struct Key {
    std::string name;
    Labels labels;
    bool operator<(const Key& o) const {
      return name != o.name ? name < o.name : labels < o.labels;
    }
  };
  struct Slot {
    Entry::Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<Summary> summary;
  };

  Slot& slot(const std::string& name, Labels&& labels, Entry::Kind kind);

  mutable std::mutex m_;
  std::map<Key, Slot> metrics_;
};

}  // namespace rmt::obs
