// obs/phase.hpp — RMT_PHASE, the one instrumentation primitive.
//
//   void find_rmt_cut(...) {
//     RMT_PHASE("rmt_cut.find");
//     ...
//   }
//
// The scope reads the clock once at entry and once at exit, and feeds that
// one interval to every sink that is switched on:
//  * obs::enabled()   — the global registry histogram "phase.<name>"
//                       (microseconds: the cross-run aggregate the bench
//                       reports export), and the thread's PhaseProfile
//                       collector if one is installed (the per-run
//                       breakdown protocols::Outcome carries);
//  * trace::enabled() — a flight-recorder span. While the scope runs its
//                       span is the thread's current trace context, so
//                       nested phases and pool tasks link to it.
// With both switches off the scope makes two relaxed atomic loads, reads
// no clock and writes nothing — cheap enough for the deciders' entry
// points. The name must be a phase of obs/names.hpp (or start with
// "test."); the compiler checks it.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "obs/trace.hpp"

namespace rmt::obs {

/// Accumulated wall time of one named phase within a profiled region.
struct PhaseStat {
  std::uint64_t count = 0;
  double total_us = 0;
  double max_us = 0;
};

/// name -> accumulated stat. Attached to run outcomes; merged by drivers.
class PhaseProfile {
 public:
  void record(const char* name, double us) {
    PhaseStat& s = phases_[name];
    ++s.count;
    s.total_us += us;
    if (us > s.max_us) s.max_us = us;
  }

  void merge(const PhaseProfile& o) {
    for (const auto& [name, s] : o.phases_) {
      PhaseStat& mine = phases_[name];
      mine.count += s.count;
      mine.total_us += s.total_us;
      if (s.max_us > mine.max_us) mine.max_us = s.max_us;
    }
  }

  bool empty() const { return phases_.empty(); }
  const std::map<std::string, PhaseStat>& phases() const { return phases_; }

 private:
  std::map<std::string, PhaseStat> phases_;
};

namespace detail {
/// The thread's active per-run collector (null when none). Exposed only
/// for ScopedCollector/Phase.
PhaseProfile*& current_profile();
}  // namespace detail

/// RAII: routes this thread's phase timings into `profile` (in addition
/// to the global registry) until destruction. Nest-safe: restores the
/// previous collector on exit.
class ScopedCollector {
 public:
  explicit ScopedCollector(PhaseProfile& profile)
      : prev_(detail::current_profile()) {
    detail::current_profile() = &profile;
  }
  ~ScopedCollector() { detail::current_profile() = prev_; }
  ScopedCollector(const ScopedCollector&) = delete;
  ScopedCollector& operator=(const ScopedCollector&) = delete;

 private:
  PhaseProfile* prev_;
};

/// The object RMT_PHASE plants. `name` must outlive the scope (the macro
/// passes a string literal).
class Phase {
 public:
  explicit Phase(const char* name);
  ~Phase();
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  const char* name_;
  bool timed_;
  bool traced_;
  trace::TraceContext parent_;  ///< restored at exit
  trace::TraceContext self_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace rmt::obs

#define RMT_OBS_CONCAT_INNER(a, b) a##b
#define RMT_OBS_CONCAT(a, b) RMT_OBS_CONCAT_INNER(a, b)
/// Time and trace the enclosing scope as phase `name` (a literal).
#define RMT_PHASE(name)                                   \
  ::rmt::obs::Phase RMT_OBS_CONCAT(rmt_phase_, __LINE__)( \
      ::rmt::obs::checked_name(name, ::rmt::obs::NameKind::phase))
