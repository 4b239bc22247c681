// bench_trace — the tracing-cost acceptance bench: what an RMT_PHASE scope
// costs when tracing is off (the price every decider entry point pays,
// always) and when it is on (the price of a live flight recorder), plus
// the end-to-end decider ratio with tracing on vs. off.
//
// Unlike the timing columns elsewhere, `within_budget` is a hard gate in
// both directions: the driver RMT_CHECKs it and tools/check_bench_json.py
// refuses a BENCH_trace.json with any row not literally true. The budgets
// are deliberately loose — absolute nanosecond ceilings for the span
// rows and a generous on/off ratio for the decider row — so the gate
// catches "tracing became a lock fight", not scheduler noise:
//   span-idle   — per-scope cost with tracing and obs both off; budget
//                 100 ns (an out-of-line constructor and destructor, one
//                 relaxed atomic load per switch, no clock read);
//   span-live   — per-scope cost with tracing on and obs off; budget
//                 5000 ns (two id draws, two clock reads, the record built
//                 at exit and a batched flush into the ring);
//   decider-off — best-of-kReps find_rmt_cut, tracing off (the baseline);
//   decider-on  — the same with tracing on; budget: <= 3x decider-off.
#include <cstddef>
#include <string>

#include "analysis/rmt_cut.hpp"
#include "bench_util.hpp"
#include "obs/phase.hpp"

namespace {

using namespace rmt;

inline constexpr int kReps = 5;
inline constexpr std::size_t kIdleSpans = 1000000;
inline constexpr std::size_t kLiveSpans = 200000;
inline constexpr double kIdleSpanBudgetNs = 100.0;
inline constexpr double kLiveSpanBudgetNs = 5000.0;
inline constexpr double kDeciderRatioBudget = 3.0;

template <typename F>
double best_us(F&& f) {
  double best = 0;
  for (int i = 0; i < kReps; ++i) {
    const double us = rmt::bench::time_us(f);
    if (i == 0 || us < best) best = us;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rmt;
  using namespace rmt::bench;

  Reporter rep(argc, argv, "bench_trace");
  rep.columns({"row", "iters", "total_us", "per_span_ns", "ratio", "within_budget"});

  // ---- Per-span cost, tracing off -------------------------------------
  // The span rows time RMT_PHASE as rmt_serve runs it, with obs off; the
  // Reporter turned obs on for the decider rows' phase histograms.
  obs::set_enabled(false);
  obs::trace::set_enabled(false);
  const double idle_us = best_us([] {
    for (std::size_t i = 0; i < kIdleSpans; ++i) { RMT_PHASE("svc.batch"); }
  });
  const double idle_ns = idle_us * 1000.0 / double(kIdleSpans);
  const bool idle_ok = idle_ns <= kIdleSpanBudgetNs;
  rep.row({"span-idle", std::uint64_t(kIdleSpans), idle_us, idle_ns, 0.0, idle_ok});

  // ---- Per-span cost, tracing on --------------------------------------
  obs::trace::set_enabled(true);
  obs::trace::Recorder::global().clear();
  const double live_us = best_us([] {
    for (std::size_t i = 0; i < kLiveSpans; ++i) { RMT_PHASE("svc.batch"); }
  });
  obs::trace::set_enabled(false);
  obs::set_enabled(true);
  const double live_ns = live_us * 1000.0 / double(kLiveSpans);
  const bool live_ok = live_ns <= kLiveSpanBudgetNs;
  rep.row({"span-live", std::uint64_t(kLiveSpans), live_us, live_ns, 0.0, live_ok});

  // ---- End-to-end decider, tracing off vs. on -------------------------
  // A fig_f4 shape with no cut: the decider traverses the whole subset
  // space, so the RMT_PHASE at its entry runs against real work.
  const std::size_t n = 18;
  const Graph g = generators::cycle_graph(n);
  const Instance inst = Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, NodeId(n / 2));

  const double decider_off_us = best_us([&] { (void)analysis::find_rmt_cut(inst); });
  rep.row({"decider-off", std::uint64_t(kReps), decider_off_us, 0.0, 1.0, true});

  obs::trace::set_enabled(true);
  obs::trace::Recorder::global().clear();
  const double decider_on_us = best_us([&] { (void)analysis::find_rmt_cut(inst); });
  const double ratio = decider_off_us > 0 ? decider_on_us / decider_off_us : 0.0;
  const bool ratio_ok = ratio <= kDeciderRatioBudget;
  rep.row({"decider-on", std::uint64_t(kReps), decider_on_us, 0.0, ratio, ratio_ok});

  rep.finish("TRACE — span overhead and decider on/off ratio (hard budgets)");
  RMT_CHECK(idle_ok, "bench_trace: idle span costs " + fmt::fixed(idle_ns, 1) +
                         "ns, budget " + fmt::fixed(kIdleSpanBudgetNs, 0) + "ns");
  RMT_CHECK(live_ok, "bench_trace: live span costs " + fmt::fixed(live_ns, 1) +
                         "ns, budget " + fmt::fixed(kLiveSpanBudgetNs, 0) + "ns");
  RMT_CHECK(ratio_ok, "bench_trace: tracing slows the decider " + fmt::fixed(ratio, 2) +
                          "x, budget " + fmt::fixed(kDeciderRatioBudget, 1) + "x");
  return 0;
}
