// Tests for the observability core (obs/metrics.hpp, obs/phase.hpp):
// metric kinds, the registry, histogram percentiles against known
// distributions, and the scoped phase timers feeding run profiles.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "graph/generators.hpp"
#include "obs/phase.hpp"
#include "protocols/runner.hpp"
#include "protocols/zcpa.hpp"

namespace rmt::obs {
namespace {

/// RAII: turns observability on for one test and restores the default.
struct EnabledGuard {
  EnabledGuard() { set_enabled(true); }
  ~EnabledGuard() { set_enabled(false); }
};

TEST(ObsCounter, AccumulatesAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsGauge, KeepsLastWrite) {
  Gauge g;
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(ObsHistogram, EmptyIsAllZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.p50(), 0.0);
  EXPECT_DOUBLE_EQ(h.p99(), 0.0);
}

TEST(ObsHistogram, ExactStatsAreExact) {
  // count/sum/min/max do not go through buckets, so they are exact.
  Histogram h;
  for (double v : {3.0, 100.0, 7.5, 0.25}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 110.75);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 110.75 / 4);
}

TEST(ObsHistogram, QuantilesOnUniformDistribution) {
  // 1..1000 uniformly: log buckets give ≤ 2x relative error; check the
  // standard report percentiles against the exact order statistics.
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(double(i));
  EXPECT_NEAR(h.p50(), 500.0, 500.0);     // within one bucket (512's bucket spans 256..512)
  EXPECT_GE(h.p50(), 250.0);
  EXPECT_LE(h.p50(), 1000.0);
  EXPECT_GE(h.p95(), 475.0);              // ≥ half the true value 950
  EXPECT_LE(h.p95(), 1000.0);             // clamped to the observed max
  EXPECT_GE(h.p99(), 495.0);
  EXPECT_LE(h.p99(), 1000.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.quantile(0.1), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  EXPECT_LE(h.quantile(0.9), h.quantile(1.0));
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1000.0);
}

TEST(ObsHistogram, QuantilesOnConstantDistribution) {
  // All mass at one value: every percentile must report that value
  // exactly (the interpolation clamps to [min, max]).
  Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(37.0);
  EXPECT_DOUBLE_EQ(h.p50(), 37.0);
  EXPECT_DOUBLE_EQ(h.p95(), 37.0);
  EXPECT_DOUBLE_EQ(h.p99(), 37.0);
}

TEST(ObsHistogram, QuantilesOnBimodalDistribution) {
  // 90 fast observations (~2us) and 10 slow (~5000us): p50 must report
  // the fast mode, p99 the slow one — the whole point of percentiles.
  Histogram h;
  for (int i = 0; i < 90; ++i) h.observe(2.0);
  for (int i = 0; i < 10; ++i) h.observe(5000.0);
  EXPECT_LE(h.p50(), 4.0);
  EXPECT_GE(h.p99(), 2500.0);
  EXPECT_LE(h.p99(), 5000.0);
}

TEST(ObsHistogram, SubUnitAndHugeValuesLandInEdgeBuckets) {
  Histogram h;
  h.observe(0.0);
  h.observe(0.5);
  h.observe(1e30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.max(), 1e30);
  const auto buckets = h.nonzero_buckets();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_DOUBLE_EQ(buckets.front().first, 1.0);  // [0,1] bucket
  EXPECT_EQ(buckets.front().second, 2u);
  EXPECT_EQ(buckets.back().second, 1u);
}

TEST(ObsRegistry, SameNameSameMetric) {
  Registry r;
  r.counter("x").inc();
  r.counter("x").inc();
  EXPECT_EQ(r.counter("x").value(), 2u);
  EXPECT_EQ(r.entries().size(), 1u);
}

TEST(ObsRegistry, LabelsSplitSeriesOrderInsensitively) {
  Registry r;
  r.counter("msgs", {{"proto", "zcpa"}, {"kind", "honest"}}).inc();
  r.counter("msgs", {{"kind", "honest"}, {"proto", "zcpa"}}).inc();  // same series
  r.counter("msgs", {{"proto", "cpa"}, {"kind", "honest"}}).inc();
  EXPECT_EQ(r.counter("msgs", {{"kind", "honest"}, {"proto", "zcpa"}}).value(), 2u);
  EXPECT_EQ(r.entries().size(), 2u);
}

TEST(ObsRegistry, KindMismatchIsAnError) {
  Registry r;
  r.counter("dual");
  EXPECT_THROW(r.gauge("dual"), std::invalid_argument);
}

TEST(ObsRegistry, ResetDropsEverything) {
  Registry r;
  r.counter("a").inc();
  r.histogram("b").observe(1);
  r.reset();
  EXPECT_TRUE(r.entries().empty());
}

TEST(ObsMerge, CounterTotalsAdd) {
  Counter a, b;
  a.inc(5);
  b.inc(37);
  a.merge(b);
  EXPECT_EQ(a.value(), 42u);
  EXPECT_EQ(b.value(), 37u);  // the source is untouched
}

TEST(ObsMerge, GaugeAdoptsOtherLevel) {
  Gauge a, b;
  a.set(1.0);
  b.set(-2.5);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.value(), -2.5);
}

TEST(ObsMerge, HistogramEqualsCombinedStream) {
  // Split one observation stream across two sinks; the merge must report
  // exactly what a single histogram fed the whole stream would.
  Histogram whole, left, right;
  for (int i = 1; i <= 200; ++i) {
    whole.observe(double(i));
    (i % 2 == 0 ? left : right).observe(double(i));
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_DOUBLE_EQ(left.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
  EXPECT_DOUBLE_EQ(left.p50(), whole.p50());
  EXPECT_DOUBLE_EQ(left.p99(), whole.p99());
  EXPECT_EQ(left.nonzero_buckets(), whole.nonzero_buckets());
}

TEST(ObsMerge, EmptyHistogramLeavesTargetAlone) {
  Histogram a, empty;
  a.observe(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.min(), 3.0);  // an empty peer must not widen min to 0
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
}

TEST(ObsMerge, EmptyIntoEmptyHistogramStaysEmpty) {
  Histogram a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.sum(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);  // the empty-report convention holds
  EXPECT_DOUBLE_EQ(a.max(), 0.0);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.p99(), 0.0);
  EXPECT_TRUE(a.nonzero_buckets().empty());
}

TEST(ObsMerge, MergeIntoEmptyHistogramAdoptsTheStream) {
  Histogram a, b;
  b.observe(3.0);
  b.observe(40.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.min(), 3.0);  // not widened down to the empty 0
  EXPECT_DOUBLE_EQ(a.max(), 40.0);
  EXPECT_DOUBLE_EQ(a.sum(), 43.0);
}

TEST(ObsMerge, HistogramCountsSaturateInsteadOfWrapping) {
  // Fibonacci-style cross-merging doubles the counts (roughly) each round,
  // so 200 rounds sail far past 2^64: a wrapping fetch_add would land on
  // an arbitrary small count, saturation must pin every count-like field
  // at 2^64-1 while sum/min/max stay sane.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Histogram a, b;
  a.observe(2.0);
  b.observe(2.0);
  for (int i = 0; i < 200; ++i) {
    a.merge(b);
    b.merge(a);
  }
  EXPECT_EQ(a.count(), kMax);
  EXPECT_EQ(b.count(), kMax);
  ASSERT_EQ(a.nonzero_buckets().size(), 1u);
  EXPECT_EQ(a.nonzero_buckets()[0].second, kMax);  // buckets saturate too
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 2.0);
  EXPECT_DOUBLE_EQ(a.p99(), 2.0);  // quantiles survive the clamped count
}

TEST(ObsMerge, SummaryEmptyIntoEmptyStaysEmpty) {
  Summary a, b;
  a.merge(b);
  EXPECT_EQ(a.snapshot().count(), 0u);
  EXPECT_TRUE(a.snapshot().empty());  // mean() on it stays a precondition error

  // One-sided merges adopt / keep the non-empty stream exactly.
  Summary filled;
  filled.observe(5.0);
  filled.observe(7.0);
  a.merge(filled);
  EXPECT_EQ(a.snapshot().count(), 2u);
  EXPECT_DOUBLE_EQ(a.snapshot().mean(), 6.0);
  Summary empty;
  a.merge(empty);
  EXPECT_EQ(a.snapshot().count(), 2u);
  EXPECT_DOUBLE_EQ(a.snapshot().mean(), 6.0);
}

TEST(ObsMerge, SummaryCombinesWelfordExactly) {
  Summary whole, left, right;
  for (int i = 0; i < 100; ++i) {
    whole.observe(double(i));
    (i < 30 ? left : right).observe(double(i));
  }
  left.merge(right);
  EXPECT_EQ(left.snapshot().count(), whole.snapshot().count());
  EXPECT_DOUBLE_EQ(left.snapshot().mean(), whole.snapshot().mean());
  EXPECT_NEAR(left.snapshot().stddev(), whole.snapshot().stddev(), 1e-9);
}

TEST(ObsMerge, RegistryFoldsPerWorkerSinks) {
  // The per-worker sink pattern: two private registries, one aggregate.
  Registry agg, w1, w2;
  w1.counter("exec.test.tasks").inc(3);
  w2.counter("exec.test.tasks").inc(4);
  w1.gauge("exec.test.depth").set(7.0);
  w1.histogram("exec.test.lat").observe(10.0);
  w2.histogram("exec.test.lat").observe(1000.0);
  w2.summary("exec.test.s").observe(5.0);
  agg.counter("exec.test.tasks").inc(10);  // pre-existing series folds too
  agg.merge_from(w1);
  agg.merge_from(w2);
  EXPECT_EQ(agg.counter("exec.test.tasks").value(), 17u);
  EXPECT_DOUBLE_EQ(agg.gauge("exec.test.depth").value(), 7.0);
  EXPECT_EQ(agg.histogram("exec.test.lat").count(), 2u);
  EXPECT_DOUBLE_EQ(agg.histogram("exec.test.lat").max(), 1000.0);
  EXPECT_EQ(agg.summary("exec.test.s").snapshot().count(), 1u);
  EXPECT_EQ(agg.entries().size(), 4u);
}

TEST(ObsMerge, RegistryKindMismatchIsAnError) {
  Registry agg, w;
  agg.counter("series");
  w.gauge("series").set(1.0);
  EXPECT_THROW(agg.merge_from(w), std::invalid_argument);
}

TEST(ObsMerge, RegistrySelfMergeIsAnError) {
  Registry r;
  r.counter("x").inc();
  EXPECT_THROW(r.merge_from(r), std::invalid_argument);
}

// RMT_PHASE and RMT_TRACE_NAME pass their literal through checked_name,
// which throws, and so fails the build, exactly where is_registered is
// false. The compile-fail ctests obs_names_* check the throw itself.
static_assert(!is_registered("bogus.unregistered", NameKind::phase));
static_assert(!is_registered("bogus.unregistered", NameKind::span));
static_assert(!is_registered("svc.request", NameKind::phase));  // a span, not a phase
static_assert(!is_registered("exec.task", NameKind::span));     // a phase, not a span
static_assert(!is_registered("test.audit_probe", NameKind::span));
static_assert(is_registered("test.audit_probe", NameKind::phase));
static_assert(std::string_view(checked_name("test.audit_probe", NameKind::phase)) ==
              "test.audit_probe");
static_assert([] {
  for (std::size_t i = 0; i < kNames.size(); ++i) {
    if (!is_registered(kNames[i].name, kNames[i].kind)) return false;
    if (i > 0 && !(kNames[i - 1].name < kNames[i].name)) return false;  // sorted, unique
  }
  return true;
}());

TEST(ObsTimer, DisabledScopeRecordsNothing) {
  set_enabled(false);
  PhaseProfile profile;
  {
    ScopedCollector collect(profile);
    RMT_PHASE("test.disabled_phase");
  }
  EXPECT_TRUE(profile.empty());
}

TEST(ObsTimer, EnabledScopeFeedsProfileAndRegistry) {
  EnabledGuard on;
  Registry::global().reset();
  PhaseProfile profile;
  {
    ScopedCollector collect(profile);
    for (int i = 0; i < 3; ++i) {
      RMT_PHASE("test.enabled_phase");
    }
  }
  ASSERT_EQ(profile.phases().count("test.enabled_phase"), 1u);
  EXPECT_EQ(profile.phases().at("test.enabled_phase").count, 3u);
  EXPECT_GE(profile.phases().at("test.enabled_phase").total_us, 0.0);
  EXPECT_EQ(Registry::global().histogram("phase.test.enabled_phase").count(), 3u);
  Registry::global().reset();
}

TEST(ObsTimer, ProfileMergeAccumulates) {
  PhaseProfile a, b;
  a.record("p", 2.0);
  b.record("p", 5.0);
  b.record("q", 1.0);
  a.merge(b);
  EXPECT_EQ(a.phases().at("p").count, 2u);
  EXPECT_DOUBLE_EQ(a.phases().at("p").total_us, 7.0);
  EXPECT_DOUBLE_EQ(a.phases().at("p").max_us, 5.0);
  EXPECT_EQ(a.phases().at("q").count, 1u);
}

TEST(ObsRunner, OutcomeCarriesPhaseProfileWhenEnabled) {
  EnabledGuard on;
  Registry::global().reset();
  const Graph g = generators::path_graph(4);
  const Instance inst = Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, 3);
  const protocols::Outcome out = protocols::run_rmt(inst, protocols::Zcpa{}, 5, NodeSet{});
  EXPECT_TRUE(out.correct);
  ASSERT_FALSE(out.phases.empty());
  EXPECT_EQ(out.phases.phases().count("runner.run_rmt"), 1u);
  EXPECT_GE(out.phases.phases().count("sim.honest_round"), 1u);
  // The simulator totals were folded into the global registry.
  EXPECT_EQ(Registry::global().counter("sim.runs").value(), 1u);
  EXPECT_EQ(Registry::global().counter("sim.honest_messages").value(),
            out.stats.honest_messages);
  Registry::global().reset();
}

TEST(ObsRunner, OutcomeProfileEmptyWhenDisabled) {
  set_enabled(false);
  const Graph g = generators::path_graph(4);
  const Instance inst = Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, 3);
  const protocols::Outcome out = protocols::run_rmt(inst, protocols::Zcpa{}, 5, NodeSet{});
  EXPECT_TRUE(out.correct);
  EXPECT_TRUE(out.phases.empty());
}

TEST(ObsNetworkStats, ExtendedCountersPopulated) {
  const Graph g = generators::path_graph(4);
  const Instance inst = Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, 3);
  const protocols::Outcome out = protocols::run_rmt(inst, protocols::Zcpa{}, 5, NodeSet{});
  EXPECT_GT(out.stats.peak_round_messages, 0u);
  EXPECT_LE(out.stats.peak_round_messages, out.stats.honest_messages);
  EXPECT_EQ(out.stats.adversary_payload_bytes, 0u);  // fault-free run
}

}  // namespace
}  // namespace rmt::obs
