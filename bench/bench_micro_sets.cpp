// bench_micro_sets — microbenchmarks for NodeSet, AdversaryStructure and
// the ⊕ machinery (experiment µB of DESIGN.md). With `--json <path>` the
// per-benchmark timings and the observability snapshot (phase histograms
// of the instrumented ⊕/restrict operations) are also written as an
// rmt.bench/1 artifact.
#include <benchmark/benchmark.h>

#include <vector>

#include "adversary/oplus.hpp"
#include "adversary/threshold.hpp"
#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace rmt;

NodeSet from_mask(std::size_t mask, std::size_t n) {
  NodeSet s;
  for (std::size_t i = 0; i < n; ++i)
    if ((mask >> i) & 1) s.insert(NodeId(i));
  return s;
}

std::vector<NodeSet> random_sets(std::size_t count, std::size_t universe, Rng& rng) {
  std::vector<NodeSet> out;
  for (std::size_t i = 0; i < count; ++i) {
    NodeSet s;
    for (std::size_t v = 0; v < universe; ++v)
      if (rng.chance(0.3)) s.insert(NodeId(v));
    out.push_back(std::move(s));
  }
  return out;
}

void BM_NodeSetUnion(benchmark::State& state) {
  Rng rng(1);
  const auto sets = random_sets(64, std::size_t(state.range(0)), rng);
  std::size_t i = 0;
  for (auto _ : state) {
    NodeSet u = sets[i % 64] | sets[(i + 7) % 64];
    benchmark::DoNotOptimize(u);
    ++i;
  }
}
BENCHMARK(BM_NodeSetUnion)->Arg(64)->Arg(256)->Arg(1024);

void BM_NodeSetSubset(benchmark::State& state) {
  Rng rng(2);
  const auto sets = random_sets(64, std::size_t(state.range(0)), rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sets[i % 64].is_subset_of(sets[(i + 13) % 64]));
    ++i;
  }
}
BENCHMARK(BM_NodeSetSubset)->Arg(64)->Arg(1024);

void BM_StructureContains(benchmark::State& state) {
  Rng rng(3);
  const auto z = AdversaryStructure::from_sets(random_sets(std::size_t(state.range(0)), 48, rng));
  const auto probes = random_sets(64, 48, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.contains(probes[i++ % 64]));
  }
}
BENCHMARK(BM_StructureContains)->Arg(8)->Arg(64)->Arg(512);

void BM_StructureRestrict(benchmark::State& state) {
  Rng rng(4);
  const auto z = AdversaryStructure::from_sets(random_sets(std::size_t(state.range(0)), 48, rng));
  const auto grounds = random_sets(16, 48, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.restricted_to(grounds[i++ % 16]));
  }
}
BENCHMARK(BM_StructureRestrict)->Arg(8)->Arg(64);

void BM_OplusMaterialize(benchmark::State& state) {
  Rng rng(5);
  const std::size_t k = std::size_t(state.range(0));
  const auto a = RestrictedStructure(AdversaryStructure::from_sets(random_sets(k, 24, rng)),
                                     NodeSet::full(24));
  const auto b = RestrictedStructure(AdversaryStructure::from_sets(random_sets(k, 24, rng)),
                                     from_mask(0xffff00, 24));
  for (auto _ : state) {
    benchmark::DoNotOptimize(oplus(a, b));
  }
}
BENCHMARK(BM_OplusMaterialize)->Arg(4)->Arg(16)->Arg(64);

// ---- decider-hot-path shapes (n = 26, the exact-decider cap) -------------
//
// The next benchmark probes the structure at the exact deciders' shapes:
// the antichain is a 2-threshold (276 maximal sets) or a random general
// structure over 26 nodes, and the probes are boundary-sized sets
// (|C| ≈ 2..4). It exercises the support/popcount prefilters on
// AdversaryStructure::contains, the per-node test every cut scan and the
// receiver's cover test run once per member of B.

std::vector<NodeSet> cut_shaped_probes(std::size_t count, std::size_t n, Rng& rng) {
  std::vector<NodeSet> out;
  for (std::size_t i = 0; i < count; ++i) {
    NodeSet s;
    const std::size_t k = 2 + i % 3;
    while (s.size() < k) s.insert(NodeId(rng.index(n)));
    out.push_back(std::move(s));
  }
  return out;
}

void BM_StructureContains26(benchmark::State& state) {
  Rng rng(7);
  const NodeSet players = NodeSet::full(26) - NodeSet{0, 13};
  // range(0) == 0: 2-threshold antichain; 1: random 8×3 general antichain —
  // the two adversaries bench_decider_hotpath runs the deciders under.
  const AdversaryStructure z = state.range(0) == 0
                                   ? threshold_structure(players, 2)
                                   : random_structure(players, 8, 3, NodeSet{0, 13}, rng);
  const auto probes = cut_shaped_probes(64, 26, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.contains(probes[i++ % 64]));
  }
}
BENCHMARK(BM_StructureContains26)->Arg(0)->Arg(1);

void BM_StructureAdd(benchmark::State& state) {
  // Incremental antichain maintenance: stream range(0) random sets through
  // AdversaryStructure::add. add() is a single ordered domination pass with
  // popcount prefilters; this is the op protocol knowledge-exchange uses to
  // fold reported sets into a running structure.
  Rng rng(9);
  const auto sets = random_sets(std::size_t(state.range(0)), 26, rng);
  for (auto _ : state) {
    AdversaryStructure z;
    for (const NodeSet& s : sets) z.add(s);
    benchmark::DoNotOptimize(z);
  }
}
BENCHMARK(BM_StructureAdd)->Arg(16)->Arg(64)->Arg(256);

void BM_ThresholdStructureBuild(benchmark::State& state) {
  const NodeSet universe = NodeSet::full(std::size_t(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(threshold_structure(universe, 3));
  }
}
BENCHMARK(BM_ThresholdStructureBuild)->Arg(8)->Arg(12)->Arg(16);

/// ConsoleReporter that additionally captures every run for JSON export.
class CapturingReporter final : public benchmark::ConsoleReporter {
 public:
  std::vector<Run> runs;
  void ReportRuns(const std::vector<Run>& report) override {
    runs.insert(runs.end(), report.begin(), report.end());
    ConsoleReporter::ReportRuns(report);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = rmt::obs::consume_json_flag(argc, argv);
  rmt::obs::Registry::global().reset();
  rmt::obs::set_enabled(true);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (json_path) {
    rmt::obs::BenchReport rep("bench_micro_sets");
    rep.set_columns({"benchmark", "iterations", "real_ns", "cpu_ns"});
    for (const auto& r : reporter.runs) {
      if (r.error_occurred) continue;
      rep.add_row({r.benchmark_name(), std::uint64_t(r.iterations), r.GetAdjustedRealTime(),
                   r.GetAdjustedCPUTime()});
    }
    rep.write(*json_path);
  }
  benchmark::Shutdown();
  return 0;
}
