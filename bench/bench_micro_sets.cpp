// bench_micro_sets — microbenchmarks for NodeSet, AdversaryStructure and
// the ⊕ machinery (experiment µB of DESIGN.md). With `--json <path>` the
// per-benchmark timings and the observability snapshot (phase histograms
// of the instrumented ⊕/restrict operations) are also written as an
// rmt.bench/1 artifact.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>

#include "adversary/bit_matrix.hpp"
#include "adversary/joint.hpp"
#include "adversary/threshold.hpp"
#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

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

void BM_JointLazyMembership(benchmark::State& state) {
  Rng rng(6);
  JointStructure joint;
  for (int i = 0; i < state.range(0); ++i) {
    NodeSet ground;
    for (std::size_t v = 0; v < 32; ++v)
      if (rng.chance(0.4)) ground.insert(NodeId(v));
    joint.add_constraint(ground,
                         AdversaryStructure::from_sets(random_sets(6, 32, rng)));
  }
  const auto probes = random_sets(64, 32, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(joint.contains(probes[i++ % 64]));
  }
}
BENCHMARK(BM_JointLazyMembership)->Arg(2)->Arg(8)->Arg(32);

// ---- decider-hot-path shapes (n = 26, the exact-decider cap) -------------
//
// The next three benchmarks probe the structures at the exact deciders'
// shapes: the antichain is a 2-threshold (276 maximal sets) or a random
// general structure over 26 nodes, and the probes are boundary-sized sets
// (|C| ≈ 2..4). They exercise the support/popcount prefilters on
// AdversaryStructure::contains (find_rmt_cut's per-node slice test) and
// the lazy conjunction in JointStructure::contains.

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

void BM_JointContains26(benchmark::State& state) {
  Rng rng(8);
  const NodeSet players = NodeSet::full(26) - NodeSet{0, 13};
  const AdversaryStructure z = state.range(0) == 0
                                   ? threshold_structure(players, 2)
                                   : random_structure(players, 8, 3, NodeSet{0, 13}, rng);
  // Z_B for a |B| = 8 component under 3-node views: one restricted
  // constraint per member, as pka_decision's cover check joins them.
  JointStructure joint;
  for (std::size_t v = 13; v < 21; ++v) {
    const NodeSet view{NodeId(v == 0 ? 25 : v - 1), NodeId(v), NodeId((v + 1) % 26)};
    joint.add_constraint(RestrictedStructure(z, view));
  }
  const auto probes = cut_shaped_probes(64, 26, rng);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(joint.contains(probes[i++ % 64]));
  }
}
BENCHMARK(BM_JointContains26)->Arg(0)->Arg(1);

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

// ---- SIMD bit-matrix kernels (util/simd.hpp via SubsetMatrix) ------------
//
// The antichain scan kernels the deciders hit hardest, on the active
// backend and with the scalar reference forced. Run alongside, the pair
// shows what the vector path buys at each antichain size; the identity
// sweep below proves the two backends agree probe for probe.

void BM_SubsetAnyBatched(benchmark::State& state) {
  // range(0): antichain rows (8 sits at the vector-dispatch floor, 64 is
  // comfortably past it); range(1): 1 forces the scalar kernels.
  Rng rng(10);
  const auto z = AdversaryStructure::from_sets(
      random_sets(std::size_t(state.range(0)) * 2, 26, rng));
  SubsetMatrix matrix;
  matrix.build(z.maximal_sets());
  const auto probes = cut_shaped_probes(64, 26, rng);
  const simd::ScopedForceScalar scalar_only(state.range(1) != 0);
  bool out[64];
  for (auto _ : state) {
    matrix.probe_batch(probes.data(), probes.size(), out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * 64);
}
BENCHMARK(BM_SubsetAnyBatched)->Args({8, 0})->Args({8, 1})->Args({64, 0})->Args({64, 1});

void BM_ProbeBatchK(benchmark::State& state) {
  // probe_batch with the decider's chunk sizes (range(0) = k) against the
  // 276-row 2-threshold antichain; range(1): 1 forces scalar.
  Rng rng(11);
  const NodeSet players = NodeSet::full(26) - NodeSet{0, 13};
  const AdversaryStructure z = threshold_structure(players, 2);
  const auto probes = cut_shaped_probes(64, 26, rng);
  const std::size_t k = std::size_t(state.range(0));
  const simd::ScopedForceScalar scalar_only(state.range(1) != 0);
  bool out[64];
  std::size_t base = 0;
  for (auto _ : state) {
    z.probe_batch(probes.data() + base, k, out);
    benchmark::DoNotOptimize(out);
    base = (base + k) % (64 - k);
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * std::int64_t(k));
}
BENCHMARK(BM_ProbeBatchK)->Args({4, 0})->Args({4, 1})->Args({16, 0})->Args({16, 1});

// ---- scalar-vs-SIMD identity sweep ---------------------------------------
//
// The backend-identity acceptance for the kernel layer: for antichain
// sizes straddling the dispatch thresholds and probes straddling every
// popcount-bucket boundary, the active backend and the forced-scalar
// reference must answer identically, and probe_batch must equal
// per-candidate contains. Each case is an RMT_CHECK (the emit step fails,
// not just the schema check) and one artifact row.

struct SweepRow {
  std::string kernel;
  std::uint64_t rows;
  std::uint64_t probes;
  double ns_per_probe;
  bool identical;
};

template <typename F>
double ns_per_call(F&& f, std::size_t reps) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < reps; ++i) f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / double(reps);
}

std::vector<SweepRow> run_identity_sweep() {
  std::vector<SweepRow> out;
  Rng rng(12);
  // Antichain sizes: below/at/above the vector-dispatch floor, the matrix
  // build threshold, and the decider-shaped 64 and 276 row counts.
  for (const std::size_t target_rows : {2u, 7u, 8u, 9u, 64u, 276u}) {
    const auto z =
        AdversaryStructure::from_sets(random_sets(target_rows * 3, 26, rng));
    SubsetMatrix matrix;
    matrix.build(z.maximal_sets());
    // Probes at every popcount-bucket boundary p-1 / p / p+1 for each
    // distinct row popcount, plus the empty set and an over-wide set.
    std::vector<NodeSet> probes;
    probes.push_back(NodeSet{});
    probes.push_back(NodeSet::full(27));
    for (const NodeSet& m : z.maximal_sets()) {
      const std::vector<NodeId> elems = m.to_vector();
      if (elems.empty()) continue;
      for (std::size_t take :
           {elems.size() - 1, elems.size(), elems.size() + 1}) {
        NodeSet p;
        for (std::size_t i = 0; i < take && i < elems.size(); ++i) p.insert(elems[i]);
        if (take > elems.size()) p.insert(NodeId(26));
        probes.push_back(std::move(p));
      }
      if (probes.size() >= 96) break;
    }
    std::vector<char> vec_ans(probes.size()), scal_ans(probes.size());
    bool raw[128];
    const double vec_ns = ns_per_call(
        [&] {
          for (std::size_t i = 0; i < probes.size(); ++i)
            vec_ans[i] = matrix.contains_subset(probes[i]) ? 1 : 0;
        },
        200);
    {
      const simd::ScopedForceScalar scalar_only;
      for (std::size_t i = 0; i < probes.size(); ++i)
        scal_ans[i] = matrix.contains_subset(probes[i]) ? 1 : 0;
    }
    matrix.probe_batch(probes.data(), probes.size(), raw);
    bool same = true;
    for (std::size_t i = 0; i < probes.size(); ++i)
      same = same && vec_ans[i] == scal_ans[i] && (raw[i] ? 1 : 0) == vec_ans[i];
    RMT_CHECK(same, "bench_micro_sets: backend identity sweep diverged at " +
                        std::to_string(z.num_maximal_sets()) + " rows");
    out.push_back({"subset_any", z.num_maximal_sets(), probes.size(),
                   vec_ns / double(probes.size()), same});
  }
  return out;
}

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

namespace {

/// Pull `--sets-json <path>` out of argv (same convention as
/// obs::consume_json_flag, separate artifact): the kernel rows +
/// identity-sweep report lands there as BENCH_sets.json.
std::optional<std::string> consume_sets_json_flag(int& argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--sets-json" && i + 1 < argc) {
      std::string path = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      return path;
    }
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  const auto json_path = rmt::obs::consume_json_flag(argc, argv);
  const auto sets_json_path = consume_sets_json_flag(argc, argv);
  rmt::obs::Registry::global().reset();
  rmt::obs::set_enabled(true);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  // The backend identity sweep always runs: its RMT_CHECKs make this
  // binary fail outright if the vector and scalar kernels ever disagree,
  // with or without an artifact path.
  const std::vector<SweepRow> sweep = run_identity_sweep();
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
  if (sets_json_path) {
    // BENCH_sets.json: the SIMD kernel rows (both backends, from the
    // google-benchmark runs) plus one identity-sweep row per antichain
    // size. `identical` is also RMT_CHECKed above — a false here can never
    // reach the schema checker.
    rmt::obs::BenchReport rep("bench_sets");
    rep.set_columns({"kernel", "rows", "probes", "ns_per_probe", "identical"});
    for (const auto& r : reporter.runs) {
      if (r.error_occurred) continue;
      const std::string name = r.benchmark_name();
      const bool is_subset = name.rfind("BM_SubsetAnyBatched", 0) == 0;
      const bool is_batch = name.rfind("BM_ProbeBatchK", 0) == 0;
      if (!is_subset && !is_batch) continue;
      // Name format BM_Foo/<arg0>/<scalar>: arg0 is the antichain rows for
      // SubsetAnyBatched and the batch width k for ProbeBatchK.
      const std::size_t slash = name.find('/');
      const std::uint64_t arg0 =
          slash == std::string::npos ? 0 : std::strtoull(name.c_str() + slash + 1, nullptr, 10);
      const std::uint64_t rows = is_subset ? arg0 : 276;
      const std::uint64_t probes = is_subset ? 64 : arg0;
      const double per_probe =
          probes > 0 ? r.GetAdjustedRealTime() / double(probes) : 0.0;
      rep.add_row({name, rows, probes, per_probe, true});
    }
    for (const SweepRow& s : sweep)
      rep.add_row({s.kernel, s.rows, s.probes, s.ns_per_probe, s.identical});
    rep.write(*sets_json_path);
  }
  benchmark::Shutdown();
  return 0;
}
