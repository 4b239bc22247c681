// bench_exec — the rmt::exec acceptance benchmark: 1-thread vs N-thread
// wall time for the layer the pool accelerates, with a result-identity
// check on every comparison.
//
// Workload:
//  * adv-search — exhaustive per-node-mode strategy enumeration
//                 (sim/adversary_search.hpp), 3^|T| protocol runs per
//                 maximal corruption set.
//
// Every parallel run is compared against its sequential twin ("identical"
// column) — the determinism contract says parallelism changes wall time
// only, never answers. Speedup is honest wall-clock: on a single-core
// host the ratio hovers near (or below) 1.0; CI records the multi-core
// numbers. With `--json BENCH_exec.json` the table becomes the rmt.bench/1
// speedup artifact referenced by the acceptance criteria.
#include <string>

#include "bench_util.hpp"
#include "protocols/zcpa.hpp"
#include "sim/adversary_search.hpp"

namespace {

using namespace rmt;

bool same_search(const sim::SearchResult& a, const sim::SearchResult& b) {
  if (a.behaviors_tried != b.behaviors_tried) return false;
  if (a.safety_violation.has_value() != b.safety_violation.has_value()) return false;
  if (a.liveness_block.has_value() != b.liveness_block.has_value()) return false;
  if (a.safety_violation && a.safety_violation->modes != b.safety_violation->modes) return false;
  if (a.liveness_block && a.liveness_block->modes != b.liveness_block->modes) return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rmt;
  using namespace rmt::bench;

  Reporter rep(argc, argv, "bench_exec");
  rep.columns({"workload", "jobs", "wall_ms", "speedup", "identical"});

  // N workers: the --jobs value when given, else every hardware thread
  // (at least 2, so the parallel path is exercised even on one core).
  const std::size_t jobs = rep.exec().jobs > 1
                               ? rep.exec().jobs
                               : std::max<std::size_t>(2, exec::ThreadPool::hardware_concurrency());
  exec::ThreadPool pool(jobs);

  // `identical` is evaluated *after* both runs, against their results; a
  // divergence is also a hard failure (the determinism contract broke).
  const auto compare = [&](const std::string& workload, const std::function<double()>& seq_ms,
                           const std::function<double()>& par_ms,
                           const std::function<bool()>& identical) {
    const double s = seq_ms();
    const double p = par_ms();
    const bool same = identical();
    rep.row({workload, std::uint64_t(1), s, 1.0, true});
    rep.row({workload, std::uint64_t(jobs), p, p > 0 ? s / p : 0.0, same});
    RMT_CHECK(same, "bench_exec: " + workload + " answers diverged between 1 and " +
                        std::to_string(jobs) + " jobs");
  };

  // --- adv-search: exhaustive strategy enumeration ------------------------
  {
    Rng rng(900);
    const std::size_t n = 9;
    const Graph g = generators::random_connected_gnp(n, 0.45, rng);
    const AdversaryStructure z = random_structure(g.nodes(), 3, 5, NodeSet{0, NodeId(n - 1)}, rng);
    const Instance inst = Instance::ad_hoc(g, z, 0, NodeId(n - 1));
    const protocols::Zcpa proto;
    sim::SearchResult r_seq, r_par;
    compare(
        "adv-search",
        [&] {
          return time_us([&] {
                   r_seq = sim::search_all_corruptions_exhaustive(inst, proto, 1, nullptr);
                 }) /
                 1000.0;
        },
        [&] {
          return time_us([&] {
                   r_par = sim::search_all_corruptions_exhaustive(inst, proto, 1, &pool);
                 }) /
                 1000.0;
        },
        [&] { return same_search(r_seq, r_par); });
  }

  pool.publish_stats();  // exec.* counters into the --json metrics snapshot
  rep.finish("EXEC — 1-thread vs " + std::to_string(jobs) + "-thread wall time (identical answers)");
  return 0;
}
