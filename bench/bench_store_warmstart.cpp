// bench_store — the persistence acceptance bench: cold compute vs. a
// memory-cache hit vs. a disk-store hit *after a restart*, on cold_mix's
// simulate shapes, through svc::Engine end to end.
//
// One row per workload:
//   cold_us      — best-of-kReps simulate with no_cache (full compute);
//   mem_warm_us  — best-of-kReps the same request from the result cache;
//   disk_warm_us — best-of-kReps through a FRESH engine over the same
//                  store directory each rep: the memory cache is cold, so
//                  the answer must come off disk (pread + checksum), the
//                  warm-start path a restarted server takes;
//   speedup_mem  = cold / mem_warm, speedup_disk = cold / disk_warm.
//
// The `identical` column is the determinism gate: the cold, memory-warm,
// and every restarted disk-warm response must be byte-equal to the fresh
// sequential answer, and each restart must report cached=true with
// computed==0 — warm-start is only worth having if it serves the exact
// bytes without re-paying the decider. Both facts are RMT_CHECKed here
// (the emit step fails first) and tools/check_bench_json.py re-enforces
// the all-true identical column on the artifact.
//
// speedup_disk is RMT_CHECKed >= kMinDiskSpeedup: a disk tier that
// silently degenerated into recomputation would read ~1x.
#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "store/store.hpp"
#include "svc/engine.hpp"

namespace {

using namespace rmt;

// Best-of-kReps on every path: the minimum of 15 restarts holds the disk
// read's ratio under a parallel ctest's load.
inline constexpr int kReps = 15;
// The acceptance floor: a restarted server answering from disk must beat
// re-running the simulation by 20x. Cold runs on the shapes below cost
// hundreds of microseconds to milliseconds of message work; a verified
// pread of their answer costs a few microseconds — 20x leaves slow-CI
// headroom while still separating "served from disk" from "recomputed" by
// orders of magnitude.
inline constexpr double kMinDiskSpeedup = 20.0;

svc::Request sim_request(const Instance& inst, bool no_cache = false) {
  return svc::Request{svc::QueryKind::kSimulate, inst, svc::SimParams{}, std::nullopt, no_cache};
}

/// The sequential, fresh-engine answer — the identity baseline.
std::string expected_result(const Instance& inst) {
  svc::Engine engine(nullptr);
  std::vector<svc::Request> batch;
  batch.push_back(sim_request(inst, /*no_cache=*/true));
  const std::vector<svc::Response> responses = engine.run(batch);
  RMT_CHECK(responses[0].status == svc::Response::Status::kOk,
            "bench_store: baseline decide failed");
  return responses[0].result;
}

/// cold_mix's simulate shapes, queried with the simulate kind: the cycle
/// under ad hoc views and generalized wheels under 1-hop views, all with a
/// trivial structure, at and above cold_mix's sizes. A seeded RMT-PKA run
/// there costs hundreds of microseconds of round-by-round message work,
/// while the served-request fixed cost stays a few microseconds: keying a
/// trivial structure is cheap. Threshold structures are no use here: keying
/// a 2-threshold's hundreds of sets costs 15–25 µs of every disk read, and
/// sharing each relayed claim (sim/message.hpp) cut their simulations to
/// within 20–30× of that. Simulate is deterministic in content (seed
/// derived from root seed and instance key), so the byte-identity gate
/// holds across restarts all the same.
std::vector<std::pair<std::string, Instance>> simulate_workloads() {
  std::vector<std::pair<std::string, Instance>> out;
  out.emplace_back("cycle-26",
                   Instance::ad_hoc(generators::cycle_graph(26), AdversaryStructure::trivial(),
                                    0, 13));
  for (std::size_t n : {13u, 16u, 20u}) {
    const Graph g = generators::generalized_wheel(n, 2);
    out.emplace_back("wheel-" + std::to_string(n),
                     Instance(g, AdversaryStructure::trivial(), ViewFunction::k_hop(g, 1), 3,
                              NodeId(n / 2 + 2)));
  }
  return out;
}

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

  Reporter rep(argc, argv, "bench_store");
  rep.columns({"workload", "cold_us", "mem_warm_us", "disk_warm_us", "speedup_mem",
               "speedup_disk", "identical"});

  const std::size_t jobs = rep.exec().jobs > 1
                               ? rep.exec().jobs
                               : std::max<std::size_t>(2, exec::ThreadPool::hardware_concurrency());
  exec::ThreadPool pool(jobs);

  const std::string scratch = "bench_store_scratch";
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);  // Store mkdirs one level only

  for (const auto& [name, inst] : simulate_workloads()) {
    const std::string expected = expected_result(inst);

    svc::Engine::Options opts;
    opts.store.dir = scratch + "/" + name;
    std::filesystem::remove_all(opts.store.dir);

    svc::Engine engine(&pool, opts);

    // Cold: the full compute path (no_cache bypasses both tiers).
    std::vector<svc::Request> cold_batch;
    cold_batch.push_back(sim_request(inst, /*no_cache=*/true));
    std::vector<svc::Response> last;
    const double cold_us = best_us([&] { last = engine.run(cold_batch); });
    bool identical = last[0].result == expected;

    // One cacheable request writes through memory AND disk; then every
    // rep must hit the memory tier.
    std::vector<svc::Request> warm_batch;
    warm_batch.push_back(sim_request(inst));
    last = engine.run(warm_batch);
    identical = identical && last[0].result == expected;
    const double mem_warm_us = best_us([&] { last = engine.run(warm_batch); });
    identical = identical && last[0].cached && last[0].result == expected;
    engine.publish_stats();

    // Disk-warm: a fresh engine per rep over the same store directory —
    // each one is a restarted server whose first answer must come off
    // disk, byte-identical, with zero recomputation.
    double disk_warm_us = 0;
    for (int i = 0; i < kReps; ++i) {
      svc::Engine restarted(&pool, opts);
      std::vector<svc::Response> out;
      const double us = time_us([&] { out = restarted.run(warm_batch); });
      identical = identical && out[0].status == svc::Response::Status::kOk &&
                  out[0].cached && out[0].result == expected;
      RMT_CHECK(restarted.stats().computed == 0,
                "bench_store: " + name + " restart recomputed instead of serving from disk");
      RMT_CHECK(restarted.stats().disk_hits == 1,
                "bench_store: " + name + " restart answered without touching the disk tier");
      restarted.publish_stats();
      if (i == 0 || us < disk_warm_us) disk_warm_us = us;
    }

    const double speedup_mem = mem_warm_us > 0 ? cold_us / mem_warm_us : 0.0;
    const double speedup_disk = disk_warm_us > 0 ? cold_us / disk_warm_us : 0.0;
    rep.row({name, cold_us, mem_warm_us, disk_warm_us, speedup_mem, speedup_disk, identical});
    RMT_CHECK(identical, "bench_store: " + name + " served bytes diverged from fresh sequential");
    RMT_CHECK(speedup_disk >= kMinDiskSpeedup,
              "bench_store: " + name + " disk-warm restart only " + fmt::fixed(speedup_disk, 2) +
                  "x faster than cold (floor " + fmt::fixed(kMinDiskSpeedup, 1) + "x)");
  }

  std::filesystem::remove_all(scratch);
  pool.publish_stats();
  rep.finish("STORE — persistent result store: cold vs. memory-warm vs. disk-warm restart");
  return 0;
}
