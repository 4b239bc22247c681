// rmt_perfbench — the benchmark harness behind perfbench/run.py.
//
//   rmt_perfbench --workload W --seed N --seconds S --trace 0|1
//                 --server PATH --workdir DIR
//
// --trace 0 runs the workload against the rmt_serve binary at PATH and
// prints the end-to-end metrics; --trace 1 replays the same seeded stream
// in-process, layer by layer, and prints the per-layer metrics. Either way
// the last stdout line is the result object; diagnostics go to stderr.
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "common.hpp"
#include "e2e.hpp"
#include "traced.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

/// Positions one run can consume: about 2x the rate measured at the commit
/// that added the benchmark (README.md). A stream that runs dry ends
/// the window early, with a warning. cold_mix holds its whole stream in
/// memory, about 6 KB a position.
std::uint64_t max_positions(const std::string& name, double seconds) {
  const double rate = name == "cold_mix" ? 2000 : name == "restart_store" ? 25000 : 0;
  return std::uint64_t(rate * seconds) + 4096;
}

/// Same seed, same bytes: rebuilds the workload with a short stream and
/// compares digests over the common prefix (warm-up, fill and stream).
void check_determinism(const Workload& w) {
  const std::uint64_t prefix = 2048;
  const Workload again = build_workload(w.name, w.seed, prefix);
  if (again.stream_digest(prefix) != w.stream_digest(prefix))
    throw std::runtime_error("the same seed produced a different stream");
  if (w.name != "cold_mix") return;
  std::unordered_set<std::string> keys;
  for (const Item& item : w.items)
    if (!keys.insert(item.ckey.substr(0, 32)).second)
      throw std::runtime_error("cold_mix repeats an instance key");
}

int usage() {
  std::fprintf(stderr,
               "usage: rmt_perfbench --workload W --seed N --seconds S --trace 0|1 "
               "--server PATH --workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, server, workdir;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string a = argv[i], v = argv[i + 1];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::stoull(v);
    else if (a == "--seconds") seconds = std::stod(v);
    else if (a == "--trace") trace = std::stoi(v);
    else if (a == "--server") server = v;
    else if (a == "--workdir") workdir = v;
    else return usage();
  }
  if (workload.empty() || workdir.empty() || (trace == 0 && server.empty())) return usage();
  try {
    std::filesystem::create_directories(workdir);
    const Clock::time_point g0 = Clock::now();
    Workload w = build_workload(workload, seed, max_positions(workload, seconds));
    check_determinism(w);
    std::fprintf(stderr, "%s seed %llu: %zu items generated in %.2f s (stream digest %016llx)\n",
                 workload.c_str(), static_cast<unsigned long long>(seed), w.items.size(),
                 us_between(g0, Clock::now()) / 1e6,
                 static_cast<unsigned long long>(w.stream_digest(256)));
    if (trace == 0) {
      E2eOptions o;
      o.server = server;
      o.workdir = workdir;
      o.seconds = seconds;
      return run_e2e(o, w);
    }
    TracedOptions o;
    o.workdir = workdir;
    o.seconds = seconds;
    return run_traced(o, w);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAILED: %s\n", e.what());
    return 3;
  }
}
