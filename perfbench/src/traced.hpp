// perfbench/src/traced.hpp — the traced in-process replay (per-layer metrics).
#pragma once

#include <string>

#include "workload.hpp"

namespace perfbench {

struct TracedOptions {
  std::string workdir;  ///< scratch directory (store logs, the span dump)
  double seconds = 10;  ///< time budget shared by the replay's legs
};

/// Replays the workload's stream through each layer's public functions
/// with a span around every call; prints the per-layer result line.
int run_traced(const TracedOptions& o, Workload& w);

}  // namespace perfbench
