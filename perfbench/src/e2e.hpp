// perfbench/src/e2e.hpp — the untraced end-to-end run against rmt_serve.
#pragma once

#include <cstddef>
#include <string>

#include "workload.hpp"

namespace perfbench {

struct E2eOptions {
  std::string server;   ///< path of the rmt_serve binary
  std::string workdir;  ///< scratch directory (store logs)
  double seconds = 10;  ///< timed window
};

/// Runs one workload and prints the result line; returns the exit code
/// (0, or 3 on a wrong answer / protocol violation, without a result line).
int run_e2e(const E2eOptions& o, Workload& w);

}  // namespace perfbench
