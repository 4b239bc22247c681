// obs/phase_names.hpp — the closed registry of observability phase names.
//
// Every RMT_OBS_SCOPE site in the library must use a name listed here, so
// that dashboards, bench baselines and the rmt.bench/1 consumers can treat
// the phase vocabulary as a stable schema rather than a free-form string
// space. The registry is enforced twice:
//  * statically  — tools/rmt_lint.py cross-checks all RMT_OBS_SCOPE sites
//    against this list, both directions (unknown site name, or a registry
//    entry with no remaining site, fails the lint_project test);
//  * dynamically — with RMT_AUDIT on, ScopedTimer rejects unregistered
//    names at scope entry (obs/timer.hpp).
//
// To add a phase: add the RMT_OBS_SCOPE site and the entry here in the
// same change; the linter markers below delimit what it parses.
#pragma once

#include <array>
#include <string_view>

namespace rmt::obs {

// lint:phase-registry-begin
inline constexpr std::array<std::string_view, 19> kPhaseNames = {
    "adversary.oplus",
    "adversary.restrict",
    "audit.validate",
    "exec.campaign",
    "exec.shard",
    "feasibility.two_cover",
    "minimal_knowledge.search",
    "rmt_cut.find",
    "runner.run_broadcast",
    "runner.run_rmt",
    "sim.adversary_act",
    "sim.honest_round",
    "sim.route",
    "store.append",
    "store.compact",
    "store.load",
    "svc.batch",
    "svc.compute",
    "zpp_cut.find",
};
// lint:phase-registry-end

constexpr bool is_known_phase(std::string_view name) {
  // The "test." prefix is reserved for unit tests exercising the timer
  // machinery itself; library code must use a registered name (the linter
  // rejects "test." under src/).
  if (name.substr(0, 5) == "test.") return true;
  for (std::string_view p : kPhaseNames)
    if (p == name) return true;
  return false;
}

}  // namespace rmt::obs
