// svc/metric_names.hpp — the closed registry of rmt::svc metric names.
//
// Every "svc.*" (or "cache.*") metric name a C++ source references must be
// listed here, mirroring the phase-name registry (obs/phase_names.hpp):
// tools/rmt_lint.py cross-checks both directions — a source referencing an
// unregistered name, or a registry entry with no remaining source — so
// dashboards and the BENCH_svc.json consumers can treat the serving
// vocabulary as a stable schema. Phase names ("svc.batch", "svc.compute")
// live in the phase registry, not here; the linter knows the difference.
//
// To add a metric: add the instrumentation site and the entry here in the
// same change; the linter markers below delimit what it parses.
#pragma once

#include <array>
#include <string_view>

namespace rmt::svc {

// lint:svc-metric-registry-begin
inline constexpr std::array<std::string_view, 18> kSvcMetricNames = {
    "svc.cache.bytes",
    "svc.cache.entries",
    "svc.cache.evictions",
    "svc.cache.hits",
    "svc.cache.misses",
    "svc.coalesced",
    "svc.computed",
    "svc.deadline_exceeded",
    "svc.disk_hits",
    "svc.errors",
    "svc.inflight_joins",
    "svc.memo.bytes",
    "svc.memo.entries",
    "svc.memo.evictions",
    "svc.memo.hits",
    "svc.memo.misses",
    "svc.request_us",
    "svc.requests",
};
// lint:svc-metric-registry-end

constexpr bool is_known_svc_metric(std::string_view name) {
  for (std::string_view m : kSvcMetricNames)
    if (m == name) return true;
  return false;
}

}  // namespace rmt::svc
