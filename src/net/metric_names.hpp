// net/metric_names.hpp — the closed registry of rmt::net metric names.
//
// Every "net.*" metric name a C++ source references must be listed here,
// mirroring src/svc/metric_names.hpp: tools/rmt_lint.py cross-checks both
// directions — a source referencing an unregistered name, or a registry
// entry with no remaining instrumentation site in src/ — so the serving
// dashboards can treat the transport vocabulary as a stable schema. The
// same names appear (without the "net." prefix) as the `net` section of
// the TCP server's "stats" probe response.
//
// To add a metric: add the instrumentation site and the entry here in the
// same change; the linter markers below delimit what it parses.
#pragma once

#include <array>
#include <string_view>

namespace rmt::net {

// lint:net-metric-registry-begin
inline constexpr std::array<std::string_view, 12> kNetMetricNames = {
    "net.accepts",
    "net.active",
    "net.batches",
    "net.bytes_in",
    "net.bytes_out",
    "net.disconnects",
    "net.frame_rejects",
    "net.inline_hits",
    "net.lines_in",
    "net.responses_out",
    "net.shed",
    "net.slow_client_disconnects",
};
// lint:net-metric-registry-end

constexpr bool is_known_net_metric(std::string_view name) {
  for (std::string_view m : kNetMetricNames)
    if (m == name) return true;
  return false;
}

}  // namespace rmt::net
