// perfbench/src/common.hpp — clocks, percentiles and the result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile of `v` (sorted in place); 0 for an empty set.
inline double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = std::size_t(q * double(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// Named metrics in report order.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> rows;
  void add(const std::string& name, double value, const std::string& unit) {
    rows.push_back({name, {value, unit}});
  }
};

/// The benchmark's last stdout line.
inline void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                         const Metrics& m) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < m.rows.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.rows[i].second.first);
    out += (i ? ", \"" : "\"") + m.rows[i].first + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.rows[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
