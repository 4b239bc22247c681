// obs/bench_report.hpp — the machine-readable artifact every experiment
// driver can emit next to its ASCII table.
//
// Schema "rmt.bench/1" (validated by tools/check_bench_json.py):
//   {
//     "schema":  "rmt.bench/1",
//     "name":    "<driver name>",
//     "run":     {"start_unix_ms": <wall clock at construction>,
//                 "mono_anchor_ns": <steady_clock raw value at the trace
//                 epoch — the same pair an rmt.trace/1 header carries, so
//                 tools/trace_compare.py can align a bench artifact with
//                 the trace dump from the same process>},
//     "columns": ["n", "time_us", ...],
//     "rows":    [{"n": 6, "time_us": 12.5, ...}, ...],
//     "metrics": <obs::snapshot_json of the global registry — includes
//                 "phases" (per-phase timing histograms recorded by
//                 RMT_PHASE) and "counters" (the "sim.*" simulator
//                 totals the protocol runner accumulates)>
//   }
//
// Rows are typed (numbers stay numbers) so the BENCH_*.json perf
// trajectory can be diffed numerically across PRs, not re-parsed from
// table text.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace rmt::obs {

/// One typed table cell.
using BenchValue = std::variant<std::string, double, std::int64_t, std::uint64_t, bool>;

class BenchReport {
 public:
  /// Captures the run anchors (wall clock + the trace recorder's monotonic
  /// epoch) once, at construction.
  explicit BenchReport(std::string name);

  /// Column names; must be set before the first add_row.
  void set_columns(std::vector<std::string> columns);

  /// One result row; size must match the column count.
  void add_row(std::vector<BenchValue> cells);

  const std::string& name() const { return name_; }
  std::size_t num_rows() const { return rows_.size(); }

  /// Full document, including the current global-registry snapshot.
  std::string to_json() const;

  /// Write to_json() to `path` ("-" = stdout). Throws on I/O failure.
  void write(const std::string& path) const;

 private:
  std::string name_;
  std::uint64_t run_start_unix_ms_ = 0;
  std::uint64_t mono_anchor_ns_ = 0;
  std::vector<std::string> columns_;
  std::vector<std::vector<BenchValue>> rows_;
};

/// Scan argv for "<flag> <value>" (or "<flag>=<value>"); returns the value
/// and removes the flag from argv/argc so drivers can hand the rest to
/// their own parsing (google-benchmark's included).
std::optional<std::string> consume_string_flag(int& argc, char** argv, const char* flag);

/// consume_string_flag for "--json <path>".
std::optional<std::string> consume_json_flag(int& argc, char** argv);

}  // namespace rmt::obs
