// bench/bench_util.hpp — shared machinery for the experiment drivers.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/threshold.hpp"
#include "exec/campaign.hpp"
#include "exec/options.hpp"
#include "exec/thread_pool.hpp"
#include "graph/generators.hpp"
#include "instance/instance.hpp"
#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "protocols/runner.hpp"
#include "sim/strategies.hpp"
#include "util/fmt.hpp"
#include "util/rng.hpp"

namespace rmt::bench {

/// Wall-clock one call, in microseconds.
template <typename F>
double time_us(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// Print a titled ASCII table.
inline void print_table(const std::string& title,
                        const std::vector<std::vector<std::string>>& rows) {
  std::printf("\n## %s\n\n%s", title.c_str(), fmt::table(rows).c_str());
}

/// Typed result collector for the table/fig drivers: every row feeds both
/// the human ASCII table and (when the driver was invoked with
/// `--json <path>`) an rmt.bench/1 artifact carrying the same cells as
/// typed values plus the observability snapshot (per-phase timings,
/// "sim.*" counters). Construction enables observability so the snapshot
/// is populated; the metrics registry is reset so the artifact covers
/// only this driver's work. `--trace-out <path>` additionally turns on
/// span tracing (obs/trace.hpp) and dumps the flight recorder as
/// rmt.trace/1 JSONL in finish() — the dump and the artifact share run
/// anchors, so tools/trace_compare.py can align them.
class Reporter {
 public:
  Reporter(int& argc, char** argv, std::string name)
      : report_(std::move(name)), json_path_(obs::consume_json_flag(argc, argv)),
        trace_out_(obs::consume_string_flag(argc, argv, "--trace-out")),
        exec_(consume_exec_flags_or_exit(argc, argv)) {
    obs::Registry::global().reset();
    obs::set_enabled(true);
    if (trace_out_) obs::trace::set_enabled(true);
  }

  /// The --jobs/--shard/--resume options this driver was invoked with.
  const exec::ExecOptions& exec() const { return exec_; }

  /// The worker pool sized by --jobs, built on first use. Returns nullptr
  /// for --jobs 1 so callers hit the sequential-inline paths directly.
  exec::ThreadPool* pool() {
    if (exec_.jobs <= 1) return nullptr;
    if (!pool_) pool_ = std::make_unique<exec::ThreadPool>(exec_.jobs);
    return pool_.get();
  }

  /// Campaign subset/manifest options straight from the command line.
  exec::Campaign::RunOptions campaign_options() const {
    exec::Campaign::RunOptions opts;
    opts.subset_index = exec_.shard_index;
    opts.subset_count = exec_.shard_count;
    if (exec_.resume) opts.manifest_path = *exec_.resume;
    return opts;
  }

  void columns(std::vector<std::string> names) {
    table_.push_back(names);
    report_.set_columns(std::move(names));
  }

  void row(std::vector<obs::BenchValue> cells) {
    std::vector<std::string> text;
    text.reserve(cells.size());
    for (const obs::BenchValue& c : cells) text.push_back(cell_text(c));
    table_.push_back(std::move(text));
    report_.add_row(std::move(cells));
  }

  /// Print the ASCII table; write the JSON/trace artifacts if requested.
  void finish(const std::string& title) {
    if (pool_) pool_->publish_stats();  // exec.* metrics join the snapshot
    print_table(title, table_);
    if (json_path_) {
      report_.write(*json_path_);
      if (*json_path_ != "-")
        std::printf("\nwrote %s (%zu rows)\n", json_path_->c_str(), report_.num_rows());
    }
    if (trace_out_) {
      if (obs::trace::Recorder::global().write_file(*trace_out_))
        std::printf("\nwrote %s\n", trace_out_->c_str());
      else
        std::fprintf(stderr, "warning: cannot write trace to %s\n", trace_out_->c_str());
    }
  }

 private:
  /// Flag errors are user errors: report and exit(2), no stack trace.
  static exec::ExecOptions consume_exec_flags_or_exit(int& argc, char** argv) {
    try {
      return exec::consume_exec_flags(argc, argv);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "fatal: %s\n", e.what());
      std::exit(2);
    }
  }

  static std::string cell_text(const obs::BenchValue& v) {
    struct Visitor {
      std::string operator()(const std::string& s) const { return s; }
      std::string operator()(double d) const { return fmt::fixed(d, 2); }
      std::string operator()(std::int64_t i) const { return std::to_string(i); }
      std::string operator()(std::uint64_t u) const { return std::to_string(u); }
      std::string operator()(bool b) const { return b ? "yes" : "no"; }
    };
    return std::visit(Visitor{}, v);
  }

  std::vector<std::vector<std::string>> table_;
  obs::BenchReport report_;
  std::optional<std::string> json_path_;
  std::optional<std::string> trace_out_;
  exec::ExecOptions exec_;
  std::unique_ptr<exec::ThreadPool> pool_;
};

/// The knowledge levels the experiments sweep, in increasing order.
struct KnowledgeLevel {
  std::string label;
  std::function<ViewFunction(const Graph&)> build;
};

inline std::vector<KnowledgeLevel> knowledge_ladder() {
  return {
      {"ad hoc", [](const Graph& g) { return ViewFunction::ad_hoc(g); }},
      {"1-hop", [](const Graph& g) { return ViewFunction::k_hop(g, 1); }},
      {"2-hop", [](const Graph& g) { return ViewFunction::k_hop(g, 2); }},
      {"full", [](const Graph& g) { return ViewFunction::full(g); }},
  };
}

/// A fresh strategy instance by name; unknown names throw, so a typo
/// cannot silently mislabel a bench row as some other attack.
using sim::make_strategy;

inline std::vector<std::string> all_strategies() {
  return {"silent", "value-flip", "random-lies", "phantom-world", "two-faced"};
}

/// Random instance family used across experiments: connected G(n,p), a
/// random general structure keeping D = 0 and R = n-1 honest.
inline Instance random_instance(std::size_t n, std::size_t sets, std::size_t set_size,
                                const ViewFunction& gamma, const Graph& g, Rng& rng) {
  AdversaryStructure z = random_structure(g.nodes(), sets, set_size,
                                          NodeSet{0, NodeId(n - 1)}, rng);
  return Instance(g, std::move(z), gamma, 0, NodeId(n - 1));
}

}  // namespace rmt::bench
