// tools/rmt_fuzz.cpp — the structured-fuzzer CLI over check/fuzz.hpp.
//
//   rmt_fuzz [--seed S] [--mutants N] [--diff-checks N] [--store-checks N]
//            [--max-nodes N] [--jobs N] [--corpus DIR]... [--artifacts DIR]
//            [--trace-out FILE] [--self-test]
//
// Runs the parser-robustness, differential-decider and store-image loops (see
// check/fuzz.hpp for the contracts) and prints the one-line report
// summary. Exit status: 0 when clean, 2 on findings (after writing each
// finding's input + detail under --artifacts and dumping the flight
// recorder to --trace-out), 1 on usage errors.
//
// --self-test proves the harness *detects* divergence: it runs a short
// differential pass with a deliberately-broken RMT decider (inverts the
// reference's answer) and expects decider-diverged findings, a parser pass
// with a deliberately-broken parser (it forgets the '#' comment rule) and
// expects parser-diverged findings, a parser pass with a key that skips the
// last view-edge line of the canonical text and expects key-diverged
// findings, a parser pass with an inexact memo (it
// matches texts on their first 32 bytes, as a hash- or prefix-only memo
// would) and expects memo-diverged findings, a differential pass with a
// two-cover that scans only pairs j > i (so it misses every cut one maximal
// set covers alone) and expects decider-diverged findings, a codec pass
// with a lossy entry encoder (it truncates lowercase hex runs at 254
// digits) and expects codec-diverged findings, then a clean pass with the
// real parser, key, memo, deciders and codec and expects none. Wired as
// the fuzz_selftest ctest — the fuzz gate is only trustworthy while this
// stays green.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/feasibility.hpp"
#include "check/fuzz.hpp"
#include "graph/connectivity.hpp"
#include "io/serialize.hpp"
#include "obs/trace.hpp"
#include "svc/entry_codec.hpp"
#include "svc/instance_key.hpp"

namespace {

using rmt::propcheck::FuzzOptions;
using rmt::propcheck::FuzzReport;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rmt_fuzz: " << why << "\n"
            << "usage: rmt_fuzz [--seed S] [--mutants N] [--diff-checks N]\n"
            << "                [--store-checks N] [--max-nodes N] [--jobs N]\n"
            << "                [--corpus DIR]... [--artifacts DIR]\n"
            << "                [--trace-out FILE] [--self-test]\n";
  std::exit(1);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    usage(flag + " needs a non-negative integer, got '" + value + "'");
  }
}

/// Deliberately inexact: an entry answers every text that shares its first
/// 32 bytes — what a memo trusting a hash or a prefix would do.
class PrefixMemo : public rmt::svc::InstanceMemo {
 public:
  using InstanceMemo::InstanceMemo;

 protected:
  std::optional<Entry> find(std::string_view text, std::size_t) override {
    const auto it = entries_.find(std::string(text.substr(0, 32)));
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }
  void insert(const std::string& text, std::size_t hash, rmt::svc::InstanceKey key) override {
    entries_.emplace(text.substr(0, 32),
                     Entry{std::make_shared<const std::string>(text), key, hash});
  }

 private:
  std::map<std::string, Entry> entries_;
};

/// Deliberately lossy: the key of the canonical text without its last
/// view-edge line, so two views that differ only there would share a key.
rmt::svc::InstanceKey key_without_last_view_edge(const rmt::Instance& inst) {
  std::string text = rmt::io::serialize_instance(inst);
  if (const std::size_t at = text.rfind("view-edge "); at != std::string::npos)
    text.erase(at, text.find('\n', at) + 1 - at);
  return rmt::svc::key_of_text(text);
}

/// Deliberately wrong: the two-cover scan without its diagonal (j > i only),
/// blind to every D–R cut a single maximal set covers on its own.
std::optional<rmt::analysis::TwoCoverWitness> off_diagonal_two_cover(
    const rmt::Graph& g, const rmt::AdversaryStructure& z, rmt::NodeId d, rmt::NodeId r) {
  const auto& sets = z.maximal_sets();
  for (std::size_t i = 0; i < sets.size(); ++i)
    for (std::size_t j = i + 1; j < sets.size(); ++j) {
      const rmt::NodeSet cut = sets[i] | sets[j];
      if (!cut.contains(d) && !cut.contains(r) && rmt::separates(g, cut, d, r))
        return rmt::analysis::TwoCoverWitness{sets[i], sets[j]};
    }
  return std::nullopt;
}

/// Deliberately lossy: every run of lowercase hex digits longer than 254
/// loses its tail before the real encoder sees it.
std::string truncating_hex_encode(std::string_view in) {
  std::string cut;
  std::size_t run = 0;
  for (const char c : in) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    run = hex ? run + 1 : 0;
    if (run <= 254) cut += c;
  }
  return rmt::svc::codec::encode(cut);
}

void print_findings(const FuzzReport& report) {
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const auto& f = report.findings[i];
    std::cerr << "finding " << i << ": " << f.kind << " (unit " << f.index << ", seed "
              << f.seed << "): " << f.detail << "\n";
  }
}

int self_test(FuzzOptions opts) {
  // Small but real: the broken decider must see enough instances to
  // diverge on at least one (any instance with a cut answer flips).
  opts.parser_mutants = 200;
  opts.diff_checks = 40;
  opts.store_checks = 80;
  FuzzOptions broken = opts;
  broken.rmt_decider = [](const rmt::Instance& inst) {
    // Deliberately wrong: report the opposite existence answer.
    const auto ref = rmt::analysis::find_rmt_cut_reference(inst);
    if (ref) return std::optional<rmt::analysis::RmtCutWitness>{};
    return std::optional<rmt::analysis::RmtCutWitness>{rmt::analysis::RmtCutWitness{}};
  };
  const FuzzReport caught = rmt::propcheck::run_fuzz(broken);
  bool saw_decider_finding = false;
  for (const auto& f : caught.findings) saw_decider_finding |= f.kind == "decider-diverged";
  if (!saw_decider_finding) {
    std::cerr << "self-test: broken decider was NOT caught (" << caught.summary() << ")\n";
    return 1;
  }
  FuzzOptions broken_parser = opts;
  broken_parser.diff_checks = 0;
  broken_parser.store_checks = 0;
  broken_parser.parser = [](const std::string& text) {
    // Deliberately wrong: '#' separates tokens instead of starting a comment.
    std::string uncommented = text;
    std::replace(uncommented.begin(), uncommented.end(), '#', ' ');
    return rmt::io::parse_instance_string(uncommented);
  };
  const FuzzReport parser_caught = rmt::propcheck::run_fuzz(broken_parser);
  bool saw_parser_finding = false;
  for (const auto& f : parser_caught.findings) saw_parser_finding |= f.kind == "parser-diverged";
  if (!saw_parser_finding) {
    std::cerr << "self-test: broken parser was NOT caught (" << parser_caught.summary()
              << ")\n";
    return 1;
  }
  FuzzOptions broken_key = opts;
  broken_key.diff_checks = 0;
  broken_key.store_checks = 0;
  broken_key.instance_key = key_without_last_view_edge;
  const FuzzReport key_caught = rmt::propcheck::run_fuzz(broken_key);
  bool saw_key_finding = false;
  for (const auto& f : key_caught.findings) saw_key_finding |= f.kind == "key-diverged";
  if (!saw_key_finding) {
    std::cerr << "self-test: lossy key was NOT caught (" << key_caught.summary() << ")\n";
    return 1;
  }
  FuzzOptions broken_memo = opts;
  broken_memo.diff_checks = 0;
  broken_memo.store_checks = 0;
  broken_memo.memo = [](std::size_t max_bytes) -> std::unique_ptr<rmt::svc::InstanceMemo> {
    return std::make_unique<PrefixMemo>(max_bytes);
  };
  const FuzzReport memo_caught = rmt::propcheck::run_fuzz(broken_memo);
  bool saw_memo_finding = false;
  for (const auto& f : memo_caught.findings) saw_memo_finding |= f.kind == "memo-diverged";
  if (!saw_memo_finding) {
    std::cerr << "self-test: inexact memo was NOT caught (" << memo_caught.summary() << ")\n";
    return 1;
  }
  FuzzOptions broken_cover = opts;
  broken_cover.parser_mutants = 0;
  broken_cover.store_checks = 0;
  broken_cover.two_cover_decider = off_diagonal_two_cover;
  const FuzzReport cover_caught = rmt::propcheck::run_fuzz(broken_cover);
  bool saw_cover_finding = false;
  for (const auto& f : cover_caught.findings)
    saw_cover_finding |= f.kind == "decider-diverged" && f.detail.rfind("two-cover:", 0) == 0;
  if (!saw_cover_finding) {
    std::cerr << "self-test: off-diagonal two-cover was NOT caught (" << cover_caught.summary()
              << ")\n";
    return 1;
  }
  FuzzOptions broken_codec = opts;
  broken_codec.parser_mutants = 0;
  broken_codec.diff_checks = 0;
  broken_codec.store_checks = 0;
  broken_codec.codec_encode = truncating_hex_encode;
  const FuzzReport codec_caught = rmt::propcheck::run_fuzz(broken_codec);
  bool saw_codec_finding = false;
  for (const auto& f : codec_caught.findings) saw_codec_finding |= f.kind == "codec-diverged";
  if (!saw_codec_finding) {
    std::cerr << "self-test: lossy codec was NOT caught (" << codec_caught.summary() << ")\n";
    return 1;
  }
  const FuzzReport clean = rmt::propcheck::run_fuzz(opts);
  if (!clean.ok()) {
    std::cerr << "self-test: real parser, key, memo, deciders and codec produced findings:\n";
    print_findings(clean);
    return 1;
  }
  std::cout << "self-test: broken decider caught (" << caught.findings.size()
            << " findings), broken parser caught (" << parser_caught.findings.size()
            << " findings), lossy key caught (" << key_caught.findings.size()
            << " findings), inexact memo caught (" << memo_caught.findings.size()
            << " findings), off-diagonal two-cover caught (" << cover_caught.findings.size()
            << " findings), lossy codec caught (" << codec_caught.findings.size()
            << " findings), real parser, key, memo, deciders and codec clean\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions opts;
  std::string artifacts;
  std::string trace_out;
  bool run_self_test = false;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage(a + " needs a value");
      return args[++i];
    };
    if (a == "--seed") opts.seed = parse_u64(a, value());
    else if (a == "--mutants") opts.parser_mutants = parse_u64(a, value());
    else if (a == "--diff-checks") opts.diff_checks = parse_u64(a, value());
    else if (a == "--store-checks") opts.store_checks = parse_u64(a, value());
    else if (a == "--max-nodes") opts.max_exact_nodes = parse_u64(a, value());
    else if (a == "--jobs") opts.svc_workers = parse_u64(a, value());
    else if (a == "--corpus") {
      try {
        for (std::string& entry : rmt::propcheck::load_corpus_dir(value()))
          opts.corpus.push_back(std::move(entry));
      } catch (const std::exception& e) {
        usage(e.what());
      }
    } else if (a == "--artifacts") artifacts = value();
    else if (a == "--trace-out") trace_out = value();
    else if (a == "--self-test") run_self_test = true;
    else usage("unknown flag '" + a + "'");
  }

  if (!trace_out.empty()) {
    rmt::obs::trace::Recorder::global().set_dump_path(trace_out);
    rmt::obs::trace::install_crash_handler();
  }

  if (run_self_test) return self_test(opts);

  const FuzzReport report = rmt::propcheck::run_fuzz(opts);
  std::cout << report.summary() << "\n";
  if (report.ok()) return 0;

  print_findings(report);
  if (!artifacts.empty()) {
    const std::size_t files = rmt::propcheck::write_artifacts(artifacts, report.findings);
    std::cerr << "wrote " << files << " artifact file(s) under " << artifacts << "\n";
  }
  if (!trace_out.empty()) rmt::obs::trace::Recorder::global().dump_now("fuzz-finding");
  return 2;
}
