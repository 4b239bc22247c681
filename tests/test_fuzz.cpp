// tests/test_fuzz.cpp — the structured fuzzer library behind rmt_fuzz.
//
// The bounded-time CI gate (fuzz_smoke, 10k mutants + 500 differential
// checks) runs the rmt_fuzz *binary*; these tests cover the library
// contracts underneath it: determinism of the mutation streams, detection
// of a deliberately broken decider or memo, corpus loading, and artifact
// layout.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/rmt_cut.hpp"
#include "check/fuzz.hpp"
#include "graph/connectivity.hpp"
#include "io/serialize.hpp"
#include "util/rng.hpp"

namespace rmt::propcheck {
namespace {

FuzzOptions small_options() {
  FuzzOptions opts;
  opts.parser_mutants = 400;
  opts.diff_checks = 40;
  opts.store_checks = 120;
  return opts;
}

TEST(Fuzz, SmallRunIsCleanAndCountsAddUp) {
  const FuzzOptions opts = small_options();
  const FuzzReport report = run_fuzz(opts);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.parser_mutants, 400u);
  EXPECT_EQ(report.parsed_ok + report.rejected, report.parser_mutants);
  EXPECT_EQ(report.memo_checks, report.parser_mutants);
  EXPECT_GT(report.parsed_ok, 0u) << "no mutant ever parsed — mutators too hot?";
  EXPECT_GT(report.rejected, 0u) << "no mutant ever rejected — mutators too cold?";
  // Every accepted mutant is round-trip- and audit-checked (audits can
  // exceed parsed_ok: generated top-up instances are audited too).
  EXPECT_EQ(report.roundtrip_checks, report.parsed_ok);
  EXPECT_GE(report.audit_checks, report.parsed_ok);
  EXPECT_EQ(report.diff_checks, 40u);
  // Every differential check also compares probe_batch against
  // per-candidate contains under both simd backends.
  EXPECT_GE(report.kernel_probes, 8 * report.diff_checks);
  EXPECT_EQ(report.store_checks, 120u);
}

TEST(FuzzStore, ImagesExerciseRejectRepairAndRoundtrip) {
  // The store loop is only a gate if its mutants actually reach all three
  // outcomes: hostile identity lines cleanly rejected, torn tails repaired,
  // and surviving records round-trip-checked — a stream that always lands
  // in one bucket is testing nothing.
  const FuzzReport report = run_fuzz(small_options());
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_GT(report.store_rejected, 0u) << "no image ever rejected — mutators too cold?";
  EXPECT_GT(report.store_repaired, 0u) << "no scan ever tore — mutators too cold?";
  EXPECT_GT(report.store_records, 0u) << "no record ever survived — mutators too hot?";
  EXPECT_LT(report.store_rejected, report.store_checks)
      << "every image rejected — mutators too hot?";
}

TEST(FuzzStore, StoreKnobDoesNotShiftOtherStreams) {
  // kStoreDomain is independent of kMutantDomain/kDiffDomain: growing the
  // store budget must not re-seed the parser or differential loops.
  FuzzOptions a = small_options();
  FuzzOptions b = small_options();
  b.store_checks = 30;
  const FuzzReport ra = run_fuzz(a);
  const FuzzReport rb = run_fuzz(b);
  EXPECT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra.parsed_ok, rb.parsed_ok);
  EXPECT_EQ(ra.kernel_probes, rb.kernel_probes);
  EXPECT_EQ(rb.store_checks, 30u);
}

TEST(Fuzz, ReportIsDeterministicInSeed) {
  const FuzzOptions opts = small_options();
  const FuzzReport a = run_fuzz(opts);
  const FuzzReport b = run_fuzz(opts);
  EXPECT_EQ(a.summary(), b.summary());
  EXPECT_EQ(a.parsed_ok, b.parsed_ok);
  EXPECT_EQ(a.rejected, b.rejected);

  FuzzOptions other = opts;
  other.seed = 7;
  const FuzzReport c = run_fuzz(other);
  // A different root seed drives different mutants; the accept/reject split
  // almost surely moves (and if it ever collides, the summary says so).
  EXPECT_TRUE(c.ok()) << c.summary();
}

TEST(Fuzz, MutantCountDoesNotShiftDifferentialStream) {
  // The two loops derive from separate domains: growing the parser budget
  // must not re-seed the differential checks (CI can scale one knob without
  // invalidating the other's known-clean baseline).
  FuzzOptions a = small_options();
  FuzzOptions b = small_options();
  b.parser_mutants = 150;
  const FuzzReport ra = run_fuzz(a);
  const FuzzReport rb = run_fuzz(b);
  EXPECT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra.diff_checks, rb.diff_checks);
}

TEST(Fuzz, CatchesDeliberatelyBrokenDecider) {
  // The harness self-test: invert the reference's existence answer and the
  // differential loop must produce decider-diverged findings.
  FuzzOptions opts = small_options();
  opts.parser_mutants = 100;
  opts.rmt_decider =
      [](const Instance& inst) -> std::optional<analysis::RmtCutWitness> {
    if (analysis::find_rmt_cut_reference(inst).has_value()) return std::nullopt;
    return analysis::RmtCutWitness{};
  };
  const FuzzReport report = run_fuzz(opts);
  EXPECT_FALSE(report.ok()) << "broken decider slipped through";
  for (const FuzzFinding& f : report.findings) {
    EXPECT_EQ(f.kind, "decider-diverged");
    EXPECT_FALSE(f.input.empty()) << "finding lost its repro input";
  }
}

TEST(Fuzz, CatchesBrokenWitness) {
  // Subtler break: existence right, witness bits wrong. The differential
  // check must compare witnesses, not just has_value().
  FuzzOptions opts = small_options();
  opts.parser_mutants = 100;
  opts.rmt_decider =
      [](const Instance& inst) -> std::optional<analysis::RmtCutWitness> {
    auto w = analysis::find_rmt_cut_reference(inst);
    if (w) w->b.insert(inst.dealer());  // corrupt one witness component
    return w;
  };
  const FuzzReport report = run_fuzz(opts);
  EXPECT_FALSE(report.ok()) << "corrupted witness slipped through";
  EXPECT_EQ(report.findings.front().kind, "decider-diverged");
}

TEST(Fuzz, CatchesATwoCoverThatSkipsTheDiagonal) {
  // A two-cover scanning only pairs j > i misses every cut a single
  // maximal set covers alone; the two-cover differential must see it.
  FuzzOptions opts = small_options();
  opts.parser_mutants = 100;
  opts.two_cover_decider = [](const Graph& g, const AdversaryStructure& z, NodeId d,
                              NodeId r) -> std::optional<analysis::TwoCoverWitness> {
    const auto& sets = z.maximal_sets();
    for (std::size_t i = 0; i < sets.size(); ++i)
      for (std::size_t j = i + 1; j < sets.size(); ++j) {
        const NodeSet cut = sets[i] | sets[j];
        if (!cut.contains(d) && !cut.contains(r) && separates(g, cut, d, r))
          return analysis::TwoCoverWitness{sets[i], sets[j]};
      }
    return std::nullopt;
  };
  const FuzzReport report = run_fuzz(opts);
  EXPECT_FALSE(report.ok()) << "off-diagonal two-cover slipped through";
  for (const FuzzFinding& f : report.findings) {
    EXPECT_EQ(f.kind, "decider-diverged");
    EXPECT_EQ(f.detail.rfind("two-cover:", 0), 0u) << f.detail;
  }
}

/// Deliberately inexact: entries are indexed by a 4-bit digest of the
/// text, so any text with the same digest hits — a memo trusting a hash.
class HashOnlyMemo : public svc::InstanceMemo {
 public:
  using InstanceMemo::InstanceMemo;

 protected:
  static std::size_t digest(const std::string& text) {
    return std::hash<std::string>{}(text) % 16;
  }
  std::optional<Entry> find(const std::string& text) override {
    const auto it = entries_.find(digest(text));
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }
  void insert(const std::string& text, svc::InstanceKey key) override {
    entries_.emplace(digest(text), Entry{std::make_shared<const std::string>(text), key});
  }

 private:
  std::map<std::size_t, Entry> entries_;
};

TEST(Fuzz, CatchesAHashOnlyMemo) {
  FuzzOptions opts = small_options();
  opts.diff_checks = 0;
  opts.store_checks = 0;
  opts.memo = [](std::size_t max_bytes) -> std::unique_ptr<svc::InstanceMemo> {
    return std::make_unique<HashOnlyMemo>(max_bytes);
  };
  const FuzzReport report = run_fuzz(opts);
  EXPECT_FALSE(report.ok()) << "hash-only memo slipped through";
  for (const FuzzFinding& f : report.findings) EXPECT_EQ(f.kind, "memo-diverged");
}

TEST(Fuzz, MutateIsSeedDeterministicAndEventuallyChanges) {
  const std::string base = builtin_corpus().front();
  Rng a(99), b(99);
  bool changed = false;
  for (int i = 0; i < 32; ++i) {
    const std::string ma = mutate(base, a);
    EXPECT_EQ(ma, mutate(base, b));
    if (ma != base) changed = true;
  }
  EXPECT_TRUE(changed) << "32 mutations never altered the input";
}

TEST(Fuzz, BuiltinCorpusParsesAndCoversEveryKnowledgeKind) {
  const std::vector<std::string> corpus = builtin_corpus();
  ASSERT_GE(corpus.size(), 4u);
  bool adhoc = false, full = false, khop = false, custom = false;
  for (const std::string& text : corpus) {
    const Instance inst = io::parse_instance_string(text);  // must not throw
    EXPECT_EQ(io::serialize_instance(io::parse_instance_string(
                  io::serialize_instance(inst))),
              io::serialize_instance(inst));
    adhoc = adhoc || text.find("knowledge adhoc") != std::string::npos;
    full = full || text.find("knowledge full") != std::string::npos;
    khop = khop || text.find("knowledge k-hop") != std::string::npos;
    custom = custom || text.find("knowledge custom") != std::string::npos;
  }
  EXPECT_TRUE(adhoc && full && khop && custom)
      << "builtin corpus no longer covers every knowledge directive";
}

TEST(Fuzz, LoadCorpusDirReadsCheckedInSeeds) {
  const std::string dir =
      (std::filesystem::path(RMT_FUZZ_CORPUS_DIR) / "seeds").string();
  const std::vector<std::string> entries = load_corpus_dir(dir);
  EXPECT_GE(entries.size(), 3u);
  for (const std::string& text : entries)
    EXPECT_NO_THROW(io::parse_instance_string(text));
  EXPECT_THROW(load_corpus_dir("/nonexistent/corpus"), std::invalid_argument);
}

TEST(Fuzz, ExtraCorpusEntriesFeedTheMutator) {
  FuzzOptions opts = small_options();
  opts.corpus = load_corpus_dir(
      (std::filesystem::path(RMT_FUZZ_CORPUS_DIR) / "seeds").string());
  const FuzzReport report = run_fuzz(opts);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Fuzz, WriteArtifactsLaysOutReproPairs) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "rmt_fuzz_artifacts_test";
  std::filesystem::remove_all(dir);
  std::vector<FuzzFinding> findings;
  findings.push_back({"decider-diverged", "existence mismatch",
                      "rmt-instance v1\n", 42, 7});
  findings.push_back({"parser-crash", "std::logic_error", "nodes", 43, 9});
  const std::size_t written = write_artifacts(dir.string(), findings);
  EXPECT_EQ(written, 4u);  // one .rmt + one .txt per finding
  EXPECT_TRUE(std::filesystem::exists(dir / "finding-000-decider-diverged.rmt"));
  EXPECT_TRUE(std::filesystem::exists(dir / "finding-000-decider-diverged.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir / "finding-001-parser-crash.rmt"));
  std::ifstream in(dir / "finding-000-decider-diverged.rmt");
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "rmt-instance v1\n");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rmt::propcheck
