// check/fuzz.hpp — the seed-driven structured fuzzer behind rmt_fuzz and
// the fuzz_smoke ctest gate.
//
// Two loops, both deterministic in FuzzOptions::seed:
//
//   * Parser robustness: serialized instances from the corpus are mutated
//     byte-wise and token-wise, then fed through io::parse_instance_string.
//     The parser's contract under hostile bytes is: throw
//     std::invalid_argument (a clean, line-numbered rejection) or accept —
//     never crash, never throw anything else, and never accept-then-
//     diverge (an accepted mutant must serialize to a round-trip fixed
//     point and pass the deep audit validators). Every mutant also goes
//     through reference_parse_instance (check/reference_parser.hpp), the
//     stream-based original: both must accept or both reject, with the
//     same message, and accepted instances must serialize identically.
//
//     Each mutant is also embedded in an rmt.request/1 line and resolved
//     through one svc::InstanceMemo twice (cold, then as a hit) via
//     wire::parse_line, and once through the memo-free parse_request: all
//     three must accept or reject alike, with the same message and the
//     same instance key, and an accepted text must hit on its second
//     lookup (memo-diverged). Mutants one byte away from corpus texts are
//     exactly what a hash- or prefix-only memo would answer wrongly.
//
//   * Differential deciders: parsed mutants (topped up with seeded random
//     instances so the check count is deterministic) are pushed through
//     the shipped deciders vs the find_*_reference oracles — existence
//     AND witness must be bit-identical, for the RMT-cut, the Z-pp cut and
//     the two-cover — and through a memoizing svc::Engine, where the
//     cached, coalesced and no-cache answers for one instance_key must be
//     byte-identical. The oracles' answers must obey both implications,
//     Z-CPA solvable ⇒ RMT solvable (zcpa-implication-violated) and RMT
//     solvable ⇒ full-knowledge solvable (full-implication-violated), and
//     the engine's `analyze` answer — which skips the implied decider —
//     must equal the one formatted from all three oracles
//     (analyze-diverged). This path never skips a decider. The same
//     instances feed a membership-kernel differential:
//     AdversaryStructure::probe_batch vs per-candidate contains, under the
//     compiled vector backend and again with simd::force_scalar — four
//     answers per probe, one truth.
//
//   * Store images: synthetic record logs (header_line + encode_record,
//     valid by construction) are truncated, bit-flipped, spliced and
//     length-bombed, then fed through store::scan_bytes. The loader's
//     contract under hostile bytes mirrors the parser's: throw
//     std::invalid_argument (the identity line is not ours) or return a
//     scan whose surviving records re-encode byte-identically, whose torn
//     tail carries a precise error, that passes rmt::audit::validate
//     against the image, and whose repaired prefix rescans to the same
//     records without tearing again (repair is idempotent — the exact
//     recovery a restarted server performs).
//
//   * Cache-entry codec: byte strings built from the codec's own parts —
//     token fragments and token prefixes, lowercase hex runs of 0–600
//     digits (across the 255-digit run limit), raw bytes that need
//     escapes, and real cache keys and answers of all four kinds with one
//     byte mutated — go through svc::codec: decode(encode(x)) must be x,
//     consuming exactly the encoding, match() must accept x and reject x
//     with one byte changed (codec-diverged).
//
// The parser, memo, deciders and codec under test are injectable
// (FuzzOptions::parser / memo / rmt_decider / zpp_decider /
// two_cover_decider / codec_encode) so the harness can prove it *catches*
// a deliberately broken one — that self-test is wired as the
// fuzz_selftest ctest and `rmt_fuzz --self-test`.
//
// Every divergence becomes a FuzzFinding carrying the offending serialized
// instance: rmt_fuzz writes them to the artifact directory, and minimized
// ones get checked into tests/fuzz_corpus/regressions/ as permanent
// parser-hardening cases.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/feasibility.hpp"
#include "instance/instance.hpp"
#include "svc/instance_memo.hpp"
#include "util/rng.hpp"

namespace rmt::propcheck {

struct FuzzOptions {
  std::uint64_t seed = 0x5eedc0de;   ///< root of every derived stream (frozen)
  std::size_t parser_mutants = 10000;  ///< mutants fed through the parser
  std::size_t diff_checks = 500;       ///< differential decider/svc checks
  std::size_t store_checks = 500;      ///< mutated store images fed to scan_bytes
  /// Instances above this size skip the exact deciders (they are
  /// exponential); parser checks still run. Must be <= analysis::kMaxExactNodes.
  std::size_t max_exact_nodes = 8;
  std::size_t svc_workers = 2;  ///< engine pool width (0 = sequential)
  /// Extra corpus entries (serialized instances) on top of builtin_corpus().
  std::vector<std::string> corpus;
  /// Parser under differential test against reference_parse_instance;
  /// null = io::parse_instance_string. The self-test injects a broken one.
  std::function<Instance(const std::string&)> parser;
  /// Makes the memo under differential test against parse_request, given
  /// its byte budget; null = svc::InstanceMemo. The self-test injects an
  /// inexact one.
  std::function<std::unique_ptr<svc::InstanceMemo>(std::size_t max_bytes)> memo;
  /// Deciders under differential test; null = the optimized find_rmt_cut /
  /// find_rmt_zpp_cut. Tests inject broken ones to prove detection.
  std::function<std::optional<analysis::RmtCutWitness>(const Instance&)> rmt_decider;
  std::function<std::optional<analysis::ZppCutWitness>(const Instance&)> zpp_decider;
  /// Two-cover under differential test against find_two_cover_cut_reference;
  /// null = find_two_cover_cut.
  std::function<std::optional<analysis::TwoCoverWitness>(const Graph&, const AdversaryStructure&,
                                                         NodeId, NodeId)>
      two_cover_decider;
  /// Cache-entry encoder under test against svc::codec's decode and
  /// match; null = svc::codec::encode. The self-test injects a lossy one.
  std::function<std::string(std::string_view)> codec_encode;
};

/// One divergence/contract violation, with everything needed to reproduce.
struct FuzzFinding {
  std::string kind;    ///< parser-crash | parser-diverged | memo-diverged
                       ///< | roundtrip-diverged
                       ///< | audit-violation | decider-diverged
                       ///< | zcpa-implication-violated
                       ///< | full-implication-violated | analyze-diverged
                       ///< | kernel-diverged | svc-diverged
                       ///< | generator-invalid | store-crash
                       ///< | store-roundtrip-diverged | store-audit-violation
                       ///< | store-repair-diverged | codec-diverged
  std::string detail;  ///< human explanation (exception text, mismatch shape)
  std::string input;   ///< the serialized instance / mutant bytes involved
  std::uint64_t seed = 0;   ///< the derived seed of the failing unit
  std::size_t index = 0;    ///< unit index within its loop
};

struct FuzzReport {
  std::size_t parser_mutants = 0;    ///< mutants fed to the parser
  std::size_t parsed_ok = 0;         ///< accepted by the parser
  std::size_t rejected = 0;          ///< clean std::invalid_argument rejections
  std::size_t memo_checks = 0;       ///< mutants resolved through the memo
  std::size_t roundtrip_checks = 0;  ///< serialize∘parse fixed-point checks run
  std::size_t audit_checks = 0;      ///< deep-validator passes over accepted mutants
  std::size_t diff_checks = 0;       ///< differential decider/svc checks run
  std::size_t kernel_probes = 0;     ///< probe_batch-vs-contains probes compared
  std::size_t store_checks = 0;      ///< mutated store images scanned
  std::size_t store_rejected = 0;    ///< hostile identity lines cleanly rejected
  std::size_t store_repaired = 0;    ///< scans that tore and kept a valid prefix
  std::size_t store_records = 0;     ///< surviving records round-trip-checked
  std::size_t codec_checks = 0;      ///< strings round-tripped through the entry codec
  std::vector<FuzzFinding> findings;

  bool ok() const { return findings.empty(); }
  /// One-line outcome, e.g.
  /// "fuzz: 10000 parser mutants (812 parsed, 9188 rejected), 10000 memo
  ///  checks, ..., 500 differential checks, ..., 0 findings".
  std::string summary() const;
};

/// Run both loops. Deterministic: the report (including findings and their
/// order) is a pure function of `opts`.
FuzzReport run_fuzz(const FuzzOptions& opts);

/// The frozen built-in seed corpus: small serialized instances covering
/// every directive of the format (edges, corruptible sets, adhoc / full /
/// k-hop / custom knowledge, view and view-edge extras).
std::vector<std::string> builtin_corpus();

/// Read every regular file in `dir` (sorted by name) as a corpus entry.
/// Throws std::invalid_argument when the directory cannot be read.
std::vector<std::string> load_corpus_dir(const std::string& dir);

/// Apply one seeded mutation step (byte-wise or token-wise, chosen by the
/// rng) to `text`. Exposed for tests; run_fuzz stacks 1–4 of these.
std::string mutate(const std::string& text, Rng& rng);

/// Write each finding as two files under `dir` (created if needed):
/// finding-NNN-<kind>.rmt (the input) and finding-NNN-<kind>.txt (the
/// detail + repro seed). Returns the file count written.
std::size_t write_artifacts(const std::string& dir, const std::vector<FuzzFinding>& findings);

}  // namespace rmt::propcheck
