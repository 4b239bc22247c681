// tools/rmt_cli — command-line front end over instance files.
//
// Subcommands: see kSubcommands below — the usage text is generated from
// that one table, so help and dispatch cannot drift apart.
//
// Observability flags (analyze/run):
//   --stats              print per-phase timing table after the command
//   --json <path|->      write a machine-readable report (rmt.analyze/1
//                        or rmt.run/1 schema, incl. the metrics snapshot)
//   --jsonl-trace <path> (run only) write the delivery transcript as JSONL
//   --trace-out <path>   enable span tracing (obs/trace.hpp) and dump the
//                        flight recorder as rmt.trace/1 JSONL on exit
//   --no-cache           (decide only) bypass the svc result cache
//
// Instance file format: see src/io/serialize.hpp. Exit code 0 on success,
// 1 on usage errors, 2 on malformed input, 3 when `validate` found an
// invariant violation.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/design_tool.hpp"
#include "analysis/feasibility.hpp"
#include "analysis/minimal_knowledge.hpp"
#include "graph/graphviz.hpp"
#include "io/serialize.hpp"
#include "obs/json.hpp"
#include "obs/jsonl_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "protocols/rmt_pka.hpp"
#include "protocols/runner.hpp"
#include "sim/strategies.hpp"
#include "store/format.hpp"
#include "store/store.hpp"
#include "svc/engine.hpp"
#include "svc/wire.hpp"
#include "util/audit.hpp"
#include "util/fmt.hpp"

namespace {

using namespace rmt;

/// The one subcommand table: dispatch names main() matches and the usage
/// text are both derived from it.
struct Subcommand {
  const char* name;
  const char* args;
  const char* help;
};
constexpr Subcommand kSubcommands[] = {
    {"analyze", "<file>", "feasibility report (all deciders)"},
    {"run", "<file> <x> [T..]", "run RMT-PKA with value x, corrupting T (two-faced attack)"},
    {"decide", "<file> [rmt|zpp|analyze]", "answer via svc::Engine; rmt.response/1 on stdout"},
    {"region", "<file>", "per-receiver reliable region"},
    {"dot", "<file>", "Graphviz of the instance"},
    {"minimize", "<file>", "greedy minimal sufficient views"},
    {"validate", "<file>", "deep invariant validators (rmt::audit)"},
    {"store", "merge|compact|dump <dir>..", "persistent result store maintenance"},
};

int usage() {
  std::string names;
  std::string lines;
  for (const Subcommand& s : kSubcommands) {
    names += names.empty() ? "" : "|";
    names += s.name;
    char row[160];
    std::snprintf(row, sizeof row, "  rmt_cli %-8s %-22s %s\n", s.name, s.args, s.help);
    lines += row;
  }
  std::fprintf(stderr,
               "usage: rmt_cli <%s> <instance-file> [args]\n%s"
               "flags: --stats | --json <path|-> | --jsonl-trace <path> (run only)\n"
               "       --trace-out <path> | --no-cache (decide only)\n",
               names.c_str(), lines.c_str());
  return 1;
}

struct ObsFlags {
  bool stats = false;
  bool no_cache = false;
  std::optional<std::string> json_path;
  std::optional<std::string> jsonl_trace_path;
  std::optional<std::string> trace_out_path;
};

/// Strip the observability flags out of argv (any position).
ObsFlags consume_obs_flags(int& argc, char** argv) {
  ObsFlags flags;
  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stats") {
      flags.stats = true;
    } else if (arg == "--no-cache") {
      flags.no_cache = true;
    } else if (arg == "--json" || arg == "--jsonl-trace" || arg == "--trace-out") {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " requires a path argument");
      (arg == "--json" ? flags.json_path
                       : arg == "--jsonl-trace" ? flags.jsonl_trace_path
                                                : flags.trace_out_path) = argv[++i];
    } else {
      argv[w++] = argv[i];
    }
  }
  argc = w;
  return flags;
}

/// Where the human-readable summary goes: stderr when the JSON document
/// owns stdout (`--json -`), so piped output stays machine-parseable.
FILE* human_out(const ObsFlags& flags) {
  return flags.json_path && *flags.json_path == "-" ? stderr : stdout;
}

void emit_document(const std::string& doc, const std::string& path) {
  if (path == "-") {
    std::printf("%s\n", doc.c_str());
    return;
  }
  std::ofstream out(path);
  if (!out) throw std::invalid_argument("cannot open " + path + " for writing");
  out << doc << '\n';
}

void print_phase_stats(FILE* hout) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"phase", "count", "total(us)", "mean(us)", "p95(us)", "max(us)"});
  for (const auto& e : obs::Registry::global().entries()) {
    if (e.kind != obs::Registry::Entry::Kind::kHistogram || e.name.rfind("phase.", 0) != 0)
      continue;
    const obs::Histogram& h = *e.histogram;
    rows.push_back({e.name.substr(6), std::to_string(h.count()), fmt::fixed(h.sum(), 1),
                    fmt::fixed(h.mean(), 1), fmt::fixed(h.p95(), 1), fmt::fixed(h.max(), 1)});
  }
  if (rows.size() == 1) {
    std::fprintf(hout, "\n(no phases recorded)\n");
    return;
  }
  std::fprintf(hout, "\n## phase timings\n\n%s", fmt::table(rows).c_str());
}

void write_network_stats(obs::json::Writer& w, const sim::NetworkStats& s) {
  w.begin_object();
  w.field("rounds", s.rounds);
  w.field("honest_messages", s.honest_messages);
  w.field("adversary_messages", s.adversary_messages);
  w.field("adversary_dropped", s.adversary_dropped);
  w.field("honest_payload_bytes", s.honest_payload_bytes);
  w.field("adversary_payload_bytes", s.adversary_payload_bytes);
  w.field("peak_round_messages", s.peak_round_messages);
  w.field("quiet_rounds", s.quiet_rounds);
  w.end_object();
}

void write_phase_profile(obs::json::Writer& w, const obs::PhaseProfile& p) {
  w.begin_object();
  for (const auto& [name, s] : p.phases()) {
    w.key(name).begin_object();
    w.field("count", s.count);
    w.field("total_us", s.total_us);
    w.field("max_us", s.max_us);
    w.end_object();
  }
  w.end_object();
}

int cmd_analyze(const Instance& inst, const ObsFlags& flags) {
  FILE* hout = human_out(flags);
  std::fprintf(hout, "instance: %zu players, %zu channels, D=%u, R=%u, |Z|max=%zu sets\n",
               inst.num_players(), inst.graph().num_edges(), inst.dealer(), inst.receiver(),
               inst.adversary().num_maximal_sets());
  const auto rmt_cut = analysis::find_rmt_cut(inst);
  std::fprintf(hout, "RMT solvable (no RMT-cut): %s\n", rmt_cut ? "no" : "yes");
  if (rmt_cut)
    std::fprintf(hout, "  witness: C1=%s C2=%s receiver-side B=%s\n",
                 rmt_cut->c1.to_string().c_str(), rmt_cut->c2.to_string().c_str(),
                 rmt_cut->b.to_string().c_str());
  const auto zpp = analysis::find_rmt_zpp_cut(inst);
  std::fprintf(hout, "Z-CPA solvable (no RMT Z-pp cut): %s\n", zpp ? "no" : "yes");
  const bool full_solvable = analysis::solvable_full_knowledge(
      inst.graph(), inst.adversary(), inst.dealer(), inst.receiver());
  std::fprintf(hout, "full-knowledge solvable (no two-cover): %s\n", full_solvable ? "yes" : "no");

  if (flags.json_path) {
    obs::json::Writer w;
    w.begin_object();
    w.field("schema", "rmt.analyze/1");
    w.key("instance").begin_object();
    w.field("players", inst.num_players());
    w.field("channels", inst.graph().num_edges());
    w.field("dealer", std::uint64_t(inst.dealer()));
    w.field("receiver", std::uint64_t(inst.receiver()));
    w.field("maximal_sets", inst.adversary().num_maximal_sets());
    w.end_object();
    w.field("rmt_solvable", !rmt_cut.has_value());
    w.key("rmt_cut_witness");
    if (rmt_cut) {
      w.begin_object();
      w.field("c1", rmt_cut->c1.to_string());
      w.field("c2", rmt_cut->c2.to_string());
      w.field("b", rmt_cut->b.to_string());
      w.end_object();
    } else {
      w.null();
    }
    w.field("zcpa_solvable", !zpp.has_value());
    w.field("full_knowledge_solvable", full_solvable);
    w.key("metrics").raw_value(obs::snapshot_json(obs::Registry::global()));
    w.end_object();
    emit_document(w.take(), *flags.json_path);
  }
  return 0;
}

int cmd_run(const Instance& inst, int argc, char** argv, const ObsFlags& flags) {
  if (argc < 1) return usage();
  const sim::Value x = std::strtoull(argv[0], nullptr, 10);
  NodeSet corrupted;
  for (int i = 1; i < argc; ++i) corrupted.insert(NodeId(std::strtoul(argv[i], nullptr, 10)));
  if (!inst.admissible_corruption(corrupted)) {
    std::fprintf(stderr, "corruption set %s is not admissible under Z\n",
                 corrupted.to_string().c_str());
    return 2;
  }
  std::ofstream trace_out;
  std::optional<obs::JsonlTraceObserver> trace;
  if (flags.jsonl_trace_path) {
    trace_out.open(*flags.jsonl_trace_path);
    if (!trace_out)
      throw std::invalid_argument("cannot open " + *flags.jsonl_trace_path + " for writing");
    trace.emplace(trace_out);
  }
  sim::TwoFacedStrategy attack;
  const protocols::Outcome out = protocols::run_rmt(inst, protocols::RmtPka{}, x, corrupted,
                                                    &attack, 0, trace ? &*trace : nullptr);
  if (out.decision)
    std::fprintf(human_out(flags), "decision: %llu (%s) — rounds=%zu messages=%zu bytes=%zu\n",
                 static_cast<unsigned long long>(*out.decision),
                 out.correct ? "correct" : "WRONG", out.stats.rounds,
                 out.stats.honest_messages, out.stats.honest_payload_bytes);
  else
    std::fprintf(human_out(flags), "no decision (safe abstention) — rounds=%zu\n",
                 out.stats.rounds);

  if (flags.json_path) {
    obs::json::Writer w;
    w.begin_object();
    w.field("schema", "rmt.run/1");
    w.field("protocol", "RMT-PKA");
    w.field("dealer_value", std::uint64_t(x));
    w.field("corrupted", corrupted.to_string());
    w.key("decision");
    if (out.decision) {
      w.value(std::uint64_t(*out.decision));
    } else {
      w.null();
    }
    w.field("correct", out.correct);
    w.field("wrong", out.wrong);
    w.key("stats");
    write_network_stats(w, out.stats);
    w.key("phases");
    write_phase_profile(w, out.phases);
    w.key("metrics").raw_value(obs::snapshot_json(obs::Registry::global()));
    w.end_object();
    emit_document(w.take(), *flags.json_path);
  }
  return 0;
}

int cmd_decide(const Instance& inst, int argc, char** argv, const ObsFlags& flags) {
  std::string kind_name = argc >= 1 ? argv[0] : "rmt";
  if (kind_name == "rmt") kind_name = "decide_rmt";
  if (kind_name == "zpp") kind_name = "decide_zpp";
  const std::optional<svc::QueryKind> kind = svc::parse_query_kind(kind_name);
  if (!kind || *kind == svc::QueryKind::kSimulate) return usage();
  svc::Engine engine(nullptr);  // one-shot: sequential, default cache
  std::vector<svc::Request> batch;
  batch.push_back(svc::Request{*kind, inst, {}, std::nullopt, flags.no_cache});
  const std::vector<svc::Response> responses = engine.run(batch);
  std::printf("%s\n", svc::wire::format_response("cli", responses[0]).c_str());
  return responses[0].status == svc::Response::Status::kOk ? 0 : 2;
}

int cmd_region(const Instance& inst) {
  for (const auto& rep : analysis::receiver_reports(inst.graph(), inst.adversary(),
                                                    inst.gamma(), inst.dealer()))
    std::printf("receiver %u: %s\n", rep.receiver,
                rep.corruptible ? "corruptible (excluded)"
                                : (rep.solvable ? "reachable" : "unreachable"));
  return 0;
}

int cmd_dot(const Instance& inst) {
  DotOptions opts;
  opts.highlight = inst.adversary().support();
  opts.labels[inst.dealer()] = "D";
  opts.labels[inst.receiver()] = "R";
  std::printf("%s", to_dot(inst.graph(), opts).c_str());
  return 0;
}

int cmd_validate(const Instance& inst, const ObsFlags& flags) {
  const std::vector<audit::Diagnostic> diags = audit::check_instance(inst);
  FILE* hout = human_out(flags);
  if (diags.empty()) {
    std::fprintf(hout, "valid: all deep invariants hold (%zu players, %zu channels)\n",
                 inst.num_players(), inst.graph().num_edges());
  } else {
    for (const audit::Diagnostic& d : diags)
      std::fprintf(hout, "invalid [%s]: %s\n", d.component.c_str(), d.message.c_str());
  }

  if (flags.json_path) {
    obs::json::Writer w;
    w.begin_object();
    w.field("schema", "rmt.validate/1");
    w.key("instance").begin_object();
    w.field("players", inst.num_players());
    w.field("channels", inst.graph().num_edges());
    w.field("dealer", std::uint64_t(inst.dealer()));
    w.field("receiver", std::uint64_t(inst.receiver()));
    w.field("maximal_sets", inst.adversary().num_maximal_sets());
    w.end_object();
    w.field("valid", diags.empty());
    w.key("diagnostics").begin_array();
    for (const audit::Diagnostic& d : diags) {
      w.begin_object();
      w.field("component", d.component);
      w.field("message", d.message);
      w.end_object();
    }
    w.end_array();
    w.key("metrics").raw_value(obs::snapshot_json(obs::Registry::global()));
    w.end_object();
    emit_document(w.take(), *flags.json_path);
  }
  return diags.empty() ? 0 : 3;
}

/// `store` maintenance verbs. These never parse an instance file, so
/// main() dispatches here before io::load_instance.
///
///   store merge <dst-dir> <src-dir>   fold src into dst (LWW by seq;
///                                     value divergence on a shared key
///                                     is a hard failure, exit 3)
///   store compact <dir>               rewrite the log to live records
///   store dump <dir> [--json <path|->]  rmt.store/1 JSONL inventory
int cmd_store(int argc, char** argv, const ObsFlags& flags) {
  if (argc < 2) return usage();
  const std::string verb = argv[0];
  const std::string dir = argv[1];
  if (verb == "merge") {
    if (argc < 3) return usage();
    store::Options opts;
    opts.dir = dir;
    store::Store dst(opts);
    store::MergeReport report;
    try {
      report = store::merge(dst, argv[2]);
    } catch (const std::runtime_error& e) {
      // Divergence: the stores disagree on the bytes of a shared key.
      // That is a data-integrity violation, never a mergeable state.
      std::fprintf(stderr, "MERGE FAILED: %s\n", e.what());
      return 3;
    }
    const store::Stats st = dst.stats();
    std::printf("merged %s into %s: %llu scanned, %llu appended, %llu identical; "
                "now %llu live records (%llu bytes, generation %llu)\n",
                argv[2], dir.c_str(), static_cast<unsigned long long>(report.scanned),
                static_cast<unsigned long long>(report.appended),
                static_cast<unsigned long long>(report.skipped_equal),
                static_cast<unsigned long long>(st.live_records),
                static_cast<unsigned long long>(st.bytes),
                static_cast<unsigned long long>(st.generation));
    return 0;
  }
  if (verb == "compact") {
    store::Options opts;
    opts.dir = dir;
    store::Store s(opts);
    const store::Stats before = s.stats();
    s.compact();
    const store::Stats after = s.stats();
    std::printf("compacted %s: %llu -> %llu bytes, %llu live records, generation %llu\n",
                dir.c_str(), static_cast<unsigned long long>(before.bytes),
                static_cast<unsigned long long>(after.bytes),
                static_cast<unsigned long long>(after.live_records),
                static_cast<unsigned long long>(after.generation));
    return 0;
  }
  if (verb == "dump") {
    // Read-only inventory: scan the log without opening a Store, so a
    // torn tail is reported, not repaired.
    std::ifstream in(dir + "/store.log", std::ios::binary);
    if (!in) throw std::invalid_argument("cannot open " + dir + "/store.log");
    std::string image((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const store::ScanResult scan = store::scan_bytes(image);
    // Newest seq per key decides liveness (ties broken by file order).
    std::map<std::string, std::size_t> newest;
    for (std::size_t i = 0; i < scan.records.size(); ++i) {
      const auto it = newest.find(scan.records[i].key);
      if (it == newest.end() || scan.records[i].seq >= scan.records[it->second].seq)
        newest[scan.records[i].key] = i;
    }
    std::string doc;
    {
      obs::json::Writer w;
      w.begin_object();
      w.field("schema", "rmt.store/1");
      w.field("generation", scan.generation);
      w.field("records", scan.records.size());
      w.field("live_records", newest.size());
      w.field("bytes", std::uint64_t(image.size()));
      w.field("valid_prefix", std::uint64_t(scan.valid_prefix));
      w.field("torn", scan.torn);
      w.end_object();
      doc = w.take();
    }
    for (std::size_t i = 0; i < scan.records.size(); ++i) {
      const store::RecordRef& r = scan.records[i];
      obs::json::Writer w;
      w.begin_object();
      w.field("schema", "rmt.store/1");
      w.field("key", r.key);
      w.field("seq", r.seq);
      w.field("value_len", std::uint64_t(r.value_len));
      char hex[17];
      std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(r.checksum));
      w.field("checksum", hex);
      w.field("live", newest.at(r.key) == i);
      w.end_object();
      doc += '\n';
      doc += w.take();
    }
    emit_document(doc, flags.json_path ? *flags.json_path : "-");
    return 0;
  }
  return usage();
}

int cmd_minimize(const Instance& inst) {
  const auto result = analysis::find_minimal_sufficient_view(inst);
  if (!result) {
    std::printf("instance is unsolvable — no sufficient view function below γ\n");
    return 0;
  }
  std::printf("shed %zu view edges and %zu known nodes; minimal instance:\n\n%s",
              result->removed_edges, result->removed_nodes,
              io::serialize_instance(Instance(inst.graph(), inst.adversary(), result->gamma,
                                              inst.dealer(), inst.receiver()))
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ObsFlags flags = consume_obs_flags(argc, argv);
    if (argc < 3) return usage();
    // Phase timing and the JSON reports both read the metrics registry, so
    // observability goes on whenever either surface was requested.
    if (flags.stats || flags.json_path) obs::set_enabled(true);
    if (flags.trace_out_path) obs::trace::set_enabled(true);
    // The store verbs operate on store directories, not instance files.
    if (!std::strcmp(argv[1], "store")) return cmd_store(argc - 2, argv + 2, flags);
    const Instance inst = io::load_instance(argv[2]);
    int rc = 1;
    if (!std::strcmp(argv[1], "analyze")) {
      rc = cmd_analyze(inst, flags);
    } else if (!std::strcmp(argv[1], "run")) {
      rc = cmd_run(inst, argc - 3, argv + 3, flags);
    } else if (!std::strcmp(argv[1], "decide")) {
      rc = cmd_decide(inst, argc - 3, argv + 3, flags);
    } else if (!std::strcmp(argv[1], "region")) {
      rc = cmd_region(inst);
    } else if (!std::strcmp(argv[1], "dot")) {
      rc = cmd_dot(inst);
    } else if (!std::strcmp(argv[1], "minimize")) {
      rc = cmd_minimize(inst);
    } else if (!std::strcmp(argv[1], "validate") || !std::strcmp(argv[1], "--validate")) {
      rc = cmd_validate(inst, flags);
    } else {
      return usage();
    }
    if (flags.stats) print_phase_stats(human_out(flags));
    if (flags.trace_out_path &&
        !obs::trace::Recorder::global().write_file(*flags.trace_out_path))
      std::fprintf(stderr, "warning: cannot write trace to %s\n", flags.trace_out_path->c_str());
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
