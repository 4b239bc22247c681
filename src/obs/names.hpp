// obs/names.hpp — the one closed registry of observability names.
//
// Every phase (RMT_PHASE), span (RMT_TRACE_NAME) and svc/net/store metric
// name the library emits is listed here with its kind, so dashboards,
// bench baselines and the stats probe can treat the vocabulary as a
// stable schema. It is enforced twice:
//  * by the compiler — RMT_PHASE and RMT_TRACE_NAME pass their literal
//    through checked_name, so an unregistered name (or one registered
//    under another kind) does not compile, in every build;
//  * by tools/rmt_lint.py's name-registry rule — every "svc.*", "cache.*",
//    "net.*" and "store.*" literal in C++ sources is registered, and every
//    entry keeps a site of its kind in src/.
//
// To add a name: add the site and the entry here in the same change; the
// linter markers below delimit what it parses.
#pragma once

#include <array>
#include <string_view>

namespace rmt::obs {

enum class NameKind { phase, span, metric };

struct Name {
  std::string_view name;
  NameKind kind;
};

// lint:names-begin (sorted, one entry per name)
inline constexpr std::array<Name, 67> kNames = {{
    {"adversary.oplus", NameKind::phase},
    {"adversary.restrict", NameKind::phase},
    {"audit.validate", NameKind::phase},
    {"exec.campaign", NameKind::phase},
    {"exec.shard", NameKind::phase},
    {"exec.task", NameKind::phase},
    {"feasibility.two_cover", NameKind::phase},
    {"minimal_knowledge.search", NameKind::phase},
    {"net.accepts", NameKind::metric},
    {"net.active", NameKind::metric},
    {"net.batches", NameKind::metric},
    {"net.bytes_in", NameKind::metric},
    {"net.bytes_out", NameKind::metric},
    {"net.conn", NameKind::span},
    {"net.disconnects", NameKind::metric},
    {"net.frame_rejects", NameKind::metric},
    {"net.inline_hits", NameKind::metric},
    {"net.lines_in", NameKind::metric},
    {"net.read", NameKind::span},
    {"net.responses_out", NameKind::metric},
    {"net.shed", NameKind::metric},
    {"net.slow_client_disconnects", NameKind::metric},
    {"net.write", NameKind::span},
    {"rmt_cut.find", NameKind::phase},
    {"runner.run_broadcast", NameKind::phase},
    {"runner.run_rmt", NameKind::phase},
    {"sim.adversary_act", NameKind::phase},
    {"sim.honest_round", NameKind::phase},
    {"sim.route", NameKind::phase},
    {"store.append", NameKind::phase},
    {"store.appends", NameKind::metric},
    {"store.bytes", NameKind::metric},
    {"store.compact", NameKind::phase},
    {"store.compactions", NameKind::metric},
    {"store.evictions", NameKind::metric},
    {"store.generation", NameKind::metric},
    {"store.hits", NameKind::metric},
    {"store.live_bytes", NameKind::metric},
    {"store.live_records", NameKind::metric},
    {"store.load", NameKind::phase},
    {"store.merged", NameKind::metric},
    {"store.misses", NameKind::metric},
    {"store.read_errors", NameKind::metric},
    {"store.records", NameKind::metric},
    {"store.repairs", NameKind::metric},
    {"svc.batch", NameKind::phase},
    {"svc.cache.bytes", NameKind::metric},
    {"svc.cache.entries", NameKind::metric},
    {"svc.cache.evictions", NameKind::metric},
    {"svc.cache.hits", NameKind::metric},
    {"svc.cache.misses", NameKind::metric},
    {"svc.coalesced", NameKind::metric},
    {"svc.compute", NameKind::phase},
    {"svc.computed", NameKind::metric},
    {"svc.deadline_exceeded", NameKind::metric},
    {"svc.disk_hits", NameKind::metric},
    {"svc.errors", NameKind::metric},
    {"svc.join", NameKind::span},
    {"svc.memo.bytes", NameKind::metric},
    {"svc.memo.entries", NameKind::metric},
    {"svc.memo.evictions", NameKind::metric},
    {"svc.memo.hits", NameKind::metric},
    {"svc.memo.misses", NameKind::metric},
    {"svc.request", NameKind::span},
    {"svc.request_us", NameKind::metric},
    {"svc.requests", NameKind::metric},
    {"zpp_cut.find", NameKind::phase},
}};
// lint:names-end

/// True when `name` is registered under `kind`. The "test." prefix is
/// reserved for unit tests naming their own phases; the linter keeps it
/// out of src/.
constexpr bool is_registered(std::string_view name, NameKind kind) {
  if (kind == NameKind::phase && name.starts_with("test.")) return true;
  for (const Name& e : kNames)
    if (e.name == name) return e.kind == kind;
  return false;
}

/// `name` itself when registered under `kind`. Otherwise the throw makes
/// the immediate invocation, and so the build, fail.
consteval const char* checked_name(const char* name, NameKind kind) {
  if (!is_registered(name, kind))
    throw "name is not registered under this kind in obs/names.hpp";
  return name;
}

}  // namespace rmt::obs
