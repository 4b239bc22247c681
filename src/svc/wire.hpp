// svc/wire.hpp — the rmt.request/1 / rmt.response/1 line protocol.
//
// One JSON object per line (JSONL), the transport tools/rmt_serve speaks
// on stdio and tools/check_bench_json.py validates. A request:
//
//   {"schema":"rmt.request/1","id":"q1","kind":"decide_rmt",
//    "instance":"rmt-instance v1\nnodes 3\n...",
//    "deadline_ms":50,"no_cache":false,
//    "params":{"value":7,"corrupted":[1],"strategy":"two-faced",
//              "seed":9,"max_rounds":0}}
//
// `instance` embeds the io/serialize.hpp text format verbatim — one
// parser, one canonical form, and a request is self-contained (no server
// side file paths). `params` applies to kind "simulate" only;
// `deadline_ms`, `no_cache` and `params` are optional. The matching
// response:
//
//   {"schema":"rmt.response/1","id":"q1","status":"ok",
//    "key":"bc6adf4f00f0be64...","result":{...},"error":null,
//    "cached":false,"coalesced":false,"wall_us":412.0,
//    "trace_id":"7f3a9c51d2e80b64"}
//
// `result` is the engine's deterministic payload object when status is
// "ok" and null otherwise; `error` is the converse. `id` is echoed
// verbatim so a client may pipeline requests and match answers by id —
// within one batch the server also preserves order. `trace_id` names the
// request's span subtree in rmt.trace/1 dumps (null when tracing is off).
//
// Caps on untrusted fields, each rejected with an "rmt.request/1: ..."
// error naming the field: the whole line (kMaxRequestBytes), the `id`
// (kMaxIdBytes), the number of `params.corrupted` entries
// (kMaxCorruptedEntries), a `params.corrupted` node id (kMaxCorruptedId)
// and `params.max_rounds` (kMaxRounds). An over-cap id is answered with id
// "", so a hostile id is never echoed. JSON nesting is capped by the parser
// (json::kMaxParseDepth).
//
// Both transports parse a line with parse_line(line, &engine.memo()): the
// embedded instance text is resolved through the engine's exact text → key
// memo (svc/instance_memo.hpp), so a text seen before is neither parsed nor
// re-keyed — the Request carries the text and its key. parse_request,
// extract_id and probe_kind never touch a memo.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "io/serialize.hpp"
#include "svc/engine.hpp"

namespace rmt::svc::wire {

inline constexpr const char* kRequestSchema = "rmt.request/1";
inline constexpr const char* kResponseSchema = "rmt.response/1";

/// Upper bound on one request line. A line over the limit is rejected
/// before JSON parsing and its id is not salvaged — the server reads
/// untrusted input, so "one absurd line" must cost O(limit), not O(line).
/// 4 MiB comfortably fits every realistic embedded instance text.
inline constexpr std::size_t kMaxRequestBytes = 4u << 20;

/// Longest `id`, in bytes. The id is echoed into every answer, so without
/// a cap one line could make the server write megabytes back per request.
inline constexpr std::size_t kMaxIdBytes = 256;

/// Most `params.corrupted` entries. Ids are capped at kMaxCorruptedId, so
/// a longer list must repeat an id; every entry is still parsed and
/// inserted, so the list length is bounded too.
inline constexpr std::size_t kMaxCorruptedEntries = io::kMaxParseNodes;

/// Largest node id `params.corrupted` may name. An instance the parser
/// accepts has at most io::kMaxParseNodes nodes, so a larger id can never
/// be admissible — and a NodeSet grows to hold whatever id it is given.
inline constexpr std::uint64_t kMaxCorruptedId = io::kMaxParseNodes - 1;

/// Largest `params.max_rounds`. Every protocol decides by round |V| + 1
/// when it decides at all (Protocol::default_max_rounds), and |V| is at
/// most io::kMaxParseNodes; a larger bound only holds a worker longer.
inline constexpr std::uint64_t kMaxRounds = io::kMaxParseNodes + 1;

/// One request line, JSON-parsed exactly once: the tagged envelope both
/// transports switch on.
struct Envelope {
  enum class Kind {
    kStats,    ///< a "stats" probe (any JSON object whose "kind" is "stats")
    kTrace,    ///< a "trace" probe
    kRequest,  ///< a well-formed rmt.request/1; `request` is filled
    kError,    ///< anything else; `error` is the message to answer with
  };
  Kind kind = Kind::kError;
  /// The id to echo: the object's string "id" member, else "". An
  /// oversized line is never parsed and an id over kMaxIdBytes is never
  /// echoed, so both answer with id "".
  std::string id;
  std::optional<Request> request;  ///< set iff kRequest
  std::string error;               ///< kError only
};

/// Classify and parse one line. Never throws on bad input: a line over
/// kMaxRequestBytes, invalid JSON, or a malformed request is a kError
/// envelope whose message is exactly what parse_request would throw.
/// With a memo, the instance text is resolved through it (a hit builds no
/// Instance); without one, it is parsed as parse_request parses it.
Envelope parse_line(const std::string& line, InstanceMemo* memo = nullptr);

struct ParsedRequest {
  std::string id;
  Request request;
};

/// Parse one rmt.request/1 line. Throws std::invalid_argument naming the
/// offending field on malformed input. Servers use parse_line;
/// parse_request, extract_id and probe_kind remain for tools and tests.
ParsedRequest parse_request(const std::string& line);

/// Best-effort id extraction from a line that failed parse_request, so
/// the error response can still be matched by the client ("" if even the
/// id is unreadable, or longer than kMaxIdBytes).
std::string extract_id(const std::string& line);

/// Format one rmt.response/1 line (no trailing newline).
std::string format_response(const std::string& id, const Response& resp);

/// Format an "error"-status response for a request that never reached the
/// engine (parse failure, unknown kind).
std::string format_parse_error(const std::string& id, const std::string& message);

/// "stats" / "trace" for a probe line the engine must never see, "" for
/// everything else (including lines that are not valid JSON or oversized).
std::string probe_kind(const std::string& line);

/// Format the "stats" probe response: the engine, cache and memo counters
/// as the result object ({"kind":"stats","engine":{...},"cache":{...},
/// "memo":{...}}, then "store" when a disk tier is configured). A server
/// may splice one extra section (the TCP front end passes its "net"
/// counters as an already-serialized JSON object); both empty = none.
std::string format_stats_response(const std::string& id, Engine& engine,
                                  const std::string& extra_key = "",
                                  const std::string& extra_json = "");

/// Format the "trace" probe response: the flight recorder's header and
/// spans embedded verbatim as rmt.trace/1 objects — written one per line
/// they validate as an rmt.trace/1 dump.
std::string format_trace_response(const std::string& id);

}  // namespace rmt::svc::wire
