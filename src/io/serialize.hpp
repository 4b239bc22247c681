// io/serialize.hpp — a human-editable text format for RMT instances.
//
// Lets users describe deployments in files and drive the analysis /
// simulation tooling (tools/rmt_cli) without writing C++. Format, line
// oriented, '#' comments:
//
//   rmt-instance v1
//   nodes 8
//   edge 0 1            # one per channel
//   dealer 0
//   receiver 7
//   corruptible 1 3     # one admissible set per line (∅ always included)
//   knowledge adhoc     # or: full | k-hop K | custom
//   view 2 : 0 1 4      # under "knowledge custom": extra known nodes of
//                       #   node 2 (beyond its star)
//   view-edge 2 : 0 1   # under "knowledge custom": an extra known edge of
//                       #   node 2's view
//
// `view` and `view-edge` lines may come anywhere, before or after the
// `knowledge` line. They count only under `knowledge custom`: under adhoc,
// k-hop or full (or no knowledge line) they are parsed and their ids
// range-checked, and then ignored.
//
// parse_instance_string throws std::invalid_argument with a line-number
// message on malformed input; serialize_instance(parse_instance_string(s))
// round-trips. The format assumes contiguous node ids 0..n-1 (what every
// generator in this library produces).
//
// Tokens are read as `std::istream >>` would read them in the C locale,
// in one pass over the text and without a stream: words split on the
// C-locale space set (so CRLF line ends are harmless), an integer takes
// an optional sign and stops at the first non-digit, and an id list
// (corruptible, view) ends at the first token that is not an integer.
// check/reference_parser.hpp keeps the stream-based original as the
// differential oracle rmt_fuzz holds this parser to, message for message.
//
// One pass, one build. The text is tokenized once. An id read after
// `nodes` is range-checked as it is read; only the first failure is kept
// and parsing goes on, because any error the line loop itself raises (an
// unknown directive, a duplicate, a malformed token) is reported first.
// Ids read before `nodes` are checked once it is known, ahead of that
// kept failure, so the failure reported is the first out-of-range id in
// text order. Edges keep their own line numbers for the later edge checks.
// `view` extras are kept per owner and `view-edge` extras in one list
// bucketed by owner; under `knowledge custom` each γ(v) is v's star plus
// its extras, allocated once and validated once by ViewFunction::set_view,
// owner by owner, so a bad view fails through the same checks (and with
// the same message) as extending each star in turn would.
//
// Hostile-input hardening (the parser is a fuzz target — see
// check/fuzz.hpp): every node id, the node count, and the k-hop radius are
// range-checked with line-numbered errors; duplicate node ids inside a
// corruptible set or a view extra list, and duplicate nodes / dealer /
// receiver / knowledge directives, are rejected instead of silently
// folded. The absolute node-count cap below bounds every allocation the
// parser can be talked into before validation completes; storage grows
// with the largest id the text names, not with the cap.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

#include "instance/instance.hpp"

namespace rmt::io {

/// Hard cap on `nodes` accepted by the parser. Far above anything the
/// exact deciders handle (analysis::kMaxExactNodes = 26) but small enough
/// that no accepted input can allocate unbounded adjacency/view storage.
inline constexpr std::size_t kMaxParseNodes = 512;

/// Parse the text format above.
Instance parse_instance_string(std::string_view text);

/// Read `path` whole, then parse it ("cannot open <path>" when
/// unreadable). The one loader every consumer shares — rmt_cli, rmt_serve
/// clients, the examples — so diagnostics stay uniform.
Instance load_instance(const std::string& path);

/// Write an instance in the same format (custom views are emitted as
/// view / view-edge lines relative to the ad hoc floor). This text is the
/// canonical form svc::instance_key hashes.
std::string serialize_instance(const Instance& inst);

/// Receives the canonical text a chunk at a time.
using CanonicalSink = std::function<void(std::string_view)>;

/// The one body behind serialize_instance: writes the canonical text of
/// `inst` to `sink` in order, in chunks of at most 128 bytes whose
/// concatenation is serialize_instance's text. svc::instance_key hashes
/// the chunks as they come, so keying builds no string.
void write_canonical(const Instance& inst, const CanonicalSink& sink);

}  // namespace rmt::io
