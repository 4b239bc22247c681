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
//   knowledge adhoc     # or: full | k-hop K
//   view 2 : 0 1 4      # optional, after "knowledge custom": extra known
//                       #   nodes of node 2 (beyond its star)
//   view-edge 2 : 0 1   # optional extra known edge of node 2's view
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
// Hostile-input hardening (the parser is a fuzz target — see
// check/fuzz.hpp): every node id, the node count, and the k-hop radius are
// range-checked with line-numbered errors; duplicate node ids inside a
// corruptible set or a view extra list, and duplicate nodes / dealer /
// receiver / knowledge directives, are rejected instead of silently
// folded. The absolute node-count cap below bounds every allocation the
// parser can be talked into before validation completes.
#pragma once

#include <cstddef>
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

}  // namespace rmt::io
