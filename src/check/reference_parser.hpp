// check/reference_parser.hpp — the stream-based instance parser and the
// string-building serializer, kept as differential oracles.
//
// io::parse_instance_string is a one-pass tokenizer and builder tuned for
// the serving path. reference_parse_instance is the parser it replaced,
// kept verbatim: one std::istringstream per line, operator>> for every
// token, every range check deferred to the end, and each custom view an
// ad hoc star copied and extended. rmt_fuzz's parser domain feeds every
// mutant to both and reports a "parser-diverged" finding unless they
// agree on accept vs. reject, on the exact rejection message, and on the
// canonical text of an accepted instance — the role
// find_rmt_cut_reference plays for the deciders.
//
// io::serialize_instance and svc::instance_key share one chunked writer
// (io::write_canonical); reference_serialize_instance is the serializer
// it replaced, kept verbatim: string appends, std::to_string and one
// Graph::edges() vector per view. rmt_fuzz checks every accepted mutant's
// canonical text against it, and its key against svc::key_of_text of that
// text ("key-diverged"). Only tests, benches and the fuzzer
// (check/fuzz.hpp) call these.
#pragma once

#include <string>

#include "instance/instance.hpp"

namespace rmt::propcheck {

/// Parse the io/serialize.hpp text format with the original stream-based
/// parser. Same contract and messages as io::parse_instance_string.
Instance reference_parse_instance(const std::string& text);

/// The canonical text of `inst` as the original serializer wrote it —
/// byte for byte what io::serialize_instance must write.
std::string reference_serialize_instance(const Instance& inst);

}  // namespace rmt::propcheck
