// check/reference_parser.hpp — the stream-based instance parser, kept as
// a differential oracle.
//
// io::parse_instance_string is a single-pass tokenizer tuned for the
// serving path. This is the parser it replaced, kept verbatim: one
// std::istringstream per line and operator>> for every token. rmt_fuzz's
// parser domain feeds every mutant to both and reports a
// "parser-diverged" finding unless they agree on accept vs. reject, on
// the exact rejection message, and on the canonical text of an accepted
// instance — the role find_rmt_cut_reference plays for the deciders.
// Only tests and the fuzzer (check/fuzz.hpp) call it.
#pragma once

#include <string>

#include "instance/instance.hpp"

namespace rmt::propcheck {

/// Parse the io/serialize.hpp text format with the original stream-based
/// parser. Same contract and messages as io::parse_instance_string.
Instance reference_parse_instance(const std::string& text);

}  // namespace rmt::propcheck
