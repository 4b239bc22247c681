// svc/entry_codec.hpp — the lossless static codec for cached entry bytes.
//
// Every cold answer the server computes stays in svc::ResultCache, so the
// bytes an entry holds are what the server's memory grows by per served
// answer. Those bytes are highly regular: a composite key is 32 hex digits
// plus a kind (and, for `simulate`, a fixed parameter grammar), and a
// result is one of the four JSON formats svc::Engine writes. The codec
// stores them in about a fifth of their size with a fixed table, so it
// needs no per-entry dictionary and no state:
//
//   0x20–0x7E   the byte itself (printable ASCII);
//   0x80–0xFF   token t - 0x80 of kTokens (at most 128 fixed strings
//               taken from the result formats and the key grammar);
//   0x01 L ...  a run of L (4–255) lowercase hex digits [0-9a-f], packed
//               two to a byte, high nibble first (decimal numbers are
//               hex-digit runs too);
//   0x00 b      escape: the raw byte b, for every byte outside 0x20–0x7E.
//
// Every byte string encodes (escapes cover what the rest does not) and
// decodes back exactly; an encoding is at most twice its input. The
// encoder is greedy: at each position the longest token starting there
// (only the tokens sharing its first byte are tried), else a hex run of
// at least four digits, else one literal or escaped byte.
//
// The table is cut from engine.cpp's formats by hand, so
// tests/test_svc_codec.cpp checks it against answers the engine computes:
// every token must still occur in them, and they must encode to under a
// quarter of their bytes.
//
// Encodings do not record their own length: the cache stores the logical
// key and value sizes, and decode()/match() stop after that many logical
// bytes. match() compares a probe with an encoding in one pass, without
// encoding the probe or allocating.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

namespace rmt::svc::codec {

/// Upper bound on encode()'s output for an `n`-byte input.
constexpr std::size_t max_encoded_size(std::size_t n) { return 2 * n; }

/// Encode `in` into `out`, which has room for max_encoded_size(in.size())
/// bytes; returns one past the last byte written.
unsigned char* encode(std::string_view in, unsigned char* out);

/// Decode the `n` logical bytes encoded at `in` into `out`; returns one
/// past the last encoded byte consumed.
const unsigned char* decode(const unsigned char* in, std::size_t n, char* out);

/// One past the encoding at `in` if it decodes to exactly `probe`'s bytes
/// (the caller knows the encoding holds probe.size() logical bytes), else
/// nullptr.
const unsigned char* match(const unsigned char* in, std::string_view probe);

/// The fixed token table (token i is byte 0x80 + i).
std::span<const std::string_view> tokens();

/// String conveniences over the calls above (tests, fuzzing, benches).
std::string encode(std::string_view in);
std::string decode(std::string_view encoded, std::size_t n);

}  // namespace rmt::svc::codec
