#include "svc/entry_codec.hpp"

#include <array>
#include <cstdint>
#include <cstring>

namespace rmt::svc::codec {

namespace {

constexpr unsigned char kEscape = 0x00;
constexpr unsigned char kHexRun = 0x01;
constexpr unsigned char kTokenBase = 0x80;
constexpr std::size_t kMinHexRun = 4;
constexpr std::size_t kMaxHexRun = 255;

/// The fixed token table: the pieces of svc::Engine's four result formats
/// and of Engine::composite_key's grammar. Token i is byte 0x80 + i.
/// Encodings live only in the in-memory cache, never on disk or the wire,
/// so the table may change between builds; tests/test_svc_codec.cpp
/// requires every token to occur in what the engine produces.
constexpr std::string_view kTokens[] = {
    // result heads
    R"({"kind":"decide_rmt","solvable":)",
    R"({"kind":"decide_zpp","solvable":)",
    R"({"kind":"analyze","rmt_solvable":)",
    R"({"kind":"simulate","value":)",
    R"({"kind":")",
    R"({"c1":"{)",
    // decide_rmt / decide_zpp
    R"(true,"witness":null})",
    R"(false,"witness":{"c1":"{)",
    R"(,"witness":null})",
    R"(,"witness":{"c1":"{)",
    R"(}","c2":"{)",
    R"(}","b":"{)",
    R"(}"}})",
    // analyze
    R"(true,"rmt_cut_witness":null,"zcpa_solvable":)",
    R"(false,"rmt_cut_witness":{"c1":"{)",
    R"(,"rmt_cut_witness":null,"zcpa_solvable":)",
    R"(,"rmt_cut_witness":{"c1":"{)",
    R"(}"},"zcpa_solvable":)",
    R"(,"zcpa_solvable":)",
    R"(true,"full_knowledge_solvable":)",
    R"(false,"full_knowledge_solvable":)",
    R"(,"full_knowledge_solvable":)",
    R"(true})",
    R"(false})",
    // simulate
    R"(,"corrupted":"{)",
    R"(}","strategy":")",
    R"(","seed":)",
    R"(,"decision":null,"correct":false,"wrong":false,"rounds":)",
    R"(,"decision":)",
    R"(,"correct":true,"wrong":false,"rounds":)",
    R"(,"correct":false,"wrong":false,"rounds":)",
    R"(,"correct":)",
    R"(,"wrong":)",
    R"(,"rounds":)",
    R"(,"honest_messages":)",
    "silent",
    "value-flip",
    "random-lies",
    "phantom-world",
    "two-faced",
    // composite keys
    "|decide_rmt",
    "|decide_zpp",
    "|analyze",
    "|simulate|corrupt={",
    "};max_rounds=0;seed=",
    "};max_rounds=",
    ";max_rounds=",
    ";seed=",
    ";strategy=",
    ";value=",
    // node sets ("{0, 3, 17}": ascending, so no ", 0") and generic JSON
    ", 1", ", 2", ", 3", ", 4", ", 5", ", 6", ", 7", ", 8", ", 9",
    ", ",
    "true",
    "false",
    "null",
    "decide_rmt",
    "decide_zpp",
    "analyze",
    "simulate",
    R"(":")",
    R"(",")",
    R"(":{)",
    R"(":)",
};
constexpr std::size_t kNumTokens = std::size(kTokens);
static_assert(kNumTokens <= 256 - kTokenBase, "token ids must fit one byte");

constexpr char kHexDigits[] = "0123456789abcdef";

/// Lookup tables built at compile time: hex nibble values, and the tokens
/// grouped by first byte, longest first (the encoder's greedy order).
struct Tables {
  std::array<unsigned char, 256> nibble{};         ///< 0–15, or 0xFF for non-hex
  std::array<std::uint8_t, 257> first_begin{};     ///< by_first[first_begin[c] ..
  std::array<std::uint8_t, kNumTokens> by_first{};  ///<   first_begin[c + 1]) start with c
};

constexpr Tables make_tables() {
  Tables t;
  for (std::size_t c = 0; c < 256; ++c) t.nibble[c] = 0xFF;
  for (unsigned char i = 0; i < 16; ++i) t.nibble[static_cast<unsigned char>(kHexDigits[i])] = i;
  // Counting sort by first byte, then insertion sort by descending length
  // inside each group.
  std::array<std::uint8_t, 257> count{};
  for (const std::string_view tok : kTokens) ++count[static_cast<unsigned char>(tok[0]) + 1];
  for (std::size_t c = 0; c < 256; ++c) t.first_begin[c + 1] = t.first_begin[c] + count[c + 1];
  std::array<std::uint8_t, 257> fill = t.first_begin;
  for (std::size_t i = 0; i < kNumTokens; ++i)
    t.by_first[fill[static_cast<unsigned char>(kTokens[i][0])]++] = std::uint8_t(i);
  for (std::size_t c = 0; c < 256; ++c) {
    for (std::size_t i = t.first_begin[c] + 1u; i < t.first_begin[c + 1]; ++i) {
      for (std::size_t j = i; j > t.first_begin[c] &&
                              kTokens[t.by_first[j]].size() > kTokens[t.by_first[j - 1]].size();
           --j) {
        const std::uint8_t tmp = t.by_first[j];
        t.by_first[j] = t.by_first[j - 1];
        t.by_first[j - 1] = tmp;
      }
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

bool is_hex(unsigned char c) { return kTables.nibble[c] < 16; }

/// The token starting at `p` (`left` bytes remain), longest first, or -1.
/// Only the tokens sharing p's first byte are candidates.
int token_at(const unsigned char* p, std::size_t left) {
  const std::size_t begin = kTables.first_begin[*p], end = kTables.first_begin[*p + 1u];
  for (std::size_t k = begin; k < end; ++k) {
    const std::uint8_t id = kTables.by_first[k];
    const std::string_view tok = kTokens[id];
    if (tok.size() <= left && std::memcmp(tok.data(), p, tok.size()) == 0) return id;
  }
  return -1;
}

}  // namespace

unsigned char* encode(std::string_view in, unsigned char* out) {
  const auto* p = reinterpret_cast<const unsigned char*>(in.data());
  const unsigned char* const end = p + in.size();
  while (p != end) {
    const unsigned char c = *p;
    const std::size_t left = std::size_t(end - p);
    if (const int id = token_at(p, left); id >= 0) {
      *out++ = static_cast<unsigned char>(kTokenBase + id);
      p += kTokens[id].size();
      continue;
    }
    if (is_hex(c)) {
      const std::size_t cap = left < kMaxHexRun ? left : kMaxHexRun;
      std::size_t run = 1;
      while (run < cap && is_hex(p[run])) ++run;
      if (run >= kMinHexRun) {
        *out++ = kHexRun;
        *out++ = static_cast<unsigned char>(run);
        std::size_t i = 0;
        for (; i + 1 < run; i += 2)
          *out++ = static_cast<unsigned char>(kTables.nibble[p[i]] << 4 | kTables.nibble[p[i + 1]]);
        if (i < run) *out++ = static_cast<unsigned char>(kTables.nibble[p[i]] << 4);
        p += run;
        continue;
      }
    }
    if (c >= 0x20 && c <= 0x7E) {
      *out++ = c;
    } else {
      *out++ = kEscape;
      *out++ = c;
    }
    ++p;
  }
  return out;
}

const unsigned char* decode(const unsigned char* in, std::size_t n, char* out) {
  char* const end = out + n;
  while (out != end) {
    const unsigned char b = *in++;
    if (b >= kTokenBase) {
      const std::string_view tok = kTokens[b - kTokenBase];
      std::memcpy(out, tok.data(), tok.size());
      out += tok.size();
    } else if (b >= 0x20) {
      *out++ = static_cast<char>(b);
    } else if (b == kHexRun) {
      const std::size_t run = *in++;
      std::size_t i = 0;
      for (; i + 1 < run; i += 2) {
        const unsigned char x = *in++;
        *out++ = kHexDigits[x >> 4];
        *out++ = kHexDigits[x & 15];
      }
      if (i < run) *out++ = kHexDigits[*in++ >> 4];
    } else {
      *out++ = static_cast<char>(*in++);  // kEscape
    }
  }
  return in;
}

const unsigned char* match(const unsigned char* in, std::string_view probe) {
  const auto* p = reinterpret_cast<const unsigned char*>(probe.data());
  const unsigned char* const end = p + probe.size();
  while (p != end) {
    const unsigned char b = *in++;
    if (b >= kTokenBase) {
      const std::string_view tok = kTokens[b - kTokenBase];
      if (tok.size() > std::size_t(end - p) || std::memcmp(tok.data(), p, tok.size()) != 0)
        return nullptr;
      p += tok.size();
    } else if (b >= 0x20) {
      if (*p++ != b) return nullptr;
    } else if (b == kHexRun) {
      const std::size_t run = *in++;
      if (run > std::size_t(end - p)) return nullptr;
      std::size_t i = 0;
      for (; i + 1 < run; i += 2) {
        const unsigned char x = *in++;
        if (kTables.nibble[p[i]] != x >> 4 || kTables.nibble[p[i + 1]] != (x & 15)) return nullptr;
      }
      if (i < run && kTables.nibble[p[i]] != *in++ >> 4) return nullptr;
      p += run;
    } else {
      if (*p++ != *in++) return nullptr;  // kEscape
    }
  }
  return in;
}

std::span<const std::string_view> tokens() { return kTokens; }

std::string encode(std::string_view in) {
  std::string out(max_encoded_size(in.size()), '\0');
  auto* base = reinterpret_cast<unsigned char*>(out.data());
  out.resize(std::size_t(encode(in, base) - base));
  return out;
}

std::string decode(std::string_view encoded, std::size_t n) {
  std::string out(n, '\0');
  decode(reinterpret_cast<const unsigned char*>(encoded.data()), n, out.data());
  return out;
}

}  // namespace rmt::svc::codec
