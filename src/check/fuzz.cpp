#include "check/fuzz.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <utility>

#include "adversary/threshold.hpp"
#include "check/reference_parser.hpp"
#include "store/format.hpp"
#include "exec/campaign.hpp"
#include "exec/thread_pool.hpp"
#include "graph/generators.hpp"
#include "io/serialize.hpp"
#include "obs/json.hpp"
#include "svc/engine.hpp"
#include "svc/entry_codec.hpp"
#include "svc/wire.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"

namespace rmt::propcheck {

namespace {

// Independent derivation domains off the root seed, so adding mutants
// never shifts the differential stream (and vice versa). Frozen: repro
// seeds recorded in artifacts and regression comments depend on them.
constexpr std::uint64_t kMutantDomain = 0x4d55544e;  // "MUTN"
constexpr std::uint64_t kDiffDomain = 0x44494646;    // "DIFF"
constexpr std::uint64_t kKernelDomain = 0x4b524e4c;  // "KRNL"
constexpr std::uint64_t kStoreDomain = 0x53544f52;   // "STOR"
constexpr std::uint64_t kCodecDomain = 0x434f4443;   // "CODC"

/// Structured strings through the entry codec per run; each check is a few
/// microseconds, so every run (the self-test's quick ones too) does all.
constexpr std::size_t kCodecChecks = 2000;

std::uint64_t unit_seed(std::uint64_t root, std::uint64_t domain, std::uint64_t index) {
  return exec::derive_seed(exec::derive_seed(root, domain), index);
}

// --- mutation ---------------------------------------------------------------

const char* const kVocabulary[] = {
    "rmt-instance", "v1",       "nodes",  "edge",     "dealer", "receiver",
    "corruptible",  "knowledge", "adhoc",  "full",     "k-hop",  "custom",
    "view",         "view-edge", ":",      "#",        "v2",     "-1",
};

const char* const kBoundaryNumbers[] = {
    "0", "1", "2", "26", "27", "63", "64", "65", "4294967295",
    "18446744073709551615", "-1", "999999999999999999999",
};

bool is_number_token(const std::string& tok) {
  if (tok.empty()) return false;
  std::size_t i = tok[0] == '-' ? 1 : 0;
  if (i == tok.size()) return false;
  for (; i < tok.size(); ++i)
    if (tok[i] < '0' || tok[i] > '9') return false;
  return true;
}

std::string mutate_bytes(const std::string& text, Rng& rng) {
  std::string out = text;
  switch (rng.index(4)) {
    case 0: {  // flip one bit
      if (out.empty()) return out + char(rng.index(256));
      out[rng.index(out.size())] ^= char(1u << rng.index(8));
      return out;
    }
    case 1: {  // insert a byte (printable-biased, occasionally hostile)
      const char pool[] = " 0123456789abcdexyz:#\n\t\r\0-";
      const char c = pool[rng.index(sizeof(pool))];
      out.insert(out.begin() + long(rng.index(out.size() + 1)), c);
      return out;
    }
    case 2: {  // erase a byte
      if (out.empty()) return out;
      out.erase(out.begin() + long(rng.index(out.size())));
      return out;
    }
    default: {  // duplicate a short span
      if (out.empty()) return out;
      const std::size_t at = rng.index(out.size());
      const std::size_t len = std::min(out.size() - at, 1 + rng.index(16));
      out.insert(at, out.substr(at, len));
      return out;
    }
  }
}

std::string mutate_tokens(const std::string& text, Rng& rng) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  if (lines.empty()) lines.emplace_back();
  switch (rng.index(5)) {
    case 0:  // duplicate a line
      lines.insert(lines.begin() + long(rng.index(lines.size())),
                   lines[rng.index(lines.size())]);
      break;
    case 1:  // delete a line
      lines.erase(lines.begin() + long(rng.index(lines.size())));
      break;
    case 2: {  // swap two lines (e.g. directives before the header)
      std::swap(lines[rng.index(lines.size())], lines[rng.index(lines.size())]);
      break;
    }
    case 3: {  // replace one whitespace token with a boundary number
      std::string& line = lines[rng.index(lines.size())];
      std::istringstream ls(line);
      std::vector<std::string> toks;
      for (std::string t; ls >> t;) toks.push_back(t);
      if (!toks.empty()) {
        std::string& tok = toks[rng.index(toks.size())];
        // Prefer re-targeting numbers; otherwise clobber whatever is there.
        tok = is_number_token(tok) || rng.chance(0.5)
                  ? kBoundaryNumbers[rng.index(std::size(kBoundaryNumbers))]
                  : kVocabulary[rng.index(std::size(kVocabulary))];
        std::string rebuilt;
        for (const std::string& t : toks) {
          if (!rebuilt.empty()) rebuilt += ' ';
          rebuilt += t;
        }
        line = rebuilt;
      }
      break;
    }
    default: {  // splice a fresh directive from the vocabulary
      std::string line = kVocabulary[rng.index(std::size(kVocabulary))];
      const std::size_t extra = rng.index(4);
      for (std::size_t i = 0; i < extra; ++i) {
        line += ' ';
        line += rng.chance(0.7) ? kBoundaryNumbers[rng.index(std::size(kBoundaryNumbers))]
                                : kVocabulary[rng.index(std::size(kVocabulary))];
      }
      lines.insert(lines.begin() + long(rng.index(lines.size() + 1)), line);
      break;
    }
  }
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

// --- store-image synthesis and mutation -------------------------------------

/// A valid-by-construction store image: identity header plus 0–5 framed
/// records with svc-shaped keys (and the occasional hostile key — '|',
/// newline and NUL bytes are legal inside the binary framing).
std::string synth_store_image(Rng& rng) {
  std::string img = store::header_line(rng.index(4));
  const std::size_t nrecords = rng.index(6);
  for (std::size_t r = 0; r < nrecords; ++r) {
    std::string key = "a2b0f763e7b5441" + std::to_string(rng.index(10));
    switch (rng.index(4)) {
      case 0: key += "|decide_rmt"; break;
      case 1: key += "|simulate|seed=" + std::to_string(rng.index(100)); break;
      case 2:  // hostile key bytes — newline and NUL are legal inside frames
        key += "|\n|";
        key.push_back('\0');
        break;
      default: break;
    }
    std::string value;
    const std::size_t vlen = rng.index(64);
    for (std::size_t b = 0; b < vlen; ++b) value.push_back(char(rng.index(256)));
    img += store::encode_record(key, value, rng.index(1000));
  }
  return img;
}

/// One seeded corruption step aimed at the format's failure surfaces:
/// torn appends (truncate), rot (bit flip), splices, duplicated spans,
/// and length bombs over the u32 framing fields.
std::string mutate_store_image(const std::string& img, Rng& rng) {
  std::string out = img;
  switch (rng.index(6)) {
    case 0:  // torn append: cut anywhere, header included
      out.resize(rng.index(out.size() + 1));
      return out;
    case 1: {  // single-bit rot
      if (out.empty()) return out;
      out[rng.index(out.size())] ^= char(1u << rng.index(8));
      return out;
    }
    case 2: {  // splice a fresh, internally-valid record at a random offset
      std::string key = "spliced|" + std::to_string(rng.index(100));
      out.insert(rng.index(out.size() + 1),
                 store::encode_record(key, "v", rng.index(1000)));
      return out;
    }
    case 3: {  // duplicate a short span (repeated-append shapes)
      if (out.empty()) return out;
      const std::size_t at = rng.index(out.size());
      const std::size_t len = std::min(out.size() - at, 1 + rng.index(32));
      out.insert(at, out.substr(at, len));
      return out;
    }
    case 4: {  // length bomb: blast 4 bytes to 0xff (framing caps must hold)
      if (out.size() < 4) return out;
      const std::size_t at = rng.index(out.size() - 3);
      for (std::size_t b = 0; b < 4; ++b) out[at + b] = char(0xff);
      return out;
    }
    default: {  // erase a byte (shifts every later frame)
      if (out.empty()) return out;
      out.erase(out.begin() + long(rng.index(out.size())));
      return out;
    }
  }
}

/// The scan_bytes contract over one (possibly corrupt) image. Every
/// divergence becomes a finding carrying the image bytes.
void check_store_image(const std::string& img, std::uint64_t seed, std::size_t index,
                       FuzzReport& report) {
  report.store_checks += 1;
  store::ScanResult scan;
  try {
    scan = store::scan_bytes(img);
  } catch (const std::invalid_argument&) {
    report.store_rejected += 1;  // the contract: hostile identity, clean reject
    return;
  } catch (const std::exception& e) {
    report.findings.push_back(FuzzFinding{
        "store-crash", std::string("scan_bytes threw non-invalid_argument: ") + e.what(),
        img, seed, index});
    return;
  }

  // Deep invariants of the accepted scan against its image.
  try {
    audit::validate(scan, img);
  } catch (const std::exception& e) {
    report.findings.push_back(FuzzFinding{
        "store-audit-violation", std::string("audit::validate: ") + e.what(), img, seed,
        index});
    return;
  }
  if (scan.torn) {
    report.store_repaired += 1;
    if (scan.tail_error.empty())
      report.findings.push_back(FuzzFinding{
          "store-audit-violation", "torn scan carries no tail_error", img, seed, index});
  }

  // Surviving records must re-encode byte-identically (frame, checksum
  // and all) — a record the scanner "fixed up" silently would diverge.
  for (const store::RecordRef& r : scan.records) {
    report.store_records += 1;
    const std::string value = img.substr(r.value_offset, r.value_len);
    std::string reencoded;
    try {
      reencoded = store::encode_record(r.key, value, r.seq);
    } catch (const std::exception& e) {
      report.findings.push_back(FuzzFinding{
          "store-roundtrip-diverged",
          std::string("accepted record does not re-encode: ") + e.what(), img, seed,
          index});
      continue;
    }
    if (reencoded != img.substr(r.offset, r.size) ||
        r.checksum != store::record_checksum(r.key, value, r.seq))
      report.findings.push_back(FuzzFinding{
          "store-roundtrip-diverged",
          "record at offset " + std::to_string(r.offset) + " is not an encode fixed point",
          img, seed, index});
  }

  // Repair idempotence: truncating to valid_prefix (what Store does on
  // open) must rescan cleanly to the same records — never tear again.
  const std::string repaired = img.substr(0, scan.valid_prefix);
  try {
    const store::ScanResult again = store::scan_bytes(repaired);
    if (again.torn || again.generation != scan.generation ||
        again.records.size() != scan.records.size() ||
        again.valid_prefix != repaired.size())
      report.findings.push_back(FuzzFinding{
          "store-repair-diverged",
          "repaired prefix rescans differently (torn=" + std::to_string(again.torn) +
              ", records " + std::to_string(again.records.size()) + " vs " +
              std::to_string(scan.records.size()) + ")",
          img, seed, index});
  } catch (const std::exception& e) {
    report.findings.push_back(FuzzFinding{
        "store-repair-diverged",
        std::string("repaired prefix no longer scans: ") + e.what(), img, seed, index});
  }
}

// --- differential helpers ---------------------------------------------------

std::string set_str(const NodeSet& s) {
  std::string out = "{";
  s.for_each([&](NodeId v) {
    if (out.size() > 1) out += ",";
    out += std::to_string(v);
  });
  return out + "}";
}

template <typename Witness>
std::string witness_str(const std::optional<Witness>& w) {
  if (!w) return "none";
  return "c1=" + set_str(w->c1) + " c2=" + set_str(w->c2) + " b=" + set_str(w->b);
}

template <typename Witness>
bool witness_equal(const std::optional<Witness>& a, const std::optional<Witness>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a) return true;
  return a->c1 == b->c1 && a->c2 == b->c2 && a->b == b->b;
}

std::string cover_str(const std::optional<analysis::TwoCoverWitness>& w) {
  return w ? "z1=" + set_str(w->z1) + " z2=" + set_str(w->z2) : "none";
}

bool cover_equal(const std::optional<analysis::TwoCoverWitness>& a,
                 const std::optional<analysis::TwoCoverWitness>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->z1 == b->z1 && a->z2 == b->z2);
}

/// Seeded random instance for topping up the differential stream (the
/// shape of tests/test_util.hpp's random_instance, re-derived here so the
/// library target does not include test headers).
Instance random_small_instance(std::size_t max_nodes, Rng& rng) {
  const std::size_t n = 4 + rng.index(std::max<std::size_t>(1, max_nodes - 3));
  Graph g = generators::random_connected_gnp(n, 0.2 + 0.5 * rng.real(), rng);
  const NodeId d = 0, r = NodeId(n - 1);
  AdversaryStructure z = random_structure(g.nodes(), 1 + rng.index(4), 1 + rng.index(2),
                                          NodeSet{d, r}, rng);
  switch (rng.index(3)) {
    case 0: return Instance::ad_hoc(std::move(g), std::move(z), d, r);
    case 1: return Instance::full_knowledge(std::move(g), std::move(z), d, r);
    default: {
      ViewFunction gamma = ViewFunction::k_hop(g, 1 + rng.index(2));
      return Instance(std::move(g), std::move(z), std::move(gamma), d, r);
    }
  }
}

/// Audit an accepted instance with the collecting validator; one finding
/// per violated component.
void audit_instance(const Instance& inst, const std::string& input, std::uint64_t seed,
                    std::size_t index, FuzzReport& report) {
  report.audit_checks += 1;
  for (const audit::Diagnostic& d : audit::check_instance(inst))
    report.findings.push_back(FuzzFinding{
        "audit-violation", "audit[" + d.component + "]: " + d.message, input, seed, index});
}


// --- cache-entry codec --------------------------------------------------------

/// A random node-set text as NodeSet::to_string writes it ("{0, 3, 17}").
std::string set_text(Rng& rng) {
  std::string out = "{";
  for (std::size_t k = rng.index(5), v = rng.index(4); k-- > 0; v += 1 + rng.index(6)) {
    if (out.size() > 1) out += ", ";
    out += std::to_string(v);
  }
  return out + "}";
}

/// A cache key or answer of one of the four kinds, with random contents.
std::string real_entry_text(Rng& rng) {
  std::string hex;
  for (int i = 0; i < 32; ++i) hex += "0123456789abcdef"[rng.index(16)];
  const char* const kinds[] = {"decide_rmt", "decide_zpp"};
  const char* const strategies[] = {"silent", "value-flip", "random-lies", "phantom-world",
                                    "two-faced"};
  const std::string b = rng.chance(0.5) ? "true" : "false";
  const std::string seed = std::to_string(rng.uniform(0, UINT64_MAX));
  const std::string value = std::to_string(rng.uniform(0, 999));
  const std::string witness = R"({"c1":")" + set_text(rng) + R"(","c2":")" + set_text(rng) +
                              R"(","b":")" + set_text(rng) + R"("})";
  switch (rng.index(8)) {
    case 0: return hex + "|" + kinds[rng.index(2)];
    case 1: return hex + "|analyze";
    case 2:
      return hex + "|simulate|corrupt=" + set_text(rng) + ";max_rounds=" +
             std::to_string(rng.index(3) == 0 ? rng.index(600) : 0) + ";seed=" + seed +
             ";strategy=" + strategies[rng.index(5)] + ";value=" + value;
    case 3:
      return std::string(R"({"kind":")") + kinds[rng.index(2)] + R"(","solvable":)" + b +
             R"(,"witness":)" + (b == "true" ? "null" : witness) + "}";
    case 4:
      return R"({"kind":"analyze","rmt_solvable":)" + b + R"(,"rmt_cut_witness":)" +
             (b == "true" ? "null" : witness) + R"(,"zcpa_solvable":)" +
             (rng.chance(0.5) ? "true" : "false") + R"(,"full_knowledge_solvable":)" +
             (rng.chance(0.5) ? "true" : "false") + "}";
    default: {
      const bool decided = rng.chance(0.8);
      return R"({"kind":"simulate","value":)" + value + R"(,"corrupted":")" + set_text(rng) +
             R"(","strategy":")" + strategies[rng.index(5)] + R"(","seed":)" + seed +
             R"(,"decision":)" + (decided ? value : "null") + R"(,"correct":)" +
             (decided ? "true" : "false") + R"(,"wrong":false,"rounds":)" +
             std::to_string(rng.index(30)) + R"(,"honest_messages":)" +
             std::to_string(rng.index(5000)) + "}";
    }
  }
}

/// A byte string built from the codec's own parts, so every branch of the
/// encoder and every boundary of its hex runs gets exercised.
std::string codec_input(Rng& rng) {
  const std::span<const std::string_view> tokens = svc::codec::tokens();
  std::string x;
  for (std::size_t parts = 1 + rng.index(8); parts-- > 0;) {
    switch (rng.index(6)) {
      case 0: x += tokens[rng.index(tokens.size())]; break;
      case 1: {
        const std::string_view tok = tokens[rng.index(tokens.size())];
        x += tok.substr(0, rng.index(tok.size()));  // cut short
        break;
      }
      case 2: {
        const std::size_t len = rng.chance(0.3) ? 250 + rng.index(12) : rng.index(601);
        for (std::size_t i = 0; i < len; ++i) x += "0123456789abcdef"[rng.index(16)];
        if (len > 0 && rng.chance(0.1)) x[x.size() - 1 - rng.index(len)] = 'F';
        break;
      }
      case 3:
        for (std::size_t i = 1 + rng.index(4); i-- > 0;) {
          const std::size_t b = rng.index(0x20 + 0x81);
          x += static_cast<char>(b < 0x20 ? b : b - 0x20 + 0x7F);
        }
        break;
      case 4:
        for (std::size_t i = 1 + rng.index(8); i-- > 0;)
          x += static_cast<char>(0x20 + rng.index(95));
        break;
      default: {
        std::string real = real_entry_text(rng);
        if (!rng.chance(0.33)) real[rng.index(real.size())] = static_cast<char>(rng.index(256));
        x += real;
        break;
      }
    }
  }
  return x;
}

/// The logical length an encoding spells, or nullopt when it is malformed
/// (an unassigned byte, a token id past the table, a run shorter than 4 or
/// cut off, a dangling escape). A structural walk, so the checks below
/// never decode out of bounds whatever encoder is under test.
std::optional<std::size_t> encoded_length(std::string_view enc) {
  const std::span<const std::string_view> tokens = svc::codec::tokens();
  std::size_t n = 0;
  for (std::size_t i = 0; i < enc.size();) {
    const auto b = static_cast<unsigned char>(enc[i++]);
    if (b >= 0x80) {
      if (b - 0x80u >= tokens.size()) return std::nullopt;
      n += tokens[b - 0x80].size();
    } else if (b >= 0x20 && b <= 0x7E) {
      ++n;
    } else if (b == 0x01) {
      if (i == enc.size()) return std::nullopt;
      const std::size_t run = static_cast<unsigned char>(enc[i++]);
      if (run < 4 || enc.size() - i < (run + 1) / 2) return std::nullopt;
      i += (run + 1) / 2;
      n += run;
    } else if (b == 0x00) {
      if (i++ == enc.size()) return std::nullopt;
      ++n;
    } else {
      return std::nullopt;
    }
  }
  return n;
}

/// decode(encode(x)) == x consuming the whole encoding, match() accepts x
/// and rejects x with one byte changed.
void check_codec(const std::string& x, const FuzzOptions& opts, Rng& rng, std::uint64_t seed,
                 std::size_t index, FuzzReport& report) {
  ++report.codec_checks;
  const std::string enc = opts.codec_encode ? opts.codec_encode(x) : svc::codec::encode(x);
  const auto fail = [&](const std::string& why) {
    report.findings.push_back(FuzzFinding{"codec-diverged", why, x, seed, index});
  };
  if (enc.size() > svc::codec::max_encoded_size(x.size()))
    return fail("encoding of " + std::to_string(x.size()) + " bytes took " +
                std::to_string(enc.size()));
  const std::optional<std::size_t> length = encoded_length(enc);
  if (!length || *length != x.size())
    return fail("encoding spells " + (length ? std::to_string(*length) : "a malformed string") +
                " instead of " + std::to_string(x.size()) + " bytes");
  const auto* base = reinterpret_cast<const unsigned char*>(enc.data());
  std::string back(x.size(), '\0');
  if (svc::codec::decode(base, x.size(), back.data()) != base + enc.size() || back != x)
    return fail("decode(encode(x)) != x");
  if (svc::codec::match(base, x) != base + enc.size()) return fail("match() rejects x");
  if (x.empty()) return;
  std::string near = x;
  const std::size_t at = rng.index(x.size());
  near[at] = static_cast<char>(static_cast<unsigned char>(near[at]) ^ (1 + rng.index(255)));
  if (svc::codec::match(base, near) != nullptr)
    return fail("match() accepts x with byte " + std::to_string(at) + " changed");
}

}  // namespace

std::vector<std::string> builtin_corpus() {
  // Frozen: every directive of the v1 format appears at least once, so
  // token-wise mutation can reach every parser branch from the corpus.
  return {
      // the paper's triple-path shape, ad hoc
      "rmt-instance v1\n"
      "nodes 8\n"
      "edge 0 1\nedge 1 7\nedge 0 2\nedge 2 7\nedge 0 3\nedge 3 7\n"
      "dealer 0\nreceiver 7\n"
      "corruptible 1\ncorruptible 2\ncorruptible 3\n"
      "knowledge adhoc\n",
      // ring with a 2-set adversary, 1-hop knowledge
      "rmt-instance v1\n"
      "nodes 6\n"
      "edge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\nedge 4 5\nedge 5 0\n"
      "dealer 0\nreceiver 3\n"
      "corruptible 1 2\ncorruptible 4\n"
      "knowledge k-hop 1\n",
      // full knowledge, comments and blank lines
      "# full-knowledge diamond\n"
      "rmt-instance v1\n"
      "nodes 4\n"
      "edge 0 1\nedge 0 2\nedge 1 3\nedge 2 3\n\n"
      "dealer 0   # the dealer\n"
      "receiver 3\n"
      "corruptible 1\n"
      "knowledge full\n",
      // custom views with extra nodes and edges
      "rmt-instance v1\n"
      "nodes 5\n"
      "edge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\nedge 0 4\n"
      "dealer 0\nreceiver 2\n"
      "corruptible 1\ncorruptible 3\n"
      "knowledge custom\n"
      "view 1 : 3 4\n"
      "view-edge 1 : 2 3\n",
  };
}

std::vector<std::string> load_corpus_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec))
    throw std::invalid_argument("fuzz corpus: not a directory: " + dir);
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file()) paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> out;
  for (const fs::path& p : paths) {
    std::ifstream in(p, std::ios::binary);
    if (!in) throw std::invalid_argument("fuzz corpus: cannot open " + p.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    out.push_back(std::move(buf).str());
  }
  return out;
}

std::string mutate(const std::string& text, Rng& rng) {
  return rng.chance(0.5) ? mutate_bytes(text, rng) : mutate_tokens(text, rng);
}

namespace {

/// Where the parser under test and the reference parser disagree on
/// `text`, or "" when they agree: accept vs. reject, the exact rejection
/// message, and the canonical text of an accepted instance. `parsed` /
/// `error` are the parser-under-test's outcome.
std::string parser_divergence(const std::string& text, const std::optional<Instance>& parsed,
                              const std::string& error) {
  std::optional<Instance> ref;
  std::string ref_error;
  try {
    ref = reference_parse_instance(text);
  } catch (const std::exception& e) {
    ref_error = e.what();
  }
  if (ref && !parsed) return "reference accepted, parser rejected: " + error;
  if (!ref && parsed) return "reference rejected (" + ref_error + "), parser accepted";
  if (!ref) return ref_error == error ? "" : "reference: " + ref_error + " | parser: " + error;
  if (io::serialize_instance(*ref) != io::serialize_instance(*parsed))
    return "accepted instances serialize differently";
  return "";
}

/// Where resolving `text` inside a request line through `memo` — cold,
/// then warm — disagrees with the memo-free wire::parse_request, or "" when
/// all three agree on accept or reject, the message and the key, and the
/// warm lookup of an accepted text was a hit.
std::string memo_divergence(const std::string& text, svc::InstanceMemo& memo) {
  obs::json::Writer w;
  w.begin_object();
  w.field("schema", svc::wire::kRequestSchema);
  w.field("id", "m");
  w.field("kind", "decide_rmt");
  w.field("instance", text);
  w.end_object();
  const std::string line = w.take();

  std::optional<svc::InstanceKey> want;
  std::string want_error;
  try {
    want = svc::instance_key(svc::wire::parse_request(line).request.instance);
  } catch (const std::exception& e) {
    want_error = e.what();
  }
  for (const bool warm : {false, true}) {
    const std::string pass = warm ? "warm" : "cold";
    const svc::wire::Envelope env = svc::wire::parse_line(line, &memo);
    const bool accepted = env.kind == svc::wire::Envelope::Kind::kRequest;
    if (accepted && !want)
      return pass + ": memo accepted, parse_request rejected (" + want_error + ")";
    if (!accepted && want)
      return pass + ": memo rejected (" + env.error + "), parse_request accepted";
    if (!accepted && env.error != want_error)
      return pass + ": memo: " + env.error + " | parse_request: " + want_error;
    if (accepted && env.request->instance.key() != *want)
      return pass + ": memo key " + env.request->instance.key().to_hex() +
             " | parse_request key " + want->to_hex();
    if (accepted && warm && env.request->instance.parsed())
      return "warm: an accepted text was parsed again instead of hitting";
  }
  return "";
}

}  // namespace

FuzzReport run_fuzz(const FuzzOptions& opts) {
  RMT_REQUIRE(opts.max_exact_nodes <= analysis::kMaxExactNodes,
              "run_fuzz: max_exact_nodes above the exact-decider guard");
  FuzzReport report;

  std::vector<std::string> corpus = builtin_corpus();
  corpus.insert(corpus.end(), opts.corpus.begin(), opts.corpus.end());
  RMT_REQUIRE(!corpus.empty(), "run_fuzz: empty corpus");

  const auto rmt_decider = opts.rmt_decider
                               ? opts.rmt_decider
                               : [](const Instance& i) { return analysis::find_rmt_cut(i); };
  const auto zpp_decider =
      opts.zpp_decider ? opts.zpp_decider
                       : [](const Instance& i) { return analysis::find_rmt_zpp_cut(i); };
  const auto two_cover_decider =
      opts.two_cover_decider
          ? opts.two_cover_decider
          : [](const Graph& g, const AdversaryStructure& z, NodeId d, NodeId r) {
              return analysis::find_two_cover_cut(g, z, d, r);
            };
  const auto parser = opts.parser ? opts.parser : [](const std::string& t) {
    return io::parse_instance_string(t);
  };
  // One memo for the whole loop, at the serving default budget, so later
  // mutants meet the entries earlier texts left behind.
  constexpr std::size_t kMemoBytes = 1u << 20;
  const std::unique_ptr<svc::InstanceMemo> memo =
      opts.memo ? opts.memo(kMemoBytes) : std::make_unique<svc::InstanceMemo>(kMemoBytes);

  // --- loop 1: parser robustness over mutated corpus entries ---------------
  // Accepted small mutants feed the differential loop below, so fuzzing the
  // parser also diversifies the decider workload beyond the generators.
  std::vector<std::pair<Instance, std::string>> parsed_pool;
  for (std::size_t i = 0; i < opts.parser_mutants; ++i) {
    const std::uint64_t seed = unit_seed(opts.seed, kMutantDomain, i);
    Rng rng(seed);
    std::string text = corpus[rng.index(corpus.size())];
    const std::size_t steps = 1 + rng.index(4);
    for (std::size_t s = 0; s < steps; ++s) text = mutate(text, rng);

    report.parser_mutants += 1;
    std::optional<Instance> inst;
    std::string error;
    try {
      inst = parser(text);
    } catch (const std::invalid_argument& e) {
      error = e.what();  // the contract: clean, typed rejection
    } catch (const std::exception& e) {
      report.findings.push_back(FuzzFinding{
          "parser-crash", std::string("parser threw non-invalid_argument: ") + e.what(),
          text, seed, i});
      continue;
    }
    report.memo_checks += 1;
    if (const std::string diff = memo_divergence(text, *memo); !diff.empty())
      report.findings.push_back(FuzzFinding{"memo-diverged", diff, text, seed, i});
    if (const std::string diff = parser_divergence(text, inst, error); !diff.empty()) {
      report.findings.push_back(FuzzFinding{"parser-diverged", diff, text, seed, i});
      continue;
    }
    if (!inst) {
      report.rejected += 1;
      continue;
    }
    report.parsed_ok += 1;

    // Accept-then-diverge: the accepted mutant must reach the round-trip
    // fixed point (serialize ∘ parse ∘ serialize is the identity on the
    // first serialization) and survive the deep audit.
    try {
      const std::string s1 = io::serialize_instance(*inst);
      const Instance again = parser(s1);
      const std::string s2 = io::serialize_instance(again);
      report.roundtrip_checks += 1;
      if (s1 != s2) {
        report.findings.push_back(FuzzFinding{
            "roundtrip-diverged", "serialize∘parse is not a fixed point", text, seed, i});
        continue;
      }
      audit_instance(*inst, text, seed, i, report);
      if (inst->num_players() <= opts.max_exact_nodes &&
          parsed_pool.size() < opts.diff_checks)
        parsed_pool.emplace_back(std::move(*inst), s1);
    } catch (const std::exception& e) {
      report.findings.push_back(FuzzFinding{
          "roundtrip-diverged",
          std::string("accepted mutant failed to round-trip: ") + e.what(), text, seed, i});
    }
  }

  // --- loop 2: differential deciders + svc byte identity -------------------
  std::optional<exec::ThreadPool> pool;
  if (opts.svc_workers > 0) pool.emplace(opts.svc_workers);
  svc::Engine engine(pool ? &*pool : nullptr);

  for (std::size_t i = 0; i < opts.diff_checks; ++i) {
    const std::uint64_t seed = unit_seed(opts.seed, kDiffDomain, i);
    std::optional<Instance> inst;
    std::string text;
    if (i < parsed_pool.size()) {
      inst = parsed_pool[i].first;
      text = parsed_pool[i].second;
    } else {
      Rng rng(seed);
      try {
        inst = random_small_instance(opts.max_exact_nodes, rng);
        text = io::serialize_instance(*inst);
      } catch (const std::exception& e) {
        report.findings.push_back(FuzzFinding{
            "generator-invalid", std::string("instance generator threw: ") + e.what(),
            text, seed, i});
        continue;
      }
      audit_instance(*inst, text, seed, i, report);
    }
    report.diff_checks += 1;

    // Shipped vs reference deciders: existence and witness, bit-identical.
    // The oracles' answers then check both implications and the served
    // `analyze`, so an injected decider only ever shows as decider-diverged.
    analysis::Analysis oracle;
    try {
      const auto ref_rmt = analysis::find_rmt_cut_reference(*inst);
      const auto opt_rmt = rmt_decider(*inst);
      if (!witness_equal(ref_rmt, opt_rmt))
        report.findings.push_back(FuzzFinding{
            "decider-diverged",
            "rmt: reference=" + witness_str(ref_rmt) + " optimized=" + witness_str(opt_rmt),
            text, seed, i});
      const auto ref_zpp = analysis::find_rmt_zpp_cut_reference(*inst);
      const auto opt_zpp = zpp_decider(*inst);
      if (!witness_equal(ref_zpp, opt_zpp))
        report.findings.push_back(FuzzFinding{
            "decider-diverged",
            "zpp: reference=" + witness_str(ref_zpp) + " optimized=" + witness_str(opt_zpp),
            text, seed, i});
      const Graph& g = inst->graph();
      const auto ref_cover = analysis::find_two_cover_cut_reference(
          g, inst->adversary(), inst->dealer(), inst->receiver());
      const auto opt_cover =
          two_cover_decider(g, inst->adversary(), inst->dealer(), inst->receiver());
      if (!cover_equal(ref_cover, opt_cover))
        report.findings.push_back(FuzzFinding{
            "decider-diverged",
            "two-cover: reference=" + cover_str(ref_cover) + " optimized=" + cover_str(opt_cover),
            text, seed, i});
      oracle = analysis::Analysis{ref_rmt, !ref_zpp.has_value(), !ref_cover.has_value()};
    } catch (const std::exception& e) {
      report.findings.push_back(FuzzFinding{
          "decider-diverged", std::string("decider threw: ") + e.what(), text, seed, i});
      continue;
    }

    // The characterizations nest: Z-CPA solvable ⇒ RMT solvable ⇒
    // full-knowledge solvable.
    if (oracle.zcpa_solvable && oracle.rmt_cut)
      report.findings.push_back(FuzzFinding{
          "zcpa-implication-violated",
          "Z-CPA solvable but rmt: " + witness_str(oracle.rmt_cut), text, seed, i});
    if (!oracle.rmt_cut && !oracle.full_knowledge_solvable)
      report.findings.push_back(FuzzFinding{
          "full-implication-violated", "RMT solvable but a two-cover exists", text, seed, i});

    // Batched vs per-candidate membership kernels on this instance's
    // adversary structure: probe_batch must agree with contains
    // probe-for-probe, under the compiled vector backend AND with the
    // scalar reference forced — four answers per probe, one truth. The
    // probes straddle the popcount-bucket boundaries: each maximal set
    // itself, one node more, one node fewer, plus seeded random subsets.
    {
      const AdversaryStructure& z = inst->adversary();
      const NodeSet nodes = inst->graph().nodes();
      Rng krng(unit_seed(opts.seed, kKernelDomain, i));
      constexpr std::size_t kMaxProbes = 64;
      NodeSet probes[kMaxProbes];
      std::size_t nprobes = 0;
      for (const NodeSet& m : z.maximal_sets()) {
        if (nprobes + 3 > kMaxProbes) break;
        probes[nprobes++] = m;
        NodeSet plus = m;
        nodes.for_each([&](NodeId v) {
          if (plus == m && !m.contains(v)) plus.insert(v);
        });
        probes[nprobes++] = std::move(plus);
        NodeSet minus = m;
        m.for_each([&](NodeId v) {
          if (minus == m) minus -= NodeSet::single(v);
        });
        probes[nprobes++] = std::move(minus);
      }
      while (nprobes < kMaxProbes && nprobes < 3 * z.maximal_sets().size() + 8) {
        NodeSet s;
        nodes.for_each([&](NodeId v) {
          if (krng.chance(0.3)) s.insert(v);
        });
        probes[nprobes++] = std::move(s);
      }
      bool vec_batch[kMaxProbes];
      bool scal_batch[kMaxProbes];
      z.probe_batch(probes, nprobes, vec_batch);
      {
        const simd::ScopedForceScalar scalar_only;
        z.probe_batch(probes, nprobes, scal_batch);
      }
      for (std::size_t j = 0; j < nprobes; ++j) {
        report.kernel_probes += 1;
        const bool vec_one = z.contains(probes[j]);
        bool scal_one = false;
        {
          const simd::ScopedForceScalar scalar_only;
          scal_one = z.contains(probes[j]);
        }
        if (vec_batch[j] != vec_one || scal_batch[j] != scal_one || vec_one != scal_one)
          report.findings.push_back(FuzzFinding{
              "kernel-diverged",
              "probe " + set_str(probes[j]) + ": batch/vector=" +
                  std::to_string(vec_batch[j]) + " single/vector=" +
                  std::to_string(vec_one) + " batch/scalar=" +
                  std::to_string(scal_batch[j]) + " single/scalar=" +
                  std::to_string(scal_one),
              text, seed, i});
      }
    }

    // svc::Engine byte identity for one instance_key across the no-cache,
    // freshly-computed, cached and coalesced paths.
    svc::Request fresh{svc::QueryKind::kDecideRmt, *inst, svc::SimParams{}, std::nullopt,
                       /*no_cache=*/true};
    svc::Request normal{svc::QueryKind::kDecideRmt, *inst, svc::SimParams{}, std::nullopt,
                        /*no_cache=*/false};
    const auto r_fresh = engine.run({fresh});
    const auto r_first = engine.run({normal});
    const auto r_pair = engine.run({normal, normal});  // in-batch coalescing
    std::vector<const svc::Response*> all{&r_fresh[0], &r_first[0], &r_pair[0], &r_pair[1]};
    bool svc_ok = true;
    for (const svc::Response* r : all)
      if (r->status != svc::Response::Status::kOk) svc_ok = false;
    if (svc_ok)
      for (const svc::Response* r : all)
        if (r->result != r_fresh[0].result || r->key != r_fresh[0].key) svc_ok = false;
    if (svc_ok && !(r_pair[0].cached && r_pair[1].cached)) svc_ok = false;
    if (!svc_ok)
      report.findings.push_back(FuzzFinding{
          "svc-diverged",
          "no-cache/fresh/cached/coalesced answers for one instance_key differ "
          "(fresh status=" + std::to_string(int(r_fresh[0].status)) + ")",
          text, seed, i});

    // The served `analyze` skips whichever decider rmt_solvable implies;
    // its bytes must equal the answer built from all three oracles.
    const svc::Request analyze{svc::QueryKind::kAnalyze, *inst, svc::SimParams{},
                               std::nullopt, /*no_cache=*/true};
    const svc::Response served = engine.run({analyze})[0];
    const std::string want = svc::format_analyze_result(oracle);
    if (served.status != svc::Response::Status::kOk || served.result != want)
      report.findings.push_back(FuzzFinding{
          "analyze-diverged", "served " + served.result + " | unskipped " + want, text, seed, i});
  }

  // --- loop 3: store-image robustness over mutated record logs -------------
  // Pure bytes in, bytes out: scan_bytes never touches the filesystem, so
  // this loop is as deterministic as the parser loop. Roughly a third of
  // the images go in unmutated — the clean-image path (scan, audit,
  // round-trip every record, no tear) must stay green too.
  for (std::size_t i = 0; i < opts.store_checks; ++i) {
    const std::uint64_t seed = unit_seed(opts.seed, kStoreDomain, i);
    Rng rng(seed);
    std::string img = synth_store_image(rng);
    if (!rng.chance(0.33)) {
      const std::size_t steps = 1 + rng.index(4);
      for (std::size_t s = 0; s < steps; ++s) img = mutate_store_image(img, rng);
    }
    check_store_image(img, seed, i, report);
  }

  // --- loop 4: the cache-entry codec over structured byte strings ---------
  for (std::size_t i = 0; i < kCodecChecks; ++i) {
    const std::uint64_t seed = unit_seed(opts.seed, kCodecDomain, i);
    Rng rng(seed);
    check_codec(codec_input(rng), opts, rng, seed, i, report);
  }

  return report;
}

std::size_t write_artifacts(const std::string& dir, const std::vector<FuzzFinding>& findings) {
  if (findings.empty()) return 0;
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  std::size_t written = 0;
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const FuzzFinding& f = findings[i];
    std::string num = std::to_string(i);
    while (num.size() < 3) num.insert(num.begin(), '0');
    const std::string stem = dir + "/finding-" + num + "-" + f.kind;
    std::ofstream rmt(stem + ".rmt", std::ios::binary);
    rmt << f.input;
    std::ofstream txt(stem + ".txt", std::ios::binary);
    txt << "kind: " << f.kind << "\nindex: " << f.index << "\nseed: " << f.seed
        << "\ndetail: " << f.detail << "\n";
    if (rmt && txt) written += 2;
  }
  return written;
}

std::string FuzzReport::summary() const {
  return "fuzz: " + std::to_string(parser_mutants) + " parser mutants (" +
         std::to_string(parsed_ok) + " parsed, " + std::to_string(rejected) +
         " rejected), " + std::to_string(memo_checks) + " memo checks, " +
         std::to_string(roundtrip_checks) + " round-trips, " +
         std::to_string(audit_checks) + " audits, " + std::to_string(diff_checks) +
         " differential checks, " + std::to_string(kernel_probes) +
         " kernel probes, " + std::to_string(store_checks) + " store images (" +
         std::to_string(store_rejected) + " rejected, " + std::to_string(store_repaired) +
         " repaired, " + std::to_string(store_records) + " records), " +
         std::to_string(codec_checks) + " codec checks, " + std::to_string(findings.size()) +
         " findings";
}

}  // namespace rmt::propcheck
