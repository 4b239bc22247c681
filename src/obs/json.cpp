#include "obs/json.hpp"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace rmt::obs {

namespace json {

namespace {

/// Append `s` to `out` escaped per RFC 8259. Runs of bytes that need no
/// escape are copied with one append each.
void append_escaped(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t run = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

}  // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_escaped(out, s);
  return out;
}

void Writer::before_value() {
  if (!stack_.empty() && stack_.back() == Ctx::kObject)
    RMT_CHECK(pending_key_, "json::Writer: value inside an object requires key() first");
  if (needs_comma_) out_ += ',';
  needs_comma_ = false;
  pending_key_ = false;
}

Writer& Writer::begin_object() {
  before_value();
  out_ += '{';
  stack_.push_back(Ctx::kObject);
  return *this;
}

Writer& Writer::end_object() {
  RMT_CHECK(!stack_.empty() && stack_.back() == Ctx::kObject && !pending_key_,
            "json::Writer: unbalanced end_object");
  stack_.pop_back();
  out_ += '}';
  needs_comma_ = true;
  return *this;
}

Writer& Writer::begin_array() {
  before_value();
  out_ += '[';
  stack_.push_back(Ctx::kArray);
  return *this;
}

Writer& Writer::end_array() {
  RMT_CHECK(!stack_.empty() && stack_.back() == Ctx::kArray,
            "json::Writer: unbalanced end_array");
  stack_.pop_back();
  out_ += ']';
  needs_comma_ = true;
  return *this;
}

Writer& Writer::key(std::string_view k) {
  RMT_CHECK(!stack_.empty() && stack_.back() == Ctx::kObject && !pending_key_,
            "json::Writer: key() outside an object");
  if (needs_comma_) out_ += ',';
  needs_comma_ = false;
  out_ += '"';
  append_escaped(out_, k);
  out_ += "\":";
  pending_key_ = true;
  return *this;
}

Writer& Writer::value(std::string_view v) {
  before_value();
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
  needs_comma_ = true;
  return *this;
}

Writer& Writer::value(double v) {
  if (!std::isfinite(v)) return null();
  before_value();
  // Shortest %g form that round-trips the double exactly. to_chars with
  // chars_format::general and a precision is printf's "%.*g" in the "C"
  // locale, byte for byte, without the format parsing and locale lookups.
  char buf[40];
  char* end = buf;
  for (int prec = 1; prec <= 17; ++prec) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, prec).ptr;
    double parsed = 0;
    std::from_chars(buf, end, parsed);
    if (parsed == v) break;
  }
  out_.append(buf, end);
  needs_comma_ = true;
  return *this;
}

Writer& Writer::value(std::uint64_t v) {
  before_value();
  append_int(out_, v);
  needs_comma_ = true;
  return *this;
}

Writer& Writer::value(std::int64_t v) {
  before_value();
  append_int(out_, v);
  needs_comma_ = true;
  return *this;
}

Writer& Writer::value(bool v) {
  before_value();
  out_ += v ? "true" : "false";
  needs_comma_ = true;
  return *this;
}

Writer& Writer::null() {
  before_value();
  out_ += "null";
  needs_comma_ = true;
  return *this;
}

Writer& Writer::raw_value(const std::string& document) {
  before_value();
  out_ += document;
  needs_comma_ = true;
  return *this;
}

std::string Writer::take() {
  RMT_CHECK(stack_.empty(), "json::Writer: take() with open containers");
  return std::move(out_);
}

/// Recursive-descent parser over the grammar the Writer emits.
class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Value document() {
    Value v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after the document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("json::parse: " + why + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(const char* w) {
    const std::size_t len = std::string(w).size();
    if (s_.compare(pos_, len, w) != 0) return false;
    pos_ += len;
    return true;
  }

  Value value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        Value v;
        v.kind_ = Value::Kind::kString;
        v.str_ = string();
        return v;
      }
      case 't':
      case 'f': {
        Value v;
        v.kind_ = Value::Kind::kBool;
        if (consume_word("true")) v.bool_ = true;
        else if (consume_word("false")) v.bool_ = false;
        else fail("bad literal");
        return v;
      }
      case 'n': {
        if (!consume_word("null")) fail("bad literal");
        return Value{};
      }
      default: return number();
    }
  }

  /// Counts one level of container nesting for its lifetime. The parser
  /// recurses once per level, so the cap bounds its stack on hostile input.
  class Nesting {
   public:
    explicit Nesting(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxParseDepth)
        p_.fail("nesting deeper than " + std::to_string(kMaxParseDepth));
    }
    ~Nesting() { --p_.depth_; }
    Nesting(const Nesting&) = delete;
    Nesting& operator=(const Nesting&) = delete;

   private:
    Parser& p_;
  };

  Value object() {
    const Nesting level(*this);
    expect('{');
    Value v;
    v.kind_ = Value::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.members_.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value array() {
    const Nesting level(*this);
    expect('[');
    Value v;
    v.kind_ = Value::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr_.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run up to the next quote, backslash or control byte in one
      // append. RFC 8259 requires U+0000–U+001F escaped inside strings.
      std::size_t end = pos_;
      while (end < s_.size() && s_[end] != '"' && s_[end] != '\\' &&
             static_cast<unsigned char>(s_[end]) >= 0x20)
        ++end;
      out.append(s_, pos_, end - pos_);
      pos_ = end;
      if (pos_ >= s_.size()) fail("unterminated string");
      if (static_cast<unsigned char>(s_[pos_]) < 0x20) fail("unescaped control byte in string");
      if (s_[pos_++] == '"') return out;
      if (pos_ >= s_.size()) fail("unterminated escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= unsigned(h - '0');
            else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The Writer only emits \u00XX for control characters; anything
          // beyond one byte is outside the dialect we read back.
          if (code > 0xff) fail("\\u escape beyond the writer's dialect");
          out += char(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Value number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    const std::string token = s_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("malformed number");
    Value v;
    v.kind_ = Value::Kind::kNumber;
    // Exact path for non-negative integers (seeds, counts): all digits.
    if (token.find_first_not_of("0123456789") == std::string::npos && token.size() <= 20) {
      errno = 0;
      char* endp = nullptr;
      const unsigned long long u = std::strtoull(token.c_str(), &endp, 10);
      if (errno == 0 && endp == token.c_str() + token.size()) {
        v.uint_ = u;
        v.exact_uint_ = true;
        v.num_ = double(u);
        return v;
      }
    }
    std::size_t used = 0;
    try {
      v.num_ = std::stod(token, &used);
    } catch (const std::exception&) {
      fail("malformed number");
    }
    if (used != token.size()) fail("malformed number");
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< containers open at pos_
};

Value Value::parse(const std::string& text) { return Parser(text).document(); }

bool Value::as_bool() const {
  RMT_REQUIRE(kind_ == Kind::kBool, "json::Value: not a bool");
  return bool_;
}

double Value::as_double() const {
  RMT_REQUIRE(kind_ == Kind::kNumber, "json::Value: not a number");
  return num_;
}

std::uint64_t Value::as_u64() const {
  RMT_REQUIRE(kind_ == Kind::kNumber && exact_uint_,
              "json::Value: not an exact unsigned integer");
  return uint_;
}

const std::string& Value::as_string() const {
  RMT_REQUIRE(kind_ == Kind::kString, "json::Value: not a string");
  return str_;
}

const std::vector<Value>& Value::array() const {
  RMT_REQUIRE(kind_ == Kind::kArray, "json::Value: not an array");
  return arr_;
}

const Value* Value::find(const std::string& key) const {
  RMT_REQUIRE(kind_ == Kind::kObject, "json::Value: find() on a non-object");
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

}  // namespace json

namespace {

std::string series_key(const Registry::Entry& e, const std::string& name) {
  if (e.labels.empty()) return name;
  std::string k = name + "{";
  for (std::size_t i = 0; i < e.labels.size(); ++i) {
    if (i) k += ",";
    k += e.labels[i].first + "=" + e.labels[i].second;
  }
  return k + "}";
}

void write_histogram_body(json::Writer& w, const Histogram& h) {
  w.begin_object();
  w.field("count", h.count());
  w.field("total_us", h.sum());
  w.field("mean_us", h.mean());
  w.field("min_us", h.min());
  w.field("p50_us", h.p50());
  w.field("p95_us", h.p95());
  w.field("p99_us", h.p99());
  w.field("max_us", h.max());
  w.end_object();
}

}  // namespace

std::string snapshot_json(const Registry& r) {
  constexpr const char* kPhasePrefix = "phase.";
  const auto entries = r.entries();
  json::Writer w;
  w.begin_object();

  w.key("counters").begin_object();
  for (const auto& e : entries)
    if (e.kind == Registry::Entry::Kind::kCounter)
      w.field(series_key(e, e.name), e.counter->value());
  w.end_object();

  w.key("gauges").begin_object();
  for (const auto& e : entries)
    if (e.kind == Registry::Entry::Kind::kGauge)
      w.field(series_key(e, e.name), e.gauge->value());
  w.end_object();

  w.key("phases").begin_object();
  for (const auto& e : entries) {
    if (e.kind != Registry::Entry::Kind::kHistogram || e.name.rfind(kPhasePrefix, 0) != 0)
      continue;
    w.key(series_key(e, e.name.substr(std::string(kPhasePrefix).size())));
    write_histogram_body(w, *e.histogram);
  }
  w.end_object();

  w.key("histograms").begin_object();
  for (const auto& e : entries) {
    if (e.kind != Registry::Entry::Kind::kHistogram || e.name.rfind(kPhasePrefix, 0) == 0)
      continue;
    w.key(series_key(e, e.name));
    write_histogram_body(w, *e.histogram);
  }
  w.end_object();

  w.key("summaries").begin_object();
  for (const auto& e : entries) {
    if (e.kind != Registry::Entry::Kind::kSummary) continue;
    const OnlineStats s = e.summary->snapshot();
    w.key(series_key(e, e.name)).begin_object();
    w.field("count", s.count());
    if (!s.empty()) {
      w.field("mean", s.mean());
      w.field("stddev", s.stddev());
      w.field("min", s.min());
      w.field("max", s.max());
    }
    w.end_object();
  }
  w.end_object();

  w.end_object();
  return w.take();
}

}  // namespace rmt::obs
