// obs/json.hpp — a dependency-free streaming JSON writer, plus the
// registry-snapshot export.
//
// Deliberately a writer, not a document model: everything this repository
// exports (metric snapshots, JSONL trace events, bench reports) is
// produced in one forward pass, so a push API with automatic comma and
// escape handling is all that is needed — and it cannot produce
// malformed output short of unbalanced begin/end calls, which it checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rmt::obs {

class Registry;

namespace json {

/// Forward-only JSON builder. Usage:
///   Writer w;
///   w.begin_object();
///   w.key("rounds").value(12);
///   w.key("phases").begin_array(); ... w.end_array();
///   w.end_object();
///   std::string out = w.take();
class Writer {
 public:
  Writer& begin_object();
  Writer& end_object();
  Writer& begin_array();
  Writer& end_array();

  /// Must be called inside an object, immediately before the value.
  Writer& key(std::string_view k);

  /// Strings are escaped straight into the document, with no temporary.
  Writer& value(std::string_view v);
  Writer& value(const std::string& v) { return value(std::string_view(v)); }
  Writer& value(const char* v) { return value(std::string_view(v)); }
  /// The shortest printf "%.*g" form that reads back as `v`; non-finite
  /// values render as null.
  Writer& value(double v);
  Writer& value(std::uint64_t v);
  Writer& value(std::int64_t v);
  Writer& value(int v) { return value(std::int64_t(v)); }
  Writer& value(unsigned v) { return value(std::uint64_t(v)); }
  Writer& value(bool v);
  Writer& null();

  /// Splice an already-serialized JSON document in value position (e.g.
  /// a snapshot_json() string). The caller vouches for its validity.
  Writer& raw_value(const std::string& document);

  /// Shorthand for key(k).value(v).
  template <typename T>
  Writer& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  /// Finish and return the document. Throws if containers are unbalanced.
  std::string take();

 private:
  enum class Ctx : unsigned char { kArray, kObject };
  void before_value();
  std::string out_;
  std::vector<Ctx> stack_;
  bool needs_comma_ = false;
  bool pending_key_ = false;
};

/// JSON string escaping per RFC 8259 (quotes, backslash, control chars).
std::string escape(std::string_view s);

/// Deepest container nesting Value::parse accepts; one level deeper is
/// rejected with "json::parse: nesting deeper than <kMaxParseDepth> at
/// offset K". Every document this repository reads (requests, campaign
/// manifests, bench reports, trace dumps) nests at most a handful of
/// levels; the cap bounds the recursive parser's stack on hostile input.
inline constexpr std::size_t kMaxParseDepth = 64;

/// Minimal document model for *reading back* the artifacts this module
/// writes (campaign manifests, bench reports in tests). Numbers keep
/// their exact unsigned-integer value when the token was a non-negative
/// integer that fits std::uint64_t — seeds round-trip losslessly — and
/// a double rendering otherwise. This is a reader for our own output,
/// not a general-purpose JSON library: \uXXXX escapes outside the BMP
/// basics and exotic number forms are rejected rather than interpreted.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parse one complete JSON document (throws std::invalid_argument on
  /// malformed input or trailing garbage).
  static Value parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  /// Typed accessors; each requires the matching kind.
  bool as_bool() const;
  double as_double() const;
  /// Requires the token to have been an exact non-negative integer.
  std::uint64_t as_u64() const;
  const std::string& as_string() const;
  const std::vector<Value>& array() const;

  /// Object member lookup; null when absent. Requires kind() == kObject.
  const Value* find(const std::string& key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::uint64_t uint_ = 0;
  bool exact_uint_ = false;
  std::string str_;
  std::vector<Value> arr_;
  std::vector<std::pair<std::string, Value>> members_;

  friend class Parser;
};

}  // namespace json

/// Serialize every metric of `r` as one JSON object:
///   {"counters": {...}, "gauges": {...},
///    "phases": {"rmt_cut.find": {"count":..,"total_us":..,"p50_us":..}},
///    "histograms": {...}, "summaries": {...}}
/// Histograms named "phase.<x>" are reported under "phases" (keyed by
/// <x>); labels render as a "name{k=v,...}" key suffix.
std::string snapshot_json(const Registry& r);

}  // namespace rmt::obs
