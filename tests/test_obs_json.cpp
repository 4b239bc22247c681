// Tests for the JSON export layer (obs/json.hpp, obs/bench_report.hpp):
// writer correctness (escaping, nesting, number round-trip, byte identity
// with the snprintf / temporary-string Writer it replaced), the registry
// snapshot document, and the rmt.bench/1 report schema.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace rmt::obs {
namespace {

TEST(JsonWriter, FlatObject) {
  json::Writer w;
  w.begin_object();
  w.field("a", 1);
  w.field("b", "two");
  w.field("c", true);
  w.key("d").null();
  w.end_object();
  EXPECT_EQ(w.take(), R"({"a":1,"b":"two","c":true,"d":null})");
}

TEST(JsonWriter, NestedContainersAndArrays) {
  json::Writer w;
  w.begin_object();
  w.key("rows").begin_array();
  w.begin_object().field("n", 6).end_object();
  w.begin_object().field("n", 8).end_object();
  w.end_array();
  w.key("empty").begin_array().end_array();
  w.end_object();
  EXPECT_EQ(w.take(), R"({"rows":[{"n":6},{"n":8}],"empty":[]})");
}

TEST(JsonWriter, EscapesControlAndQuoteCharacters) {
  json::Writer w;
  w.begin_object();
  w.field("k\"1", "a\\b\nc\td\x01");
  w.end_object();
  EXPECT_EQ(w.take(), "{\"k\\\"1\":\"a\\\\b\\nc\\td\\u0001\"}");
}

TEST(JsonWriter, NumbersRoundTrip) {
  json::Writer w;
  w.begin_array();
  w.value(0.1);
  w.value(1e-9);
  w.value(123456789.125);
  w.value(std::uint64_t(18446744073709551615ull));
  w.end_array();
  EXPECT_EQ(w.take(), "[0.1,1e-09,123456789.125,18446744073709551615]");
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  json::Writer w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::nan(""));
  w.end_array();
  EXPECT_EQ(w.take(), "[null,null]");
}

// --- the one-pass Writer against the implementation it replaced ------------
//
// Writer::value(double) used snprintf("%.*g") / sscanf("%lf") and escape()
// built a temporary string per call. Both old forms are kept here as the
// reference: the served bytes must not change.

std::string reference_double(double v) {
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    double parsed = 0;
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == v) break;
  }
  return buf;
}

std::string reference_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string written(double v) {
  json::Writer w;
  w.value(v);
  return w.take();
}

TEST(JsonWriter, DoublesMatchTheSnprintfReference) {
  std::size_t checked = 0, mismatches = 0;
  std::string first_mismatch;
  const auto check = [&](double v) {
    if (!std::isfinite(v)) return;  // null, not a number (NonFiniteBecomesNull)
    ++checked;
    const std::string got = written(v), want = reference_double(v);
    if (got != want && mismatches++ == 0)
      first_mismatch = want + " rendered as " + got;
  };
  for (const double v : {0.0, -0.0, 5e-324, -5e-324, std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::max(),
                         -std::numeric_limits<double>::max(), 1e-5, 1e-4, 1e21, 1e20,
                         100000.0, 1e15, 1e16, 1e17, 0.1, 0.5, 1.0 / 3, 2.0 / 3,
                         9007199254740993.0, 123456789.125, -1.5, 1e308, 4.35})
    check(v);
  Rng rng(20261017);
  for (std::size_t i = 0; i < 1'000'000; ++i) {
    const std::uint64_t bits = rng.uniform(0, ~std::uint64_t(0));
    double v = 0;
    switch (i % 8) {
      case 0:  // any bit pattern: mostly 16-17 significant digits, slow to check
        std::memcpy(&v, &bits, sizeof v);
        break;
      case 1:
      case 2:
      case 3:  // short decimals, as latencies and ratios print
        v = double(bits % 100'000'000) / 1000.0;
        break;
      case 4:
      case 5:  // binary fractions and large integers around the %g switch points
        v = std::ldexp(double(bits >> 11), int(bits % 64) - 32);
        break;
      default:  // powers of ten times small mantissas, both signs
        v = double(std::int64_t(bits % 2001) - 1000) * std::pow(10.0, int(bits >> 56) % 40 - 20);
    }
    check(v);
  }
  EXPECT_GE(checked, 900'000u);
  EXPECT_EQ(mismatches, 0u) << "first: " << first_mismatch;
}

TEST(JsonWriter, EscapeMatchesTheReferenceOnEveryByte) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, char(b));
    EXPECT_EQ(json::escape(one), reference_escape(one)) << "byte " << b;
    const std::string framed = "a" + one + "z";
    EXPECT_EQ(json::escape(framed), reference_escape(framed)) << "byte " << b;
    all += one;
  }
  EXPECT_EQ(json::escape(all), reference_escape(all));
  // Keys and string values escape the same way, straight into the document.
  json::Writer w;
  w.begin_object();
  w.field(all, all);
  w.end_object();
  EXPECT_EQ(w.take(), "{\"" + reference_escape(all) + "\":\"" + reference_escape(all) + "\"}");
}

TEST(JsonWriter, UnbalancedContainersThrow) {
  json::Writer w;
  w.begin_object();
  EXPECT_THROW(w.end_array(), std::logic_error);
  EXPECT_THROW(w.take(), std::logic_error);
}

TEST(JsonWriter, ValueWithoutKeyInObjectThrows) {
  json::Writer w;
  w.begin_object();
  EXPECT_THROW(w.value(1), std::logic_error);
}

// The reader recurses once per container level, so nesting is capped:
// exactly kMaxParseDepth levels parse, one more is a precise rejection
// (offset = the opening bracket that went too deep) instead of a stack
// overflow.
TEST(JsonValue, NestingDepthIsCapped) {
  const std::size_t n = json::kMaxParseDepth;
  const std::string arrays = std::string(n, '[') + std::string(n, ']');
  const json::Value ok = json::Value::parse(arrays);
  const json::Value* v = &ok;
  for (std::size_t d = 1; d < n; ++d) {
    ASSERT_TRUE(v->is_array());
    ASSERT_EQ(v->array().size(), 1u);
    v = &v->array()[0];
  }
  EXPECT_TRUE(v->is_array() && v->array().empty());

  std::string objects;
  for (std::size_t d = 0; d < n; ++d) objects += R"({"k":)";
  objects += "1" + std::string(n, '}');
  EXPECT_NO_THROW(json::Value::parse(objects));

  const std::string expected = "json::parse: nesting deeper than " + std::to_string(n) +
                               " at offset " + std::to_string(n);
  for (const std::string& deep :
       {std::string(n + 1, '[') + std::string(n + 1, ']'), std::string(n, '[') + "{}" +
                                                                std::string(n, ']')}) {
    try {
      json::Value::parse(deep);
      ADD_FAILURE() << "depth " << n + 1 << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }
  }
  // The line that used to overflow the stack is now an ordinary rejection.
  EXPECT_THROW(json::Value::parse(std::string(100000, '[')), std::invalid_argument);
}

TEST(JsonValue, StringsKeepEscapesBetweenPlainRuns) {
  const json::Value v = json::Value::parse(R"(["plain", "a\nb\"c\\d\u0001e", ""])");
  EXPECT_EQ(v.array()[0].as_string(), "plain");
  EXPECT_EQ(v.array()[1].as_string(), std::string("a\nb\"c\\d\x01" "e"));
  EXPECT_EQ(v.array()[2].as_string(), "");
  EXPECT_THROW(json::Value::parse(R"("unterminated)"), std::invalid_argument);
  EXPECT_THROW(json::Value::parse(R"("dangling\)"), std::invalid_argument);
}

TEST(JsonValue, RawControlBytesInStringsAreRejected) {
  // RFC 8259 requires U+0000–U+001F escaped inside strings: each raw byte
  // is a precise rejection at its own offset, and the same byte escaped
  // parses to that byte.
  for (int c = 0; c < 0x20; ++c) {
    SCOPED_TRACE(c);
    const std::string raw = std::string(R"(["a)") + char(c) + R"(b"])";
    try {
      json::Value::parse(raw);
      ADD_FAILURE() << "raw byte accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "json::parse: unescaped control byte in string at offset 3");
    }
    char escaped[8];
    std::snprintf(escaped, sizeof escaped, "\\u%04x", unsigned(c));
    const json::Value v = json::Value::parse(std::string(R"(["a)") + escaped + R"(b"])");
    EXPECT_EQ(v.array()[0].as_string(), std::string("a") + char(c) + "b");
  }
  // In a key and right after an escape, too; DEL and UTF-8 bytes are text.
  EXPECT_THROW(json::Value::parse("{\"k\x01\":1}"), std::invalid_argument);
  EXPECT_THROW(json::Value::parse("[\"\\n\x1f\"]"), std::invalid_argument);
  EXPECT_EQ(json::Value::parse("[\"\x7f\xc3\xa9\"]").array()[0].as_string(), "\x7f\xc3\xa9");
}

TEST(JsonSnapshot, ContainsAllSections) {
  Registry r;
  r.counter("msgs", {{"proto", "zcpa"}}).inc(7);
  r.gauge("level").set(2.5);
  r.histogram("phase.rmt_cut.find").observe(10.0);
  r.histogram("payload_bytes").observe(128.0);
  r.summary("latency").observe(4.0);
  const std::string doc = snapshot_json(r);
  EXPECT_NE(doc.find("\"counters\":{\"msgs{proto=zcpa}\":7}"), std::string::npos);
  EXPECT_NE(doc.find("\"gauges\":{\"level\":2.5}"), std::string::npos);
  // phase.* histograms are reported under "phases", stripped of the prefix.
  EXPECT_NE(doc.find("\"phases\":{\"rmt_cut.find\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\":{\"payload_bytes\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"summaries\":{\"latency\":{"), std::string::npos);
  EXPECT_NE(doc.find("\"p95_us\""), std::string::npos);
}

TEST(BenchReport, DocumentMatchesSchema) {
  Registry::global().reset();
  BenchReport rep("unit_test_driver");
  rep.set_columns({"n", "label", "time_us", "ok"});
  rep.add_row({std::uint64_t(6), std::string("a"), 1.5, true});
  rep.add_row({std::uint64_t(8), std::string("b"), 2.25, false});
  const std::string doc = rep.to_json();
  EXPECT_NE(doc.find("\"schema\":\"rmt.bench/1\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"unit_test_driver\""), std::string::npos);
  EXPECT_NE(doc.find("\"columns\":[\"n\",\"label\",\"time_us\",\"ok\"]"), std::string::npos);
  EXPECT_NE(doc.find("{\"n\":6,\"label\":\"a\",\"time_us\":1.5,\"ok\":true}"),
            std::string::npos);
  EXPECT_NE(doc.find("\"metrics\":{"), std::string::npos);
}

TEST(BenchReport, RowWidthMismatchThrows) {
  BenchReport rep("x");
  rep.set_columns({"a", "b"});
  EXPECT_THROW(rep.add_row({std::uint64_t(1)}), std::invalid_argument);
}

TEST(BenchReport, WritesFile) {
  BenchReport rep("file_test");
  rep.set_columns({"v"});
  rep.add_row({std::uint64_t(1)});
  const std::string path = ::testing::TempDir() + "rmt_bench_report_test.json";
  rep.write(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("\"rmt.bench/1\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ConsumeJsonFlag, ExtractsAndCompactsArgv) {
  const char* raw[] = {"prog", "--benchmark_filter=x", "--json", "out.json", "tail"};
  char* argv[5];
  for (int i = 0; i < 5; ++i) argv[i] = const_cast<char*>(raw[i]);
  int argc = 5;
  const auto path = consume_json_flag(argc, argv);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(*path, "out.json");
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "--benchmark_filter=x");
  EXPECT_STREQ(argv[2], "tail");
}

TEST(ConsumeJsonFlag, EqualsFormAndAbsence) {
  {
    const char* raw[] = {"prog", "--json=artifact.json"};
    char* argv[2];
    for (int i = 0; i < 2; ++i) argv[i] = const_cast<char*>(raw[i]);
    int argc = 2;
    const auto path = consume_json_flag(argc, argv);
    ASSERT_TRUE(path.has_value());
    EXPECT_EQ(*path, "artifact.json");
    EXPECT_EQ(argc, 1);
  }
  {
    const char* raw[] = {"prog", "positional"};
    char* argv[2];
    for (int i = 0; i < 2; ++i) argv[i] = const_cast<char*>(raw[i]);
    int argc = 2;
    EXPECT_FALSE(consume_json_flag(argc, argv).has_value());
    EXPECT_EQ(argc, 2);
  }
}

}  // namespace
}  // namespace rmt::obs
