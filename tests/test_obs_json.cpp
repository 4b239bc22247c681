// Tests for the JSON export layer (obs/json.hpp, obs/bench_report.hpp):
// writer correctness (escaping, nesting, number round-trip), the registry
// snapshot document, and the rmt.bench/1 report schema.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "obs/bench_report.hpp"
#include "obs/metrics.hpp"

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
