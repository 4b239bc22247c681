// Tests for the rmt.request/1 / rmt.response/1 line protocol (svc/wire.hpp).
#include "svc/wire.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "net/framing.hpp"
#include "obs/json.hpp"
#include "svc/instance_key.hpp"

namespace rmt::svc::wire {
namespace {

constexpr const char* kInstanceText =
    "rmt-instance v1\\nnodes 3\\nedge 0 1\\nedge 1 2\\ndealer 0\\nreceiver 2\\n"
    "corruptible 1\\n";

std::string request_line(const std::string& extra = "") {
  return std::string(R"({"schema":"rmt.request/1","id":"q1","kind":"decide_rmt",)") +
         "\"instance\":\"" + kInstanceText + "\"" + extra + "}";
}

TEST(SvcWire, ParsesMinimalRequest) {
  const ParsedRequest parsed = parse_request(request_line());
  EXPECT_EQ(parsed.id, "q1");
  EXPECT_EQ(parsed.request.kind, QueryKind::kDecideRmt);
  EXPECT_EQ(parsed.request.instance.get().num_players(), 3u);
  EXPECT_EQ(parsed.request.instance.get().receiver(), 2u);
  EXPECT_FALSE(parsed.request.deadline_ms.has_value());
  EXPECT_FALSE(parsed.request.no_cache);
  // params defaults survive when the field is absent
  EXPECT_EQ(parsed.request.params.value, 42u);
  EXPECT_EQ(parsed.request.params.strategy, "two-faced");
}

TEST(SvcWire, ParsesAllOptionalFields) {
  const std::string line = request_line(
      R"(,"deadline_ms":250,"no_cache":true,)"
      R"("params":{"value":7,"corrupted":[1],"strategy":"silent","seed":9,"max_rounds":5})");
  const ParsedRequest parsed = parse_request(line);
  ASSERT_TRUE(parsed.request.deadline_ms.has_value());
  EXPECT_EQ(*parsed.request.deadline_ms, 250u);
  EXPECT_TRUE(parsed.request.no_cache);
  EXPECT_EQ(parsed.request.params.value, 7u);
  EXPECT_EQ(parsed.request.params.corrupted, NodeSet{1});
  EXPECT_EQ(parsed.request.params.strategy, "silent");
  ASSERT_TRUE(parsed.request.params.seed.has_value());
  EXPECT_EQ(*parsed.request.params.seed, 9u);
  EXPECT_EQ(parsed.request.params.max_rounds, 5u);
}

void expect_rejected(const std::string& line, const std::string& needle) {
  try {
    parse_request(line);
    FAIL() << "expected std::invalid_argument mentioning: " << needle;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(SvcWire, RejectsMalformedRequests) {
  expect_rejected("not json at all", "");
  expect_rejected("[1,2,3]", "not a JSON object");
  expect_rejected(R"({"id":"q1"})", "missing field 'schema'");
  expect_rejected(R"({"schema":"rmt.bench/1","id":"q1"})", "unexpected schema value");
  expect_rejected(R"({"schema":"rmt.request/1","kind":"decide_rmt"})",
                  "missing field 'id'");
  expect_rejected(R"({"schema":"rmt.request/1","id":"q1","kind":"warp"})",
                  "unknown kind 'warp'");
  expect_rejected(R"({"schema":"rmt.request/1","id":"q1","kind":"decide_rmt"})",
                  "missing field 'instance'");
  expect_rejected(request_line(R"(,"params":[1])"), "'params' must be an object");
  // A syntactically fine request whose embedded instance is broken
  // surfaces the io parser's line-numbered message.
  expect_rejected(
      R"({"schema":"rmt.request/1","id":"q1","kind":"decide_rmt","instance":"bogus"})",
      "instance parse error at line 1");
}

TEST(SvcWire, RejectsNonStringRequiredFields) {
  // Every required field must be a *string*, and the message must name
  // the offending field — a client debugging a 400-equivalent needs to
  // know which one to fix.
  expect_rejected(R"({"schema":7,"id":"q1","kind":"decide_rmt","instance":""})",
                  "field 'schema' must be a string");
  expect_rejected(R"({"schema":"rmt.request/1","id":17,"kind":"decide_rmt"})",
                  "field 'id' must be a string");
  expect_rejected(R"({"schema":"rmt.request/1","id":"q1","kind":["decide_rmt"]})",
                  "field 'kind' must be a string");
  expect_rejected(
      R"({"schema":"rmt.request/1","id":"q1","kind":"decide_rmt","instance":null})",
      "field 'instance' must be a string");
}

TEST(SvcWire, RejectsOversizedLinesBeforeParsing) {
  // A line over kMaxRequestBytes is refused up front (the message carries
  // both the limit and the actual size), and the guard sits *before* the
  // JSON parser: the padding below is deliberately not valid JSON.
  std::string line = request_line();
  line.append(kMaxRequestBytes + 1 - line.size(), '{');
  try {
    parse_request(line);
    FAIL() << "expected std::invalid_argument for an oversized line";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line exceeds " + std::to_string(kMaxRequestBytes)),
              std::string::npos)
        << "actual message: " << msg;
    EXPECT_NE(msg.find("got " + std::to_string(line.size())), std::string::npos)
        << "actual message: " << msg;
  }
  // At exactly the limit the size guard passes (the parse then proceeds
  // normally; trailing spaces keep the JSON valid).
  std::string ok = request_line();
  ok.insert(ok.size() - 1, std::string(kMaxRequestBytes - ok.size(), ' '));
  EXPECT_EQ(parse_request(ok).id, "q1");
}

TEST(SvcWire, CapsSimulateParams) {
  static_assert(kMaxCorruptedId == 511 && kMaxRounds == 513);
  // At the caps: accepted, and the values arrive unchanged.
  const ParsedRequest at =
      parse_request(request_line(R"(,"params":{"corrupted":[511],"max_rounds":513})"));
  EXPECT_EQ(at.request.params.corrupted, NodeSet{511});
  EXPECT_EQ(at.request.params.max_rounds, 513u);
  // One past either cap: rejected before anything is allocated or run,
  // naming the field and the value the client sent.
  expect_rejected(request_line(R"(,"params":{"corrupted":[1,512]})"),
                  "rmt.request/1: 'params.corrupted' node id 512 exceeds 511");
  expect_rejected(request_line(R"(,"params":{"max_rounds":514})"),
                  "rmt.request/1: 'params.max_rounds' 514 exceeds 513");
  // A 32-bit id used to grow a NodeSet to 4 Gi bits; a 64-bit one was
  // truncated to another node. Both now name the id that was sent.
  expect_rejected(request_line(R"(,"params":{"corrupted":[4294967295]})"),
                  "rmt.request/1: 'params.corrupted' node id 4294967295 exceeds 511");
  expect_rejected(request_line(R"(,"params":{"corrupted":[99999999999]})"),
                  "rmt.request/1: 'params.corrupted' node id 99999999999 exceeds 511");
  // Below the cap the engine answers as before.
  const std::string sim = std::string(R"({"schema":"rmt.request/1","id":"s","kind":"simulate",)") +
                          "\"instance\":\"" + kInstanceText + "\"," +
                          R"("params":{"corrupted":[100]}})";
  Engine engine(nullptr);
  const Response r = engine.run({parse_request(sim).request})[0];
  EXPECT_EQ(r.status, Response::Status::kError);
  EXPECT_EQ(r.error, "corruption set " + NodeSet{100}.to_string() + " is not admissible under Z");
}

TEST(SvcWire, CapsIdLengthAndCorruptedEntries) {
  static_assert(kMaxIdBytes == 256 && kMaxCorruptedEntries == 512);
  const auto with_id = [](const std::string& id, const std::string& kind = "decide_rmt") {
    return R"({"schema":"rmt.request/1","id":")" + id + R"(","kind":")" + kind +
           R"(","instance":")" + kInstanceText + R"("})";
  };
  // At the id cap: accepted and echoed.
  const std::string at(kMaxIdBytes, 'i');
  EXPECT_EQ(parse_request(with_id(at)).id, at);
  EXPECT_EQ(parse_line(with_id(at)).id, at);
  // One byte past: rejected naming the cap, and never echoed — neither by
  // parse_line (any kind, probes included) nor by extract_id.
  const std::string past(kMaxIdBytes + 1, 'i');
  const std::string error = "rmt.request/1: 'id' exceeds 256 bytes (got 257)";
  expect_rejected(with_id(past), error);
  for (const std::string kind : {"decide_rmt", "stats", "trace"}) {
    const Envelope env = parse_line(with_id(past, kind));
    EXPECT_EQ(env.kind, Envelope::Kind::kError) << kind;
    EXPECT_EQ(env.id, "") << kind;
    EXPECT_EQ(env.error, error) << kind;
  }
  EXPECT_EQ(extract_id(with_id(past)), "");

  // 512 corrupted entries (ids repeat: at most 512 are distinct) are
  // accepted; 513 are rejected before any is inserted.
  std::string list = "1";
  for (std::size_t i = 1; i < kMaxCorruptedEntries; ++i) list += ",1";
  EXPECT_EQ(parse_request(request_line(R"(,"params":{"corrupted":[)" + list + "]}"))
                .request.params.corrupted,
            NodeSet{1});
  const std::string over = request_line(R"(,"params":{"corrupted":[)" + list + ",1]}");
  expect_rejected(over, "rmt.request/1: 'params.corrupted' has 513 entries, more than 512");
  const Envelope env = parse_line(over);
  EXPECT_EQ(env.kind, Envelope::Kind::kError);
  EXPECT_EQ(env.id, "q1");
  EXPECT_EQ(env.error, "rmt.request/1: 'params.corrupted' has 513 entries, more than 512");
}

TEST(SvcWire, ExtractIdIsBestEffort) {
  EXPECT_EQ(extract_id(R"({"schema":"nope","id":"q7"})"), "q7");
  EXPECT_EQ(extract_id(R"({"schema":"nope"})"), "");
  EXPECT_EQ(extract_id(R"({"id":17})"), "");  // non-string id
  EXPECT_EQ(extract_id("garbage {{{"), "");
}

// -- parse_line: one JSON parse per line, four outcomes ----------------------

TEST(SvcWire, ParseLineRecognizesProbes) {
  // Any JSON object whose "kind" is "stats" / "trace" is a probe; its id
  // is the string "id" member when there is one.
  const Envelope stats = parse_line(R"({"schema":"rmt.request/1","id":"s","kind":"stats"})");
  EXPECT_EQ(stats.kind, Envelope::Kind::kStats);
  EXPECT_EQ(stats.id, "s");
  EXPECT_FALSE(stats.request.has_value());
  const Envelope trace = parse_line(R"({"kind":"trace","id":17})");
  EXPECT_EQ(trace.kind, Envelope::Kind::kTrace);
  EXPECT_EQ(trace.id, "");
}

TEST(SvcWire, ParseLineParsesRequests) {
  const std::string line = request_line(R"(,"deadline_ms":250,"no_cache":true)");
  Envelope env = parse_line(line);
  ASSERT_EQ(env.kind, Envelope::Kind::kRequest);
  EXPECT_EQ(env.id, "q1");
  ASSERT_TRUE(env.request.has_value());
  const ParsedRequest expected = parse_request(line);
  EXPECT_EQ(env.request->kind, expected.request.kind);
  EXPECT_EQ(env.request->deadline_ms, expected.request.deadline_ms);
  EXPECT_EQ(env.request->no_cache, expected.request.no_cache);
  EXPECT_EQ(instance_key(env.request->instance), instance_key(expected.request.instance));
  EXPECT_TRUE(env.error.empty());
}

TEST(SvcWire, ParseLineErrorsCarryParseRequestsMessageAndSalvagedId) {
  // Every malformed line becomes an error envelope whose message is
  // exactly what parse_request throws and whose id is what extract_id
  // salvages — the bytes of the served error response are unchanged.
  const std::vector<std::string> lines = {
      "not json at all",
      "[1,2,3]",
      R"({"id":"q1"})",
      R"({"schema":"rmt.bench/1","id":"q2"})",
      R"({"schema":"rmt.request/1","id":"q3","kind":"warp"})",
      R"({"schema":"rmt.request/1","id":"q4","kind":"decide_rmt","instance":"bogus"})",
      R"({"schema":"rmt.request/1","id":17,"kind":"decide_rmt"})",
      request_line(R"(,"params":[1])"),
      request_line(R"(,"deadline_ms":"soon")"),
      request_line(R"(,"params":{"corrupted":[-1]})"),
  };
  for (const std::string& line : lines) {
    SCOPED_TRACE(line);
    const Envelope env = parse_line(line);
    EXPECT_EQ(env.kind, Envelope::Kind::kError);
    EXPECT_FALSE(env.request.has_value());
    EXPECT_EQ(env.id, extract_id(line));
    try {
      parse_request(line);
      ADD_FAILURE() << "parse_request accepted a line parse_line rejected";
    } catch (const std::exception& e) {
      EXPECT_EQ(env.error, e.what());
    }
  }
  EXPECT_EQ(parse_line(R"({"schema":"rmt.bench/1","id":"q2"})").id, "q2");
}

TEST(SvcWire, PreconditionErrorsCarryNoBuildPath) {
  // Instances that parse but break a model precondition are answered with
  // RMT_REQUIRE's text. Its file is relative to the checkout (src/...), so
  // the answer reads the same from every build and never carries the
  // build machine's directories.
  const std::vector<std::string> instances = {
      // γ(1) gains an edge {0, 2} that is not in the 3-path
      "rmt-instance v1\\nnodes 3\\nedge 0 1\\nedge 1 2\\ndealer 0\\nreceiver 2\\n"
      "knowledge custom\\nview-edge 1 : 0 2\\n",
      // the dealer is the receiver
      "rmt-instance v1\\nnodes 3\\nedge 0 1\\nedge 1 2\\ndealer 0\\nreceiver 0\\n",
  };
  InstanceMemo memo(1 << 20);
  for (const std::string& text : instances) {
    SCOPED_TRACE(text);
    const std::string line =
        R"({"schema":"rmt.request/1","id":"p","kind":"decide_rmt","instance":")" + text + "\"}";
    for (InstanceMemo* m : {static_cast<InstanceMemo*>(nullptr), &memo}) {
      const Envelope env = parse_line(line, m);
      ASSERT_EQ(env.kind, Envelope::Kind::kError);
      EXPECT_EQ(env.error.rfind("precondition failed:", 0), 0u) << env.error;
      EXPECT_EQ(env.error.find(" at /"), std::string::npos) << env.error;
      EXPECT_NE(env.error.find(" at src/"), std::string::npos) << env.error;
    }
  }
}

TEST(SvcWire, ParseLineNeverParsesAnOversizedLine) {
  // One byte over the limit, otherwise a valid request: the line is
  // refused unread, so no id is salvaged (the TCP framer's answer too).
  std::string line = request_line();
  line.insert(line.size() - 1, std::string(kMaxRequestBytes + 1 - line.size(), ' '));
  const Envelope env = parse_line(line);
  EXPECT_EQ(env.kind, Envelope::Kind::kError);
  EXPECT_EQ(env.id, "");
  EXPECT_EQ(env.error, "rmt.request/1: line exceeds " + std::to_string(kMaxRequestBytes) +
                           " bytes (got " + std::to_string(kMaxRequestBytes + 1) + ")");
  // An oversized probe is no probe either.
  std::string probe = R"({"id":"s","kind":"stats")";
  probe.append(kMaxRequestBytes, ' ');
  probe += "}";
  EXPECT_EQ(parse_line(probe).kind, Envelope::Kind::kError);
  EXPECT_EQ(parse_line(probe).id, "");
}

TEST(SvcWire, DeeplyNestedLineIsAnErrorResponse) {
  // 100 000 nested arrays used to overflow the recursive JSON parser's
  // stack and kill the server; now the line is one error response.
  const Envelope env = parse_line(std::string(100000, '['));
  ASSERT_EQ(env.kind, Envelope::Kind::kError);
  EXPECT_EQ(env.id, "");
  EXPECT_EQ(env.error, "json::parse: nesting deeper than " +
                           std::to_string(obs::json::kMaxParseDepth) + " at offset " +
                           std::to_string(obs::json::kMaxParseDepth));
  const obs::json::Value doc = obs::json::Value::parse(format_parse_error(env.id, env.error));
  EXPECT_EQ(doc.find("status")->as_string(), "error");
  EXPECT_EQ(doc.find("error")->as_string(), env.error);
  // Deep nesting inside an otherwise valid request is rejected the same way.
  const Envelope nested = parse_line(request_line(
      R"(,"params":{"corrupted":)" + std::string(100000, '[') + "}"));
  EXPECT_EQ(nested.kind, Envelope::Kind::kError);
  EXPECT_NE(nested.error.find("nesting deeper than"), std::string::npos);
}

TEST(SvcWire, RawControlByteInAStringIsAnErrorResponse) {
  // JSON requires U+0000–U+001F escaped inside strings. A raw one makes the
  // line a parse error answered with id "", so the hostile id is never
  // echoed; escaped, the same id is an ordinary one.
  const std::string raw = "{\"schema\":\"rmt.request/1\",\"id\":\"a\x01"
                          "b\",\"kind\":\"stats\"}";
  const Envelope env = parse_line(raw);
  EXPECT_EQ(env.kind, Envelope::Kind::kError);
  EXPECT_EQ(env.id, "");
  EXPECT_EQ(env.error, "json::parse: unescaped control byte in string at offset " +
                           std::to_string(raw.find('\x01')));
  EXPECT_EQ(extract_id(raw), "");
  const Envelope escaped =
      parse_line(R"({"schema":"rmt.request/1","id":"a\u0001b","kind":"stats"})");
  EXPECT_EQ(escaped.kind, Envelope::Kind::kStats);
  EXPECT_EQ(escaped.id, std::string("a\x01") + "b");
  // A raw tab inside the instance text of a request is refused the same way.
  std::string tab = request_line();
  tab.insert(tab.find("rmt-instance") + 3, "\t");
  EXPECT_EQ(parse_line(tab).kind, Envelope::Kind::kError);
  EXPECT_NE(parse_line(tab).error.find("unescaped control byte"), std::string::npos);
}

TEST(SvcWire, FormatsOkResponse) {
  Response resp;
  resp.status = Response::Status::kOk;
  resp.key = "00ff";
  resp.result = R"({"kind":"decide_rmt","solvable":true})";
  resp.cached = true;
  resp.wall_us = 12.5;
  const std::string line = format_response("q1", resp);
  const obs::json::Value doc = obs::json::Value::parse(line);
  EXPECT_EQ(doc.find("schema")->as_string(), "rmt.response/1");
  EXPECT_EQ(doc.find("id")->as_string(), "q1");
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
  EXPECT_EQ(doc.find("key")->as_string(), "00ff");
  EXPECT_EQ(doc.find("result")->find("kind")->as_string(), "decide_rmt");
  EXPECT_EQ(doc.find("error")->kind(), obs::json::Value::Kind::kNull);
  EXPECT_TRUE(doc.find("cached")->as_bool());
  EXPECT_FALSE(doc.find("coalesced")->as_bool());
  // No trace id recorded: the field is still present, as null.
  EXPECT_EQ(doc.find("trace_id")->kind(), obs::json::Value::Kind::kNull);
}

TEST(SvcWire, ResponseCarriesTraceIdAs16Hex) {
  Response resp;
  resp.status = Response::Status::kOk;
  resp.result = "{}";
  resp.trace_id = 0x7f3a9c51d2e80b64ull;
  const obs::json::Value doc = obs::json::Value::parse(format_response("q1", resp));
  EXPECT_EQ(doc.find("trace_id")->as_string(), "7f3a9c51d2e80b64");
}

TEST(SvcWire, FormatsErrorAndDeadlineResponses) {
  Response err;
  err.status = Response::Status::kError;
  err.error = "strategy 'warp' unknown";
  const obs::json::Value edoc = obs::json::Value::parse(format_response("q2", err));
  EXPECT_EQ(edoc.find("status")->as_string(), "error");
  EXPECT_EQ(edoc.find("key")->kind(), obs::json::Value::Kind::kNull);
  EXPECT_EQ(edoc.find("result")->kind(), obs::json::Value::Kind::kNull);
  EXPECT_EQ(edoc.find("error")->as_string(), "strategy 'warp' unknown");

  Response late;
  late.status = Response::Status::kDeadlineExceeded;
  late.key = "ab";
  const obs::json::Value ldoc = obs::json::Value::parse(format_response("q3", late));
  EXPECT_EQ(ldoc.find("status")->as_string(), "deadline_exceeded");
  EXPECT_EQ(ldoc.find("result")->kind(), obs::json::Value::Kind::kNull);
  EXPECT_EQ(ldoc.find("error")->kind(), obs::json::Value::Kind::kNull);
}

TEST(SvcWire, ParseErrorResponseCarriesTheId) {
  const obs::json::Value doc =
      obs::json::Value::parse(format_parse_error("q9", "missing field 'kind'"));
  EXPECT_EQ(doc.find("schema")->as_string(), "rmt.response/1");
  EXPECT_EQ(doc.find("id")->as_string(), "q9");
  EXPECT_EQ(doc.find("status")->as_string(), "error");
  EXPECT_EQ(doc.find("error")->as_string(), "missing field 'kind'");
}

TEST(SvcWire, StatusNames) {
  EXPECT_STREQ(to_string(Response::Status::kOk), "ok");
  EXPECT_STREQ(to_string(Response::Status::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(to_string(Response::Status::kError), "error");
}

TEST(SvcWire, ProbeKindRecognizesProbesOnly) {
  EXPECT_EQ(probe_kind(R"({"schema":"rmt.request/1","id":"s","kind":"stats"})"), "stats");
  EXPECT_EQ(probe_kind(R"({"schema":"rmt.request/1","id":"t","kind":"trace"})"), "trace");
  EXPECT_EQ(probe_kind(request_line()), "");  // a real request is not a probe
  EXPECT_EQ(probe_kind(R"({"kind":17})"), "");
  EXPECT_EQ(probe_kind("not json"), "");
  // The size guard runs before the JSON parser, like parse_request's.
  std::string big = R"({"kind":"stats")";
  big.append(kMaxRequestBytes, ' ');
  big += "}";
  EXPECT_EQ(probe_kind(big), "");
}

TEST(SvcWire, StatsResponseCarriesCountersAndOptionalExtra) {
  Engine engine(nullptr);
  const obs::json::Value doc =
      obs::json::Value::parse(format_stats_response("s1", engine));
  EXPECT_EQ(doc.find("id")->as_string(), "s1");
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
  const obs::json::Value* result = doc.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("kind")->as_string(), "stats");
  EXPECT_EQ(result->find("engine")->find("requests")->as_u64(), 0u);
  EXPECT_EQ(result->find("cache")->find("entries")->as_u64(), 0u);
  EXPECT_EQ(result->find("net"), nullptr) << "no extra section unless asked";

  // The TCP server splices its transport counters as an extra section.
  const obs::json::Value with_net = obs::json::Value::parse(
      format_stats_response("s2", engine, "net", R"({"accepts":3})"));
  ASSERT_NE(with_net.find("result")->find("net"), nullptr);
  EXPECT_EQ(with_net.find("result")->find("net")->find("accepts")->as_u64(), 3u);
}

TEST(SvcWire, TraceResponseEmbedsTheRecorder) {
  const obs::json::Value doc = obs::json::Value::parse(format_trace_response("t1"));
  EXPECT_EQ(doc.find("id")->as_string(), "t1");
  const obs::json::Value* result = doc.find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->find("kind")->as_string(), "trace");
  ASSERT_NE(result->find("header"), nullptr);
  ASSERT_NE(result->find("spans"), nullptr);
}

// -- framing x wire integration: the TCP server's ingest path ---------------

TEST(SvcWire, FramedRequestsSurvivePartialReads) {
  // Drive the net-layer framer with 7-byte chunks of a request stream and
  // parse every completed line: reassembly is transparent to the wire
  // layer, whatever the split points.
  net::LineFramer framer(kMaxRequestBytes);
  const std::string stream = request_line() + "\n" + request_line() + "\n";
  std::size_t parsed = 0;
  for (std::size_t off = 0; off < stream.size(); off += 7) {
    framer.feed(stream.data() + off, std::min<std::size_t>(7, stream.size() - off));
    net::LineFramer::Frame frame;
    while (framer.next(frame)) {
      ASSERT_EQ(frame.kind, net::LineFramer::Kind::kLine);
      EXPECT_EQ(parse_request(frame.line).id, "q1");
      ++parsed;
    }
  }
  EXPECT_EQ(parsed, 2u);
  EXPECT_FALSE(framer.mid_line());
}

TEST(SvcWire, FramerRejectsOversizedWithoutConsumingTheStream) {
  // An oversized line never reaches parse_request (the framer already
  // rejected it in O(cap) memory), and the next line still parses — the
  // reject-don't-consume contract the server's error path relies on.
  net::LineFramer framer(256);
  std::string stream(1024, 'x');
  stream += "\n" + request_line() + "\n";
  for (std::size_t off = 0; off < stream.size(); off += 13)
    framer.feed(stream.data() + off, std::min<std::size_t>(13, stream.size() - off));
  net::LineFramer::Frame frame;
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(frame.kind, net::LineFramer::Kind::kOversized);
  EXPECT_EQ(frame.line_bytes, 1024u);
  ASSERT_TRUE(framer.next(frame));
  ASSERT_EQ(frame.kind, net::LineFramer::Kind::kLine);
  EXPECT_EQ(parse_request(frame.line).id, "q1");
  EXPECT_FALSE(framer.next(frame));
}

TEST(SvcWire, FramerRejectsEmbeddedNulBeforeTheParser) {
  // A NUL would silently truncate in downstream C string handling; the
  // framer refuses the line so parse_request never sees one.
  net::LineFramer framer(kMaxRequestBytes);
  std::string evil = request_line();
  evil[evil.size() / 2] = '\0';
  evil += "\n";
  framer.feed(evil.data(), evil.size());
  net::LineFramer::Frame frame;
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(frame.kind, net::LineFramer::Kind::kEmbeddedNul);
}

}  // namespace
}  // namespace rmt::svc::wire
