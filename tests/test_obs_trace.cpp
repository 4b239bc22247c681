// Tests for obs/trace.hpp and the span half of RMT_PHASE (obs/phase.hpp):
// span lifecycle and parent links, deterministic ids, the flight-recorder
// ring accounting, context propagation across the exec::ThreadPool
// boundary, and the rmt.trace/1 dump shape.
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_pool.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"

namespace rmt::obs::trace {
namespace {

/// Every test starts from a clean, enabled recorder with the default seed
/// and leaves tracing disabled — the suite shares one process-global
/// recorder with whatever runs next.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Recorder::global().set_dump_path("");
    Recorder::global().set_capacity(Recorder::kDefaultCapacity);
    Recorder::global().clear();  // earlier tests may have left buffered spans
    set_seed(4242);
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    Recorder::global().set_dump_path("");
    Recorder::global().set_capacity(Recorder::kDefaultCapacity);
  }

  static std::string attrs_of(const SpanRecord& rec) { return rec.attrs; }
  static std::string name_of(const SpanRecord& rec) { return rec.name; }
  static std::string kind_of(const SpanRecord& rec) { return rec.kind; }
};

TEST_F(TraceTest, DisabledSpansAreInert) {
  set_enabled(false);
  {
    RMT_PHASE("svc.batch");
    EXPECT_FALSE(current().valid());  // no context leaks from an idle phase
    RMT_PHASE("svc.compute");
    EXPECT_FALSE(current().valid());
  }
  EXPECT_EQ(Recorder::global().recorded(), 0u);
  EXPECT_TRUE(Recorder::global().snapshot().empty());
}

TEST_F(TraceTest, NestedSpansLinkParentAndTrace) {
  std::uint64_t outer_trace = 0, outer_span = 0, inner_span = 0;
  {
    RMT_PHASE("svc.batch");
    ASSERT_TRUE(current().valid());
    outer_trace = current().trace_id;
    outer_span = current().span_id;
    {
      RMT_PHASE("svc.compute");
      inner_span = current().span_id;
      EXPECT_EQ(current().trace_id, outer_trace);  // same request
      EXPECT_NE(inner_span, outer_span);
    }
    EXPECT_EQ(current().span_id, outer_span);  // restored at exit
  }
  EXPECT_FALSE(current().valid());

  const std::vector<SpanRecord> spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // The inner span finishes (and records) first.
  EXPECT_EQ(name_of(spans[0]), "svc.compute");
  EXPECT_EQ(spans[0].parent_span_id, outer_span);
  EXPECT_EQ(spans[0].trace_id, outer_trace);
  EXPECT_EQ(spans[0].span_id, inner_span);
  EXPECT_EQ(name_of(spans[1]), "svc.batch");
  EXPECT_EQ(spans[1].parent_span_id, 0u);  // trace root
  // Child interval nests inside the parent's.
  EXPECT_GE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_LE(spans[0].end_ns, spans[1].end_ns);
  EXPECT_GE(spans[0].end_ns, spans[0].start_ns);
}

TEST_F(TraceTest, PhaseFeedsAllThreeSinksFromOneClockPair) {
  obs::set_enabled(true);
  Registry::global().reset();
  PhaseProfile profile;
  {
    ScopedCollector collect(profile);
    RMT_PHASE("test.x");
  }
  obs::set_enabled(false);
  const Histogram& h = Registry::global().histogram("phase.test.x");
  ASSERT_EQ(h.count(), 1u);
  ASSERT_EQ(profile.phases().size(), 1u);
  EXPECT_EQ(profile.phases().at("test.x").count, 1u);
  EXPECT_DOUBLE_EQ(profile.phases().at("test.x").total_us, h.max());
  const std::vector<SpanRecord> spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(name_of(spans[0]), "test.x");
  // One pair of clock reads: the span's interval is the observed duration.
  EXPECT_DOUBLE_EQ(double(spans[0].end_ns - spans[0].start_ns) / 1000.0, h.max());
  Registry::global().reset();
}

TEST_F(TraceTest, IdsAreDeterministicUnderSeedAndNeverZero) {
  set_seed(7);
  const std::uint64_t a = next_id(), b = next_id(), c = next_id();
  set_seed(7);
  EXPECT_EQ(next_id(), a);
  EXPECT_EQ(next_id(), b);
  EXPECT_EQ(next_id(), c);
  EXPECT_NE(a, b);
  EXPECT_NE(a, 0u);

  set_seed(7);
  {
    RMT_PHASE("svc.batch");
    EXPECT_EQ(current().trace_id, a);  // phases draw from the same stream
    EXPECT_EQ(current().span_id, b);
  }

  EXPECT_EQ(id_hex(0).size(), 16u);
  EXPECT_EQ(id_hex(0x00ff), "00000000000000ff");
}

TEST_F(TraceTest, RingWrapKeepsNewestAndCountsDropped) {
  Recorder& rec = Recorder::global();
  rec.set_capacity(4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    SpanRecord r;
    r.trace_id = 1;
    r.span_id = i;
    r.start_ns = i;
    r.end_ns = i;
    emit(r);
  }
  const std::vector<SpanRecord> spans = rec.snapshot();
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  ASSERT_EQ(spans.size(), 4u);
  for (std::uint64_t k = 0; k < 4; ++k)
    EXPECT_EQ(spans[k].span_id, 7u + k);  // oldest retained first

  const DumpHeader h = rec.header();
  EXPECT_EQ(h.capacity, 4u);
  EXPECT_EQ(h.recorded, 10u);
  EXPECT_EQ(h.dropped, 6u);
}

TEST_F(TraceTest, EmitFillsKindAndSkipsNullSpans) {
  SpanRecord plain;
  plain.trace_id = plain.span_id = next_id();
  emit(plain);
  SpanRecord join = plain;
  join.span_id = next_id();
  join.join_span_id = plain.span_id;
  emit(join);
  emit(SpanRecord{});  // span_id 0: dropped, not recorded as garbage

  const std::vector<SpanRecord> spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(kind_of(spans[0]), "span");
  EXPECT_EQ(kind_of(spans[1]), "join");
}

TEST_F(TraceTest, AttrsAcceptEveryOverloadAndNeverTruncate) {
  SpanRecord rec;
  rec.trace_id = rec.span_id = next_id();
  rec.add_attr("kind", "decide_rmt");  // const char* must not pick the bool overload
  rec.add_attr("name", std::string_view("abc"));
  rec.add_attr("bytes", std::uint64_t(52));
  rec.add_attr("coalesced", false);
  // Too big to fit: dropped whole, never cut mid-value.
  rec.add_attr("huge", std::string(SpanRecord::kAttrBytes, 'x'));
  emit(rec);
  const std::vector<SpanRecord> spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(attrs_of(spans[0]), "kind=decide_rmt;name=abc;bytes=52;coalesced=false");
}

TEST_F(TraceTest, SetJoinMarksKindAndTarget) {
  const std::uint64_t leader = next_id();
  SpanRecord rec;
  rec.trace_id = rec.span_id = next_id();
  rec.set_name(RMT_TRACE_NAME("svc.join"));
  rec.join_span_id = leader;
  emit(rec);
  const std::vector<SpanRecord> spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(kind_of(spans[0]), "join");
  EXPECT_EQ(spans[0].join_span_id, leader);
}

TEST_F(TraceTest, ContextGuardEntersAndRestores) {
  const TraceContext root = new_root_context();
  ASSERT_TRUE(root.valid());
  {
    ContextGuard guard(root);
    EXPECT_EQ(current().trace_id, root.trace_id);
    RMT_PHASE("svc.compute");
    EXPECT_EQ(current().trace_id, root.trace_id);
  }
  EXPECT_FALSE(current().valid());
  const std::vector<SpanRecord> spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent_span_id, root.span_id);
}

TEST_F(TraceTest, PoolSubmitPropagatesContextViaExecTaskSpan) {
  std::uint64_t root_trace = 0, root_span = 0;
  {
    // The pool is scoped so its workers join (and drain their span
    // buffers) before the snapshot — the exec.task span finishes on the
    // worker *after* the task body signals completion.
    exec::ThreadPool pool(2);
    RMT_PHASE("svc.batch");
    root_trace = current().trace_id;
    root_span = current().span_id;
    std::promise<void> done;
    pool.submit([&] {
      RMT_PHASE("svc.compute");  // must nest under the submitter's request
      done.set_value();
    });
    done.get_future().wait();
  }
  const std::vector<SpanRecord> spans = Recorder::global().snapshot();
  ASSERT_EQ(spans.size(), 3u);  // svc.compute, exec.task, svc.batch

  const SpanRecord* task = nullptr;
  const SpanRecord* inner = nullptr;
  for (const SpanRecord& s : spans) {
    if (name_of(s) == "exec.task") task = &s;
    if (name_of(s) == "svc.compute") inner = &s;
  }
  ASSERT_NE(task, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(task->trace_id, root_trace);  // worker re-entered the context
  EXPECT_EQ(task->parent_span_id, root_span);
  EXPECT_EQ(inner->trace_id, root_trace);
  EXPECT_EQ(inner->parent_span_id, task->span_id);
}

TEST_F(TraceTest, WriteJsonlHeaderAgreesWithSpanLines) {
  { RMT_PHASE("svc.batch"); }
  { RMT_PHASE("svc.compute"); }
  std::ostringstream out;
  Recorder::global().write_jsonl(out);

  std::istringstream in(out.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + 2 spans
  EXPECT_NE(lines[0].find("\"schema\":\"rmt.trace/1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"recorded\":2"), std::string::npos);
  EXPECT_NE(lines[0].find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"name\":\"svc.batch\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"parent\":null"), std::string::npos);
  EXPECT_NE(lines[2].find("\"name\":\"svc.compute\""), std::string::npos);
}

TEST_F(TraceTest, DumpNowWritesConfiguredPathOnly) {
  Recorder& rec = Recorder::global();
  rec.dump_now("no-path-configured");  // no dump path: must be a no-op

  const std::string path = ::testing::TempDir() + "rmt_trace_dump_test.jsonl";
  std::remove(path.c_str());
  { RMT_PHASE("svc.batch"); }
  rec.set_dump_path(path);
  rec.dump_now("test");

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first;
  ASSERT_TRUE(std::getline(in, first));
  EXPECT_NE(first.find("\"schema\":\"rmt.trace/1\""), std::string::npos);
  std::string span_line;
  ASSERT_TRUE(std::getline(in, span_line));
  EXPECT_NE(span_line.find("svc.batch"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rmt::obs::trace
