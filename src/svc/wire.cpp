#include "svc/wire.hpp"

#include <stdexcept>

#include "io/serialize.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace rmt::svc::wire {

namespace {

const obs::json::Value& require(const obs::json::Value& doc, const std::string& key) {
  const obs::json::Value* v = doc.find(key);
  if (!v) throw std::invalid_argument("rmt.request/1: missing field '" + key + "'");
  return *v;
}

const std::string& require_string(const obs::json::Value& doc, const std::string& key) {
  const obs::json::Value& v = require(doc, key);
  if (v.kind() != obs::json::Value::Kind::kString)
    throw std::invalid_argument("rmt.request/1: field '" + key + "' must be a string");
  return v.as_string();
}

std::string oversized(std::size_t bytes) {
  return "rmt.request/1: line exceeds " + std::to_string(kMaxRequestBytes) + " bytes (got " +
         std::to_string(bytes) + ")";
}

/// The object's string "id" member, or nullptr.
const std::string* raw_id(const obs::json::Value& doc) {
  if (!doc.is_object()) return nullptr;
  const obs::json::Value* v = doc.find("id");
  return v && v->kind() == obs::json::Value::Kind::kString ? &v->as_string() : nullptr;
}

/// The over-cap error for an id, or "" when it may be echoed.
std::string id_error(const std::string* id) {
  if (id == nullptr || id->size() <= kMaxIdBytes) return "";
  return "rmt.request/1: 'id' exceeds " + std::to_string(kMaxIdBytes) + " bytes (got " +
         std::to_string(id->size()) + ")";
}

/// The id to echo: the object's string "id" member within the cap, else "".
std::string id_of(const obs::json::Value& doc) {
  const std::string* id = raw_id(doc);
  return id && id->size() <= kMaxIdBytes ? *id : "";
}

/// "stats" / "trace" when the document is a probe, else "".
std::string probe_of(const obs::json::Value& doc) {
  if (!doc.is_object()) return "";
  const obs::json::Value* kind = doc.find("kind");
  if (!kind || kind->kind() != obs::json::Value::Kind::kString) return "";
  const std::string& name = kind->as_string();
  return (name == "stats" || name == "trace") ? name : "";
}

/// Everything parse_request checks after the JSON parse, in its order.
/// The instance text goes through `memo` when there is one.
ParsedRequest request_of(const obs::json::Value& doc, InstanceMemo* memo) {
  if (!doc.is_object()) throw std::invalid_argument("rmt.request/1: not a JSON object");
  if (require_string(doc, "schema") != kRequestSchema)
    throw std::invalid_argument("rmt.request/1: unexpected schema value");
  const std::string& id = require_string(doc, "id");
  const std::string& kind_name = require_string(doc, "kind");
  const std::optional<QueryKind> kind = parse_query_kind(kind_name);
  if (!kind)
    throw std::invalid_argument("rmt.request/1: unknown kind '" + kind_name + "'");

  const std::string& text = require_string(doc, "instance");
  InstanceHandle inst =
      memo ? memo->resolve(text) : InstanceHandle(io::parse_instance_string(text));

  SimParams params;
  if (const obs::json::Value* p = doc.find("params")) {
    if (!p->is_object())
      throw std::invalid_argument("rmt.request/1: 'params' must be an object");
    if (const obs::json::Value* v = p->find("value")) params.value = v->as_u64();
    if (const obs::json::Value* v = p->find("corrupted")) {
      if (v->array().size() > kMaxCorruptedEntries)
        throw std::invalid_argument("rmt.request/1: 'params.corrupted' has " +
                                    std::to_string(v->array().size()) + " entries, more than " +
                                    std::to_string(kMaxCorruptedEntries));
      for (const obs::json::Value& node : v->array()) {
        const std::uint64_t node_id = node.as_u64();
        if (node_id > kMaxCorruptedId)
          throw std::invalid_argument("rmt.request/1: 'params.corrupted' node id " +
                                      std::to_string(node_id) + " exceeds " +
                                      std::to_string(kMaxCorruptedId));
        params.corrupted.insert(NodeId(node_id));
      }
    }
    if (const obs::json::Value* v = p->find("strategy")) params.strategy = v->as_string();
    if (const obs::json::Value* v = p->find("seed")) params.seed = v->as_u64();
    if (const obs::json::Value* v = p->find("max_rounds")) {
      const std::uint64_t rounds = v->as_u64();
      if (rounds > kMaxRounds)
        throw std::invalid_argument("rmt.request/1: 'params.max_rounds' " +
                                    std::to_string(rounds) + " exceeds " +
                                    std::to_string(kMaxRounds));
      params.max_rounds = std::size_t(rounds);
    }
  }

  std::optional<std::uint64_t> deadline_ms;
  if (const obs::json::Value* v = doc.find("deadline_ms")) deadline_ms = v->as_u64();
  bool no_cache = false;
  if (const obs::json::Value* v = doc.find("no_cache")) no_cache = v->as_bool();

  return ParsedRequest{id, Request{*kind, std::move(inst), params, deadline_ms, no_cache}};
}

}  // namespace

Envelope parse_line(const std::string& line, InstanceMemo* memo) {
  Envelope env;
  if (line.size() > kMaxRequestBytes) {
    env.error = oversized(line.size());
    return env;
  }
  obs::json::Value doc;
  try {
    doc = obs::json::Value::parse(line);
  } catch (const std::exception& e) {
    env.error = e.what();
    return env;
  }
  const std::string* id = raw_id(doc);
  if (std::string error = id_error(id); !error.empty()) {
    env.error = std::move(error);  // any kind: a hostile id is never echoed
    return env;
  }
  if (id != nullptr) env.id = *id;
  if (const std::string probe = probe_of(doc); !probe.empty()) {
    env.kind = probe == "stats" ? Envelope::Kind::kStats : Envelope::Kind::kTrace;
    return env;
  }
  try {
    env.request = request_of(doc, memo).request;
    env.kind = Envelope::Kind::kRequest;
  } catch (const std::exception& e) {
    env.error = e.what();
  }
  return env;
}

ParsedRequest parse_request(const std::string& line) {
  if (line.size() > kMaxRequestBytes) throw std::invalid_argument(oversized(line.size()));
  const obs::json::Value doc = obs::json::Value::parse(line);
  if (std::string error = id_error(raw_id(doc)); !error.empty())
    throw std::invalid_argument(error);  // checked first, as parse_line does
  return request_of(doc, nullptr);
}

std::string extract_id(const std::string& line) {
  try {
    return id_of(obs::json::Value::parse(line));
  } catch (const std::invalid_argument&) {
    return "";  // the line is not even JSON
  }
}

std::string format_response(const std::string& id, const Response& resp) {
  obs::json::Writer w;
  w.begin_object();
  w.field("schema", kResponseSchema);
  w.field("id", id);
  w.field("status", to_string(resp.status));
  w.key("key");
  if (resp.key.empty()) w.null();
  else w.value(resp.key);
  w.key("result");
  if (resp.status == Response::Status::kOk) w.raw_value(resp.result);
  else w.null();
  w.key("error");
  if (resp.status == Response::Status::kError) w.value(resp.error);
  else w.null();
  w.field("cached", resp.cached);
  w.field("coalesced", resp.coalesced);
  w.field("wall_us", resp.wall_us);
  w.key("trace_id");
  if (resp.trace_id != 0) w.value(obs::trace::id_hex(resp.trace_id));
  else w.null();
  w.end_object();
  return w.take();
}

std::string format_parse_error(const std::string& id, const std::string& message) {
  Response resp;
  resp.status = Response::Status::kError;
  resp.error = message;
  return format_response(id, resp);
}

std::string probe_kind(const std::string& line) {
  if (line.size() > kMaxRequestBytes) return "";
  try {
    return probe_of(obs::json::Value::parse(line));
  } catch (const std::invalid_argument&) {
    return "";
  }
}

namespace {

/// The shared probe-response envelope: an "ok" response whose result is
/// `body` (a serialized JSON object) and whose volatile fields are inert.
std::string probe_envelope(const std::string& id, const std::string& body) {
  obs::json::Writer w;
  w.begin_object();
  w.field("schema", kResponseSchema);
  w.field("id", id);
  w.field("status", "ok");
  w.key("key").null();
  w.key("result").raw_value(body);
  w.key("error").null();
  w.field("cached", false);
  w.field("coalesced", false);
  w.field("wall_us", 0.0);
  w.key("trace_id").null();
  w.end_object();
  return w.take();
}

}  // namespace

std::string format_stats_response(const std::string& id, Engine& engine,
                                  const std::string& extra_key,
                                  const std::string& extra_json) {
  const Engine::Stats e = engine.stats();
  const ResultCache::Stats c = engine.cache().stats();
  const InstanceMemo::Stats m = engine.memo().stats();
  obs::json::Writer w;
  w.begin_object();
  w.field("kind", "stats");
  w.key("engine").begin_object();
  w.field("requests", e.requests);
  w.field("computed", e.computed);
  w.field("coalesced", e.coalesced);
  w.field("deadline_exceeded", e.deadline_exceeded);
  w.field("errors", e.errors);
  w.field("disk_hits", e.disk_hits);
  w.end_object();
  w.key("cache").begin_object();
  w.field("hits", c.hits);
  w.field("misses", c.misses);
  w.field("evictions", c.evictions);
  w.field("bytes", std::uint64_t(c.bytes));
  w.field("entries", std::uint64_t(c.entries));
  w.end_object();
  w.key("memo").begin_object();
  w.field("hits", m.hits);
  w.field("misses", m.misses);
  w.field("evictions", m.evictions);
  w.field("bytes", std::uint64_t(m.bytes));
  w.field("entries", std::uint64_t(m.entries));
  w.end_object();
  // The disk tier reports only when configured, so memory-only consumers
  // keep seeing the exact pre-store stats shape.
  if (const store::Store* s = engine.store()) {
    const store::Stats st = s->stats();
    w.key("store").begin_object();
    w.field("hits", st.hits);
    w.field("misses", st.misses);
    w.field("appends", st.appends);
    w.field("read_errors", st.read_errors);
    w.field("compactions", st.compactions);
    w.field("evictions", st.evictions);
    w.field("repairs", st.repairs);
    w.field("merged", st.merged);
    w.field("records", st.records);
    w.field("live_records", st.live_records);
    w.field("bytes", st.bytes);
    w.field("live_bytes", st.live_bytes);
    w.field("generation", st.generation);
    w.end_object();
  }
  if (!extra_key.empty()) w.key(extra_key).raw_value(extra_json);
  w.end_object();
  return probe_envelope(id, w.take());
}

std::string format_trace_response(const std::string& id) {
  const obs::trace::Recorder& rec = obs::trace::Recorder::global();
  // snapshot() first: it drains the per-thread buffers, so the header's
  // recorded count then agrees with the spans array.
  const std::vector<obs::trace::SpanRecord> spans = rec.snapshot();
  obs::json::Writer w;
  w.begin_object();
  w.field("kind", "trace");
  w.key("header").raw_value(obs::trace::header_json(rec.header()));
  w.key("spans").begin_array();
  for (const obs::trace::SpanRecord& s : spans) w.raw_value(obs::trace::span_json(s));
  w.end_array();
  w.end_object();
  return probe_envelope(id, w.take());
}

}  // namespace rmt::svc::wire
