#include "exec/campaign.hpp"

#include <chrono>
#include <fstream>
#include <mutex>

#include "obs/json.hpp"
#include "obs/phase.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace rmt::exec {

std::uint64_t derive_seed(std::uint64_t root_seed, std::uint64_t stream) {
  // splitmix64: advance by the golden-ratio increment per stream, then
  // finalize. Part of the rmt.campaign/1 format — do not change.
  std::uint64_t z = root_seed + (stream + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Campaign::Campaign(std::string name, std::size_t total_units, std::size_t num_shards,
                   std::uint64_t root_seed)
    : name_(std::move(name)), total_units_(total_units), root_seed_(root_seed) {
  RMT_REQUIRE(!name_.empty(), "Campaign: name must be non-empty");
  RMT_REQUIRE(name_.find('\n') == std::string::npos, "Campaign: name must be single-line");
  RMT_REQUIRE(total_units >= 1, "Campaign: needs at least one work unit");
  RMT_REQUIRE(num_shards >= 1 && num_shards <= total_units,
              "Campaign: shard count must be in [1, total_units]");
  shards_.reserve(num_shards);
  // Contiguous near-even split: the first (total % shards) shards get one
  // extra unit, so shard boundaries depend only on (total, num_shards).
  const std::size_t base = total_units / num_shards;
  const std::size_t extra = total_units % num_shards;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < num_shards; ++i) {
    const std::size_t size = base + (i < extra ? 1 : 0);
    shards_.push_back(Shard{i, num_shards, begin, begin + size, derive_seed(root_seed, i)});
    begin += size;
  }
}

bool Campaign::Result::complete() const {
  for (const std::optional<std::string>& p : payloads)
    if (!p) return false;
  return true;
}

std::string Campaign::Result::aggregate() const {
  RMT_REQUIRE(complete(), "Campaign::Result::aggregate: shards missing (subset run?)");
  std::string out;
  for (const std::optional<std::string>& p : payloads) {
    out += *p;
    out += '\n';
  }
  return out;
}

namespace {

/// Append-mode manifest writer; one fully formed line per completed
/// shard, flushed immediately (the checkpoint durability contract).
class ManifestWriter {
 public:
  ManifestWriter(const std::string& path, bool fresh) {
    if (path.empty()) return;
    // A killed run can leave a torn final line with no newline; appending
    // straight after it would weld the next checkpoint onto the garbage.
    // Start appends on a fresh line so one resume fully repairs the file.
    bool needs_newline = false;
    if (!fresh) {
      std::ifstream in(path, std::ios::binary);
      if (in.is_open() && in.seekg(-1, std::ios::end)) {
        char last = '\n';
        in.get(last);
        needs_newline = last != '\n';
      }
    }
    out_.open(path, fresh ? std::ios::trunc : std::ios::app);
    RMT_REQUIRE(out_.good(), "Campaign: cannot open manifest " + path);
    if (needs_newline) out_ << '\n';
  }

  bool active() const { return out_.is_open(); }

  void line(const std::string& doc) {
    std::lock_guard<std::mutex> lock(m_);
    out_ << doc << '\n';
    out_.flush();
    RMT_CHECK(out_.good(), "Campaign: manifest append failed");
  }

 private:
  std::mutex m_;
  std::ofstream out_;
};

std::string header_line(const Campaign& c) {
  obs::json::Writer w;
  w.begin_object();
  w.field("schema", "rmt.campaign/1");
  w.field("campaign", c.name());
  w.field("root_seed", c.root_seed());
  w.field("total_units", std::uint64_t(c.total_units()));
  w.field("shards", std::uint64_t(c.shards().size()));
  w.end_object();
  return w.take();
}

std::string shard_line(const Campaign& c, const Shard& s, double wall_us,
                       const std::string& payload) {
  obs::json::Writer w;
  w.begin_object();
  w.field("schema", "rmt.campaign/1");
  w.field("campaign", c.name());
  w.field("shard", std::uint64_t(s.index));
  w.field("of", std::uint64_t(s.of));
  w.field("begin", std::uint64_t(s.begin));
  w.field("end", std::uint64_t(s.end));
  w.field("seed", s.seed);
  w.field("wall_us", wall_us);
  w.field("payload", payload);
  w.end_object();
  return w.take();
}

std::uint64_t req_u64(const obs::json::Value& obj, const char* key) {
  const obs::json::Value* v = obj.find(key);
  RMT_REQUIRE(v != nullptr, std::string("Campaign manifest: missing field '") + key + "'");
  return v->as_u64();
}

/// Load completed shards from `path` into `result`; returns true if a
/// valid header line was seen. Lines that fail to parse (a truncated
/// tail from a killed run) are counted and ignored; lines that parse but
/// contradict the campaign identity throw — a manifest from a different
/// campaign must not silently seed this one.
bool load_manifest(const Campaign& c, const std::string& path, Campaign::Result& result) {
  std::ifstream in(path);
  if (!in.is_open()) return false;  // nonexistent manifest: fresh start
  bool saw_header = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    obs::json::Value doc;
    try {
      doc = obs::json::Value::parse(line);
    } catch (const std::invalid_argument&) {
      ++result.corrupt_manifest_lines;
      continue;
    }
    RMT_REQUIRE(doc.is_object(), "Campaign manifest: line is not an object");
    const obs::json::Value* schema = doc.find("schema");
    RMT_REQUIRE(schema != nullptr && schema->as_string() == "rmt.campaign/1",
                "Campaign manifest: not an rmt.campaign/1 line");
    const obs::json::Value* campaign = doc.find("campaign");
    RMT_REQUIRE(campaign != nullptr && campaign->as_string() == c.name(),
                "Campaign manifest: campaign name mismatch");
    if (doc.find("shard") == nullptr) {  // header line
      RMT_REQUIRE(req_u64(doc, "root_seed") == c.root_seed(),
                  "Campaign manifest: root seed mismatch");
      RMT_REQUIRE(req_u64(doc, "total_units") == c.total_units(),
                  "Campaign manifest: total_units mismatch");
      RMT_REQUIRE(req_u64(doc, "shards") == c.shards().size(),
                  "Campaign manifest: shard count mismatch");
      saw_header = true;
      continue;
    }
    const std::uint64_t index = req_u64(doc, "shard");
    RMT_REQUIRE(index < c.shards().size(), "Campaign manifest: shard index out of range");
    const Shard& expect = c.shards()[std::size_t(index)];
    RMT_REQUIRE(req_u64(doc, "of") == expect.of && req_u64(doc, "begin") == expect.begin &&
                    req_u64(doc, "end") == expect.end && req_u64(doc, "seed") == expect.seed,
                "Campaign manifest: shard geometry/seed mismatch");
    const obs::json::Value* payload = doc.find("payload");
    RMT_REQUIRE(payload != nullptr, "Campaign manifest: shard line lacks payload");
    if (!result.payloads[std::size_t(index)]) {
      result.payloads[std::size_t(index)] = payload->as_string();
      ++result.resumed;
    }
  }
  RMT_REQUIRE(result.resumed == 0 || saw_header,
              "Campaign manifest: shard lines without a matching header");
  return saw_header;
}

}  // namespace

Campaign::Result Campaign::run(ThreadPool& pool, const ShardFn& fn,
                               const RunOptions& opts) const {
  RMT_PHASE("exec.campaign");
  RMT_REQUIRE(fn != nullptr, "Campaign::run: null shard function");
  RMT_REQUIRE(opts.subset_count >= 1 && opts.subset_index < opts.subset_count,
              "Campaign::run: subset index/count out of range");
  RMT_AUDIT_VALIDATE(*this);

  Result result;
  result.payloads.resize(shards_.size());
  bool have_header = false;
  if (!opts.manifest_path.empty())
    have_header = load_manifest(*this, opts.manifest_path, result);

  // Which shards this process actually computes.
  std::vector<std::size_t> todo;
  for (const Shard& s : shards_) {
    if (result.payloads[s.index]) continue;  // checkpointed
    if (s.index % opts.subset_count != opts.subset_index) {
      ++result.skipped;
      continue;
    }
    todo.push_back(s.index);
  }

  // Fresh start (truncate + header) unless the file already carries a
  // valid header — then append, so checkpoints survive repeated resumes.
  const bool fresh = !have_header;
  ManifestWriter manifest(opts.manifest_path, fresh);
  if (manifest.active() && fresh) manifest.line(header_line(*this));

  parallel_for(&pool, 0, todo.size(), 1, [&](std::size_t t) {
    const Shard& shard = shards_[todo[t]];
    RMT_AUDIT_VALIDATE(shard);
    const auto t0 = std::chrono::steady_clock::now();
    std::string payload;
    {
      RMT_PHASE("exec.shard");
      payload = fn(shard);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
    RMT_REQUIRE(payload.find('\n') == std::string::npos,
                "Campaign: shard payloads must be single-line");
    if (manifest.active()) manifest.line(shard_line(*this, shard, wall_us, payload));
    result.payloads[shard.index] = std::move(payload);
  });
  result.ran = todo.size();
  pool.publish_stats();
  return result;
}

}  // namespace rmt::exec

namespace rmt::audit {

void validate(const exec::Shard& s) {
  if (s.of == 0 || s.index >= s.of)
    detail::fail("exec", "shard index " + std::to_string(s.index) + " outside of " +
                             std::to_string(s.of) + " shards");
  if (s.begin > s.end) detail::fail("exec", "shard with begin > end");
  detail::passed("exec");
}

void validate(const exec::Campaign& c) {
  const std::vector<exec::Shard>& shards = c.shards();
  if (shards.empty()) detail::fail("exec", "campaign with no shards");
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const exec::Shard& s = shards[i];
    validate(s);
    if (s.index != i) detail::fail("exec", "shard indices not sequential");
    if (s.of != shards.size()) detail::fail("exec", "shard 'of' disagrees with the plan");
    if (s.begin != cursor) detail::fail("exec", "shards do not tile the unit range");
    if (s.end < s.begin || s.end - s.begin == 0)
      detail::fail("exec", "empty shard in the plan");
    if (s.seed != exec::derive_seed(c.root_seed(), i))
      detail::fail("exec", "shard seed does not re-derive from the root seed");
    cursor = s.end;
  }
  if (cursor != c.total_units())
    detail::fail("exec", "shards cover " + std::to_string(cursor) + " of " +
                             std::to_string(c.total_units()) + " units");
  detail::passed("exec");
}

}  // namespace rmt::audit
