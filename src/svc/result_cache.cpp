#include "svc/result_cache.hpp"

#include <algorithm>
#include <cstring>
#include <new>

#include "obs/metrics.hpp"
#include "svc/instance_key.hpp"
#include "util/check.hpp"

namespace rmt::svc {

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

constexpr std::size_t kMinBuckets = 16;

}  // namespace

/// The block header; key bytes and then value bytes follow it in the same
/// allocation. Byte accounting stays key + value: the header, the bucket
/// slot and the allocator's rounding are the cost of holding an entry,
/// which bench_svc_throughput measures.
struct ResultCache::Entry {
  Entry* newer = nullptr;
  Entry* older = nullptr;
  Entry* chain = nullptr;  ///< next entry in the same bucket
  std::uint64_t hash = 0;
  std::uint32_t key_size = 0;
  std::uint32_t value_size = 0;

  char* bytes() { return reinterpret_cast<char*>(this + 1); }
  const char* bytes() const { return reinterpret_cast<const char*>(this + 1); }
  std::size_t accounted() const { return std::size_t(key_size) + value_size; }
  bool has_key(std::uint64_t h, const std::string& key) const {
    return hash == h && key_size == key.size() && std::memcmp(bytes(), key.data(), key_size) == 0;
  }
  std::string value() const { return std::string(bytes() + key_size, value_size); }

  static Entry* make(std::uint64_t h, const std::string& key, const std::string& value) {
    RMT_REQUIRE(key.size() <= UINT32_MAX && value.size() <= UINT32_MAX,
                "ResultCache: entry too large");
    Entry* e = new (::operator new(sizeof(Entry) + key.size() + value.size())) Entry;
    e->hash = h;
    e->key_size = std::uint32_t(key.size());
    e->value_size = std::uint32_t(value.size());
    std::memcpy(e->bytes(), key.data(), key.size());
    std::memcpy(e->bytes() + key.size(), value.data(), value.size());
    return e;
  }
  static void destroy(Entry* e) {
    e->~Entry();
    ::operator delete(e);
  }
};

ResultCache::Shard::~Shard() {
  for (Entry* e = newest; e != nullptr;) {
    Entry* next = e->older;
    Entry::destroy(e);
    e = next;
  }
}

ResultCache::Entry* ResultCache::Shard::find(std::uint64_t hash, const std::string& key) const {
  if (buckets.empty()) return nullptr;
  for (Entry* e = buckets[(hash >> 32) & (buckets.size() - 1)]; e != nullptr; e = e->chain)
    if (e->has_key(hash, key)) return e;
  return nullptr;
}

void ResultCache::Shard::insert_newest(Entry* e) {
  if (entries + 1 > buckets.size()) {
    // Load factor <= 1: double and re-chain every block in place.
    std::vector<Entry*> grown(std::max(kMinBuckets, buckets.size() * 2), nullptr);
    for (Entry* x = newest; x != nullptr; x = x->older) {
      Entry*& slot = grown[(x->hash >> 32) & (grown.size() - 1)];
      x->chain = slot;
      slot = x;
    }
    buckets.swap(grown);
  }
  Entry*& slot = buckets[(e->hash >> 32) & (buckets.size() - 1)];
  e->chain = slot;
  slot = e;
  e->older = newest;
  if (newest != nullptr) newest->newer = e;
  newest = e;
  if (oldest == nullptr) oldest = e;
  ++entries;
  bytes += e->accounted();
}

void ResultCache::Shard::remove(Entry* e) {
  Entry** link = &buckets[(e->hash >> 32) & (buckets.size() - 1)];
  while (*link != e) link = &(*link)->chain;
  *link = e->chain;
  (e->newer ? e->newer->older : newest) = e->older;
  (e->older ? e->older->newer : oldest) = e->newer;
  --entries;
  bytes -= e->accounted();
  Entry::destroy(e);
}

void ResultCache::Shard::move_to_newest(Entry* e) {
  if (e == newest) return;
  e->newer->older = e->older;  // e is not the head, so it has a newer entry
  (e->older ? e->older->newer : oldest) = e->newer;
  e->newer = nullptr;
  e->older = newest;
  newest->newer = e;
  newest = e;
}

ResultCache::ResultCache() : ResultCache(Options{}) {}

ResultCache::ResultCache(Options opts) {
  const std::size_t shards = next_pow2(opts.shards == 0 ? 1 : opts.shards);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
  shard_budget_ = opts.max_bytes / shards;
}

ResultCache::Shard& ResultCache::shard_of(std::uint64_t hash) {
  // num_shards is a power of two, so the low bits of the frozen mix index;
  // buckets use the high half, so a shard's entries still spread.
  return *shards_[hash & (shards_.size() - 1)];
}

std::optional<std::string> ResultCache::get(const std::string& key) {
  return lookup(key, /*count_miss=*/true);
}

std::optional<std::string> ResultCache::try_get(const std::string& key) {
  return lookup(key, /*count_miss=*/false);
}

std::optional<std::string> ResultCache::lookup(const std::string& key, bool count_miss) {
  const std::uint64_t hash = fnv1a64(key);
  Shard& s = shard_of(hash);
  std::lock_guard<std::mutex> lock(s.m);
  Entry* e = s.find(hash, key);
  if (e == nullptr) {
    if (count_miss) ++s.misses;
    return std::nullopt;
  }
  ++s.hits;
  s.move_to_newest(e);  // refresh recency
  return e->value();
}

void ResultCache::put(const std::string& key, std::string value) {
  const std::uint64_t hash = fnv1a64(key);
  Shard& s = shard_of(hash);
  std::lock_guard<std::mutex> lock(s.m);
  if (Entry* old = s.find(hash, key)) s.remove(old);
  const std::size_t incoming = key.size() + value.size();
  if (incoming > shard_budget_) return;  // would evict the whole shard for nothing
  while (s.bytes + incoming > shard_budget_ && s.oldest != nullptr) {
    s.remove(s.oldest);
    ++s.evictions;
  }
  s.insert_newest(Entry::make(hash, key, value));
}

ResultCache::Stats ResultCache::stats() const {
  Stats out;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->m);
    out.hits += sp->hits;
    out.misses += sp->misses;
    out.evictions += sp->evictions;
    out.bytes += sp->bytes;
    out.entries += sp->entries;
  }
  return out;
}

void ResultCache::publish_stats() {
  if (!obs::enabled()) return;
  const Stats now = stats();
  std::lock_guard<std::mutex> lock(publish_m_);
  obs::Registry& reg = obs::Registry::global();
  RMT_CHECK(now.hits >= published_hits_ && now.misses >= published_misses_ &&
                now.evictions >= published_evictions_,
            "ResultCache::publish_stats: counters moved backwards");
  reg.counter("svc.cache.hits").inc(now.hits - published_hits_);
  reg.counter("svc.cache.misses").inc(now.misses - published_misses_);
  reg.counter("svc.cache.evictions").inc(now.evictions - published_evictions_);
  reg.gauge("svc.cache.bytes").set(double(now.bytes));
  reg.gauge("svc.cache.entries").set(double(now.entries));
  published_hits_ = now.hits;
  published_misses_ = now.misses;
  published_evictions_ = now.evictions;
}

}  // namespace rmt::svc
