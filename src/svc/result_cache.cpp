#include "svc/result_cache.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <new>

#include "obs/metrics.hpp"
#include "svc/entry_codec.hpp"
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

/// The block header; the encoded key bytes and then the encoded value
/// bytes (svc/entry_codec.hpp) follow it in the same allocation. Byte
/// accounting stays logical, key + value before encoding: the header, the
/// bucket slot, the allocator's rounding and the codec's savings are the
/// cost of holding an entry, which bench_svc_throughput measures.
struct ResultCache::Entry {
  Entry* newer = nullptr;
  Entry* older = nullptr;
  Entry* chain = nullptr;  ///< next entry in the same bucket
  std::uint64_t hash = 0;
  std::uint32_t key_size = 0;    ///< logical (decoded) sizes
  std::uint32_t value_size = 0;

  const unsigned char* encoded() const { return reinterpret_cast<const unsigned char*>(this + 1); }
  std::size_t accounted() const { return std::size_t(key_size) + value_size; }
  /// Where the encoded value starts if this entry's key is `key`, else
  /// nullptr: one pass over the stored encoding, nothing allocated.
  const unsigned char* value_if_key(std::uint64_t h, const std::string& key) const {
    if (hash != h || key_size != key.size()) return nullptr;
    return codec::match(encoded(), key);
  }
  std::string decode_value(const unsigned char* at) const {
    std::string out(value_size, '\0');
    codec::decode(at, value_size, out.data());
    return out;
  }

  static Entry* make(std::uint64_t h, const std::string& key, const std::string& value) {
    RMT_REQUIRE(key.size() <= UINT32_MAX && value.size() <= UINT32_MAX,
                "ResultCache: entry too large");
    // Encode into scratch first so the block is allocated at its exact size.
    const std::size_t bound = codec::max_encoded_size(key.size() + value.size());
    unsigned char stack[2048];
    std::unique_ptr<unsigned char[]> heap;
    unsigned char* scratch = stack;
    if (bound > sizeof stack) {
      heap = std::make_unique_for_overwrite<unsigned char[]>(bound);
      scratch = heap.get();
    }
    const std::size_t size =
        std::size_t(codec::encode(value, codec::encode(key, scratch)) - scratch);
    Entry* e = new (::operator new(sizeof(Entry) + size)) Entry;
    e->hash = h;
    e->key_size = std::uint32_t(key.size());
    e->value_size = std::uint32_t(value.size());
    std::memcpy(e + 1, scratch, size);
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

ResultCache::Entry* ResultCache::Shard::find(std::uint64_t hash, const std::string& key,
                                             const unsigned char** value_at) const {
  if (buckets.empty()) return nullptr;
  for (Entry* e = buckets[(hash >> 32) & (buckets.size() - 1)]; e != nullptr; e = e->chain) {
    if (const unsigned char* at = e->value_if_key(hash, key)) {
      if (value_at != nullptr) *value_at = at;
      return e;
    }
  }
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
  const unsigned char* value_at = nullptr;
  Entry* e = s.find(hash, key, &value_at);
  if (e == nullptr) {
    if (count_miss) ++s.misses;
    return std::nullopt;
  }
  ++s.hits;
  s.move_to_newest(e);  // refresh recency
  return e->decode_value(value_at);
}

void ResultCache::put(const std::string& key, std::string value) {
  const std::uint64_t hash = fnv1a64(key);
  const std::size_t incoming = key.size() + value.size();
  // Encoded outside the lock; an oversized payload is never encoded.
  Entry* fresh = incoming > shard_budget_ ? nullptr : Entry::make(hash, key, value);
  Shard& s = shard_of(hash);
  std::lock_guard<std::mutex> lock(s.m);
  if (Entry* old = s.find(hash, key)) s.remove(old);
  if (fresh == nullptr) return;  // would evict the whole shard for nothing
  while (s.bytes + incoming > shard_budget_ && s.oldest != nullptr) {
    s.remove(s.oldest);
    ++s.evictions;
  }
  s.insert_newest(fresh);
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
