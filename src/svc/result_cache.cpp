#include "svc/result_cache.hpp"

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

std::size_t entry_bytes(const std::string& key, const std::string& value) {
  return key.size() + value.size();
}

}  // namespace

ResultCache::ResultCache() : ResultCache(Options{}) {}

ResultCache::ResultCache(Options opts) {
  const std::size_t shards = next_pow2(opts.shards == 0 ? 1 : opts.shards);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
  shard_budget_ = opts.max_bytes / shards;
}

ResultCache::Shard& ResultCache::shard_of(const std::string& key) {
  // num_shards is a power of two, so the low bits of the frozen mix index.
  return *shards_[fnv1a64(key) & (shards_.size() - 1)];
}

std::optional<std::string> ResultCache::get(const std::string& key) {
  return lookup(key, /*count_miss=*/true);
}

std::optional<std::string> ResultCache::try_get(const std::string& key) {
  return lookup(key, /*count_miss=*/false);
}

std::optional<std::string> ResultCache::lookup(const std::string& key, bool count_miss) {
  Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lock(s.m);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    if (count_miss) ++s.misses;
    return std::nullopt;
  }
  ++s.hits;
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
  return it->second->second;
}

void ResultCache::put(const std::string& key, std::string value) {
  Shard& s = shard_of(key);
  std::lock_guard<std::mutex> lock(s.m);
  if (const auto it = s.index.find(key); it != s.index.end()) {
    s.bytes -= entry_bytes(key, it->second->second);
    s.lru.erase(it->second);
    s.index.erase(it);
  }
  const std::size_t incoming = entry_bytes(key, value);
  if (incoming > shard_budget_) return;  // would evict the whole shard for nothing
  while (s.bytes + incoming > shard_budget_ && !s.lru.empty()) {
    const auto& victim = s.lru.back();
    s.bytes -= entry_bytes(victim.first, victim.second);
    s.index.erase(victim.first);
    s.lru.pop_back();
    ++s.evictions;
  }
  s.lru.emplace_front(key, std::move(value));
  s.index.emplace(key, s.lru.begin());
  s.bytes += incoming;
}

ResultCache::Stats ResultCache::stats() const {
  Stats out;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->m);
    out.hits += sp->hits;
    out.misses += sp->misses;
    out.evictions += sp->evictions;
    out.bytes += sp->bytes;
    out.entries += sp->lru.size();
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
