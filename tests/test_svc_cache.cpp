// Tests for the sharded LRU result cache (svc/result_cache.hpp).
//
// The SvcCache* concurrency tests are part of the TSan CI suite (the
// tsan job's ctest regex includes `Svc`): they race get/put/stats across
// threads to prove the per-shard locking is actually per shard.
#include "svc/result_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace rmt::svc {
namespace {

ResultCache::Options small_cache(std::size_t max_bytes) {
  ResultCache::Options opts;
  opts.shards = 1;  // single shard: LRU order is globally observable
  opts.max_bytes = max_bytes;
  return opts;
}

TEST(SvcCache, ShardCountRoundsUpToPowerOfTwo) {
  const auto shards_for = [](std::size_t requested) {
    ResultCache::Options opts;
    opts.shards = requested;
    return ResultCache(opts).num_shards();
  };
  EXPECT_EQ(shards_for(0), 1u);
  EXPECT_EQ(shards_for(1), 1u);
  EXPECT_EQ(shards_for(5), 8u);
  EXPECT_EQ(shards_for(8), 8u);
  EXPECT_EQ(shards_for(9), 16u);
}

TEST(SvcCache, HitMissAndStats) {
  ResultCache cache;
  EXPECT_FALSE(cache.get("k1").has_value());
  cache.put("k1", "v1");
  const auto hit = cache.get("k1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "v1");

  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, std::string("k1").size() + std::string("v1").size());
}

TEST(SvcCache, OverwriteReplacesValueAndBytes) {
  ResultCache cache(small_cache(1024));
  cache.put("k", "short");
  cache.put("k", "a rather longer payload");
  EXPECT_EQ(*cache.get("k"), "a rather longer payload");
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 1 + std::string("a rather longer payload").size());
}

TEST(SvcCache, EvictsLeastRecentlyUsed) {
  // Budget fits exactly two (key + value = 8 bytes each); getting "a"
  // refreshes it, so inserting "c" must evict "b", not "a".
  ResultCache cache(small_cache(16));
  cache.put("a", "AAAAAAA");
  cache.put("b", "BBBBBBB");
  EXPECT_TRUE(cache.get("a").has_value());
  cache.put("c", "CCCCCCC");
  EXPECT_TRUE(cache.get("a").has_value());
  EXPECT_FALSE(cache.get("b").has_value());
  EXPECT_TRUE(cache.get("c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(SvcCache, OversizedEntryIsDroppedNotAdmitted) {
  // An entry above one shard's whole budget may not wipe the shard just
  // to be evicted by the next insert: it is simply not cached.
  ResultCache cache(small_cache(16));
  cache.put("a", "AAAAAAA");
  cache.put("big", std::string(100, 'X'));
  EXPECT_FALSE(cache.get("big").has_value());
  EXPECT_TRUE(cache.get("a").has_value());  // undisturbed
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(SvcCache, PublishStatsDeltasIntoRegistry) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  ResultCache cache;
  cache.put("k", "v");
  cache.get("k");
  cache.get("absent");
  cache.publish_stats();
  obs::Registry& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("svc.cache.hits").value(), 1u);
  EXPECT_EQ(reg.counter("svc.cache.misses").value(), 1u);
  // Publishing again without new traffic must add zero, not re-add.
  cache.publish_stats();
  EXPECT_EQ(reg.counter("svc.cache.hits").value(), 1u);
  obs::Registry::global().reset();
  obs::set_enabled(false);
}

TEST(SvcCache, LruOrderEntriesAndBytesFollowAModelAcrossChurn) {
  // One shard, so LRU order is global. A std::list model replays the same
  // puts (fresh keys, overwrites, oversized drops) and gets; after every
  // step the hits, entries, bytes and evictions must match it, and every
  // get must agree on presence and value — an entry evicted out of LRU
  // order shows up as a presence mismatch later.
  constexpr std::size_t kBudget = 400;
  ResultCache cache(small_cache(kBudget));
  std::list<std::pair<std::string, std::string>> model;  // front = newest
  std::size_t model_bytes = 0;
  std::uint64_t model_evictions = 0;
  const auto find = [&](const std::string& key) {
    return std::find_if(model.begin(), model.end(), [&](const auto& e) { return e.first == key; });
  };
  Rng rng(97);
  for (int step = 0; step < 6000; ++step) {
    std::string key = "key-";
    key += std::to_string(rng.index(48));
    if (rng.chance(0.55)) {
      const std::size_t len = rng.chance(0.02) ? kBudget : rng.index(48);
      std::string value(len, char('a' + step % 26));
      if (const auto it = find(key); it != model.end()) {
        model_bytes -= it->first.size() + it->second.size();
        model.erase(it);
      }
      const std::size_t incoming = key.size() + value.size();
      if (incoming <= kBudget) {
        while (model_bytes + incoming > kBudget) {
          model_bytes -= model.back().first.size() + model.back().second.size();
          model.pop_back();
          ++model_evictions;
        }
        model.emplace_front(key, value);
        model_bytes += incoming;
      }
      cache.put(key, std::move(value));
    } else {
      const std::optional<std::string> got = cache.get(key);
      const auto it = find(key);
      ASSERT_EQ(got.has_value(), it != model.end()) << "step " << step << " key " << key;
      if (got) {
        EXPECT_EQ(*got, it->second) << "step " << step;
        model.splice(model.begin(), model, it);
      }
    }
    const ResultCache::Stats st = cache.stats();
    ASSERT_EQ(st.entries, model.size()) << "step " << step;
    ASSERT_EQ(st.bytes, model_bytes) << "step " << step;
    ASSERT_EQ(st.evictions, model_evictions) << "step " << step;
  }
  EXPECT_GT(model_evictions, 100u);
  for (const auto& [key, value] : model) EXPECT_EQ(cache.try_get(key), value);
}

// --- TSan targets: race the shards from many threads ---------------------

TEST(SvcCacheRace, ConcurrentGetPutAcrossShards) {
  ResultCache cache;  // default: 8 shards
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 400;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "key-" + std::to_string((t * 7 + i) % 64);
        if (i % 3 == 0)
          cache.put(key, "value-" + std::to_string(i));
        else
          cache.get(key);
      }
    });
  for (auto& w : workers) w.join();
  const ResultCache::Stats s = cache.stats();
  // Every op with i % 3 != 0 was a lookup, and each lookup is either a
  // hit or a miss — the counters must not lose updates under contention.
  const std::uint64_t lookups_per_thread = kOpsPerThread - (kOpsPerThread + 2) / 3;
  EXPECT_EQ(s.hits + s.misses, kThreads * lookups_per_thread);
  EXPECT_LE(s.entries, 64u);
}

TEST(SvcCacheRace, ConcurrentEvictionOnOneShard) {
  // Everything lands in the single shard, so eviction runs while other
  // threads read — the lock must cover the whole splice/erase dance.
  ResultCache cache(small_cache(256));
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < 300; ++i) {
        // Built with +=: "k" + std::to_string(...) trips GCC 12's
        // -Wrestrict false positive in optimized -Werror builds.
        std::string key = "k";
        key += std::to_string((t * 31 + i) % 40);
        cache.put(key, std::string(16, char('a' + t)));
        cache.get(key);
        cache.stats();
      }
    });
  for (auto& w : workers) w.join();
  EXPECT_LE(cache.stats().bytes, 256u);
}

TEST(SvcCacheRace, ChurnKeepsAccountingExact) {
  // Overwrites with changing sizes and evictions race across two shards;
  // once the threads join, the byte and entry totals must be exactly those
  // of the entries still present.
  ResultCache::Options opts;
  opts.shards = 2;
  opts.max_bytes = 1024;
  ResultCache cache(opts);
  constexpr int kThreads = 4;
  constexpr int kKeys = 32;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        std::string key = "c";
        key += std::to_string((t * 13 + i) % kKeys);
        cache.put(key, std::string(std::size_t(8 + (i * 7 + t) % 40), char('a' + t)));
        cache.try_get(key);
      }
    });
  for (auto& w : workers) w.join();
  std::size_t bytes = 0, entries = 0;
  for (int k = 0; k < kKeys; ++k) {
    std::string key = "c";
    key += std::to_string(k);
    if (const std::optional<std::string> v = cache.try_get(key)) {
      bytes += key.size() + v->size();
      ++entries;
    }
  }
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.bytes, bytes);
  EXPECT_EQ(s.entries, entries);
  EXPECT_LE(s.bytes, 1024u);
}

}  // namespace
}  // namespace rmt::svc
