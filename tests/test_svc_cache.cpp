// Tests for the sharded LRU result cache (svc/result_cache.hpp).
//
// The SvcCache* concurrency tests are part of the TSan CI suite (the
// tsan job's ctest regex includes `Svc`): they race get/put/stats across
// threads to prove the per-shard locking is actually per shard.
#include "svc/result_cache.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

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

}  // namespace
}  // namespace rmt::svc
