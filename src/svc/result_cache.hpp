// svc/result_cache.hpp — the sharded, byte-budgeted LRU result store.
//
// Maps a composite text key — instance key hex + query kind + canonical
// params (svc::Engine composes it) — to the serialized result payload.
// Results are cached losslessly (a hit decodes to exactly the bytes the
// engine returned), so a hit is byte-identical to the original computation
// by construction.
//
// Sharding: a power-of-two shard count, each shard an independent
// (mutex, LRU list, index) triple; the shard of a key is picked from the
// same frozen FNV-1a mix the instance key uses, so placement is stable
// across runs. One global lock never serializes unrelated queries — the
// contention unit is the shard, and the TSan suite (SvcCache*) races
// get/put across shards to prove it.
//
// Storage: each entry is ONE heap block — its LRU links, hash-chain link,
// hash and logical lengths, then the key bytes, then the value bytes, both
// through the lossless static codec of svc/entry_codec.hpp — and the
// shard's bucket array points at the blocks themselves (an intrusive
// chained hash table). A lookup compares the probe key with the stored
// encoding in one pass, and a hit decodes the value once, into the string
// it returns. Every answer of a cold workload stays cached, so this is
// what RSS grows by per served answer: the codec stores a real answer's
// key and value in about a fifth of their bytes, so an entry's whole heap
// cost is below its logical size (bench_svc_throughput checks heap ≤
// 0.75 × accounted on real answers of all four kinds).
//
// Eviction: the budget is bytes (keys + values), divided evenly across
// shards. put() evicts least-recently-used entries of the target shard
// until the new entry fits; an entry larger than a whole shard's budget
// is not cached at all (admitting it would just evict the entire shard
// and then be evicted by the next insert). Eviction never blocks readers
// of other shards.
//
// Observability: hits/misses/evictions counters and the live byte total,
// surfaced as svc.cache.{hits,misses,evictions,bytes} by publish_stats()
// — explicit and coarse, like exec::ThreadPool::publish_stats, so the
// registry mutex stays off the lookup path.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace rmt::svc {

class ResultCache {
 public:
  struct Options {
    /// Rounded up to the next power of two; >= 1.
    std::size_t shards = 8;
    /// Total byte budget (keys + values) across all shards.
    std::size_t max_bytes = 64u << 20;
  };

  ResultCache();  ///< default Options (defined out of line for the nested
                  ///< default member initializers)
  explicit ResultCache(Options opts);

  /// The stored payload, refreshing recency; nullopt on miss. Counts a
  /// hit or a miss.
  std::optional<std::string> get(const std::string& key);

  /// get() for a caller that falls back to get() on a miss (svc::Engine's
  /// loop-thread hit lookup, before run()): a hit counts as in get(), a
  /// miss counts nothing, so each request's miss is counted once.
  std::optional<std::string> try_get(const std::string& key);

  /// Insert or overwrite, then evict LRU entries until the shard fits its
  /// budget. A payload larger than one shard's budget is dropped.
  void put(const std::string& key, std::string value);

  std::size_t num_shards() const { return shards_.size(); }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;    ///< live key+value bytes
    std::size_t entries = 0;  ///< live entry count
  };
  Stats stats() const;

  /// Push counter deltas since the last publish into the global obs
  /// registry (svc.cache.{hits,misses,evictions} counters, svc.cache.bytes
  /// gauge). No-op while observability is disabled.
  void publish_stats();

 private:
  struct Entry;  // one heap block: links, then key bytes, then value bytes

  struct Shard {
    ~Shard();
    mutable std::mutex m;
    Entry* newest = nullptr;  ///< LRU list head (most recently used)
    Entry* oldest = nullptr;  ///< LRU list tail: the next victim
    /// Power-of-two bucket array, chained through the entries themselves.
    std::vector<Entry*> buckets;
    std::size_t entries = 0;
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    /// The entry holding `key`, or nullptr; on a hit `value_at` (when
    /// given) receives where its encoded value starts.
    Entry* find(std::uint64_t hash, const std::string& key,
                const unsigned char** value_at = nullptr) const;
    void insert_newest(Entry* e);
    void remove(Entry* e);  ///< detach from both lists and free the block
    void move_to_newest(Entry* e);
  };

  Shard& shard_of(std::uint64_t hash);
  std::optional<std::string> lookup(const std::string& key, bool count_miss);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_budget_ = 0;

  std::mutex publish_m_;  // serializes delta accounting only
  std::uint64_t published_hits_ = 0;
  std::uint64_t published_misses_ = 0;
  std::uint64_t published_evictions_ = 0;
};

}  // namespace rmt::svc
