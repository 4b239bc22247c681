// store/store.hpp — the persistent tier under svc::ResultCache: a
// crash-safe append-only record log with identity-checked recovery,
// last-writer-wins indexing, and budgeted compaction.
//
// The store answers the same get/put contract the in-memory cache does,
// but against <dir>/store.log (format.hpp). Properties the serving stack
// leans on:
//
//   * Crash safety. Appends are single write(2) calls of a fully framed
//     record; a process killed mid-append leaves at most one torn record
//     at the tail, which recovery truncates away (counted in
//     Stats::repairs). The identity header is fsync'd at creation and
//     after every compaction; appends themselves are not fsync'd by
//     default — SIGKILL keeps kernel-buffered writes, and losing the tail
//     to a power cut merely re-pays some compute.
//
//   * Never a wrong byte. get() re-verifies the record checksum on every
//     read; a mismatch (bit rot, hostile edit) is a miss plus a
//     read_errors tick, never a served value. A file whose identity line
//     fails its check is rejected at open (std::invalid_argument).
//
//   * Last-writer-wins. Records carry a monotone seq; the newest seq for
//     a key is live, older duplicates are dead bytes. Online compaction
//     rewrites live records to a temp file and renames it into place
//     (generation + 1) once dead bytes pass Options::compact_dead_ratio,
//     or whenever the file exceeds Options::max_bytes — evicting
//     lowest-seq records if live bytes alone bust the budget.
//
//   * Thread safety. svc::Engine calls put() from pool workers and get()
//     from the submitting thread; every public method locks the one
//     internal mutex.
//
// merge() folds another store's log into this one: absent keys are
// appended, identical values are skipped, and a value divergence on the
// same key is a hard std::runtime_error — results are a pure function of
// the key, so divergence means one side is corrupt or lying.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "store/format.hpp"

namespace rmt::store {
class Store;
struct MergeReport;
MergeReport merge(Store& dst, const std::string& src_dir);
}  // namespace rmt::store

namespace rmt::audit {
/// Deep index-vs-log invariants: every index entry frames a verifiable
/// record whose key matches and whose seq is the newest for that key;
/// live/total byte accounting agrees with the file.
void validate(const store::Store& s);
}  // namespace rmt::audit

namespace rmt::store {

struct Options {
  /// Directory holding store.log; created if absent. Empty = no store
  /// (svc::Engine treats an empty dir as "disk tier disabled").
  std::string dir;
  /// Cap on the log file size in bytes; 0 = unlimited. Crossing it
  /// triggers compaction, then lowest-seq eviction until live bytes fit.
  std::uint64_t max_bytes = 0;
  /// Compact when dead bytes exceed this fraction of the file (and
  /// compact_min_dead_bytes, so small logs are not churned).
  double compact_dead_ratio = 0.5;
  std::uint64_t compact_min_dead_bytes = 1u << 16;
  /// fsync every append (durability against power loss, not just
  /// process death). Off by default: the serving win is restart reuse.
  bool fsync_each_append = false;
};

struct Stats {
  std::uint64_t hits = 0;         ///< get() served a verified value
  std::uint64_t misses = 0;       ///< get() found nothing usable
  std::uint64_t appends = 0;      ///< records appended by put()
  std::uint64_t read_errors = 0;  ///< checksum/frame mismatches on read
  std::uint64_t compactions = 0;  ///< log rewrites (generation bumps)
  std::uint64_t evictions = 0;    ///< live records dropped for the budget
  std::uint64_t repairs = 0;      ///< torn tails truncated at open
  std::uint64_t merged = 0;       ///< records appended by merge()
  std::uint64_t records = 0;      ///< records in the log (live + dead)
  std::uint64_t live_records = 0;
  std::uint64_t bytes = 0;        ///< log file size
  std::uint64_t live_bytes = 0;   ///< header + live record bytes
  std::uint64_t generation = 0;
};

class Store {
 public:
  /// Open or create <opts.dir>/store.log. Throws std::invalid_argument on
  /// an unusable directory or a file that fails its identity check;
  /// repairs (and counts) a torn tail. May compact immediately when the
  /// inherited log already busts the budget.
  explicit Store(Options opts);
  ~Store();

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  /// Read-verify the newest record for `key`; nullopt on miss or on any
  /// integrity failure (which also drops the poisoned index entry).
  std::optional<std::string> get(const std::string& key);

  /// Append (or refresh) `key` -> `value`. A put identical to the live
  /// value is absorbed without growing the log. Throws
  /// std::invalid_argument past the framing caps.
  void put(const std::string& key, const std::string& value);

  /// fsync the log (serve shutdown, checkpoint points).
  void flush();

  /// Force a compaction regardless of thresholds.
  void compact();

  const std::string& path() const { return path_; }
  Stats stats() const;
  /// Push counters (as deltas) and gauges into obs::Registry::global()
  /// under the store.* names (obs/names.hpp).
  void publish_stats();

 private:
  friend MergeReport merge(Store& dst, const std::string& src_dir);
  friend void rmt::audit::validate(const Store& s);

  struct Entry {
    std::size_t offset = 0;  ///< record header offset in the log
    std::size_t size = 0;    ///< full framed size
    std::size_t value_len = 0;
    std::uint64_t seq = 0;
  };

  void load_locked();
  /// Read + verify the record behind `e`; nullopt counts a read error.
  std::optional<std::string> read_value_locked(const Entry& e, const std::string& key);
  void append_locked(const std::string& key, const std::string& value);
  void maybe_compact_locked();
  void compact_locked();

  Options opts_;
  std::string path_;
  int fd_ = -1;
  mutable std::mutex m_;
  std::unordered_map<std::string, Entry> index_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t record_count_ = 0;  ///< records in the log (live + dead)
  std::size_t header_size_ = 0;
  std::uint64_t total_bytes_ = 0;  ///< current log size incl. header
  std::uint64_t live_bytes_ = 0;   ///< header + live record bytes
  Stats counters_;                 ///< monotone counters (hits..merged)
  Stats published_;                ///< last publish_stats() snapshot
};

/// What merge() did (also printed by `rmt_cli store merge`).
struct MergeReport {
  std::uint64_t scanned = 0;        ///< live records in the source
  std::uint64_t appended = 0;       ///< keys new to the destination
  std::uint64_t skipped_equal = 0;  ///< keys present with identical bytes
};

// merge(): fold the store under `src_dir` into `dst` (declared above the
// class for the friend declaration). The source is opened read-only and
// never modified (a torn source tail is skipped, not repaired). Throws
// std::invalid_argument when the source is not a store,
// std::runtime_error when a shared key carries diverging values.

}  // namespace rmt::store
