// perfbench/src/workload.hpp — the benchmark's seeded request streams.
//
// A workload is a set of distinct request templates ("items") plus a rule
// that maps a stream position to an item. Everything is a pure function of
// the workload name and the seed, so the same seed yields a byte-identical
// stream (stream_digest() lets the benchmark prove it) and the server only
// ever sees the generated lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Transport { kTcp, kStdio };

/// One distinct request. The wire line is head + id + tail, so every sent
/// copy carries its own id while the bytes around it stay fixed.
struct Item {
  std::string kind;   ///< "decide_rmt" ... "simulate"; "malformed" for shallow bad lines
  std::string head;   ///< line bytes before the id
  std::string tail;   ///< line bytes after the id
  std::string text;   ///< the embedded instance text ("" for malformed lines)
  std::string ckey;   ///< the engine's cache identity ("" for malformed lines)
  /// The fresh sequential engine's deterministic response segment
  /// ("status":...,"error":...), filled by compute_expected().
  std::string expect;
  bool solvable = false;  ///< from the expected result (decide/analyze kinds)

  std::string line(const std::string& id) const { return head + id + tail; }
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  Transport transport = Transport::kTcp;
  std::size_t jobs = 1;     ///< rmt_serve --jobs
  std::size_t conns = 1;    ///< client connections (TCP) or pipelined clients (stdio)
  std::size_t batch = 1;    ///< requests per blank-line flush
  /// rmt_serve and the client run on one CPU. A closed loop with one
  /// client and one worker alternates them, so every wake-up is local.
  bool one_cpu = false;
  std::vector<Item> items;
  std::vector<std::size_t> warmup;  ///< items sent before the window (part of setup)
  std::size_t fill = 0;             ///< items [0, fill) are in the store log beforehand

  /// Item index of stream position `pos`. Throws std::out_of_range when a
  /// finite stream (cold_mix, restart_store's new keys) runs dry.
  std::size_t pick(std::uint64_t pos) const;

  /// Stream positions the generator holds distinct new items for.
  std::uint64_t capacity() const;

  /// FNV-1a over the first `n` stream lines — equal seeds, equal digests.
  std::uint64_t stream_digest(std::uint64_t n) const;

  // Stream shape, set by build_workload().
  std::vector<double> zipf_cdf;        ///< warm_hits: popularity of items [0, hot)
  std::vector<std::size_t> malformed;  ///< warm_hits: the shallow bad lines
};

/// Builds the named workload ("warm_hits", "cold_mix", "restart_store");
/// throws std::invalid_argument on an unknown name. `max_positions` sizes
/// the finite streams: the number of positions one run may consume.
Workload build_workload(const std::string& name, std::uint64_t seed,
                        std::uint64_t max_positions);

/// Fills Item::expect and Item::solvable for items [begin, end) with a
/// fresh sequential svc::Engine per request (threads independent engines).
void compute_expected(Workload& w, std::size_t begin, std::size_t end, std::size_t threads);

/// The deterministic segment of a response line and its echoed id; false
/// when the line is not an rmt.response/1 line.
bool split_response(const std::string& line, std::string& id, std::string& segment,
                    bool& cached);

/// Describes the composition of stream positions [0, n): text-size histogram,
/// kind shares, solvable share and disk-resident share.
std::string composition(const Workload& w, std::uint64_t n);

}  // namespace perfbench
