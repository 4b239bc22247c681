// bench_net — the TCP front end's acceptance bench: closed-loop request
// throughput against an in-process net::Server at 100% cache-hit rate,
// swept over client count, with an in-process baseline for the same
// stream so the transport's cost is a reported *factor*, not a guess.
//
// Per row (one per client count in {1, 2, 4, 8}):
//   qps_tcp      — C concurrent net::Client ping-pong loops (request +
//                  blank-line flush, wait for the answer) through one
//                  shared server; qps counts every completed response;
//   qps_direct   — the same total request count replayed through
//                  svc::Engine::run + wire::format_response in-process,
//                  sequentially: what stdio mode does minus the pipe.
//   tcp_overhead_x = qps_direct / qps_tcp — the transport overhead
//                  factor (sockets, framing, event loop, batching);
//   p50_us/p95_us — client-observed round-trip latency.
//
// The workload is 100% hit on purpose: a cache hit is the cheapest thing
// the engine can serve, so the row isolates transport cost — a compute-
// bound workload would hide the event loop behind the decider.
//
// One more row (section "framing") prices the line framer both transports
// read through: ns_per_byte is net::LineFramer::feed's best-of-kReps cost
// per byte over a stream of cold_mix-shaped request lines (0.2–15 KB,
// mean ≈ 3.2 KB) fed in 64 KiB chunks, as `rmt_serve --stdio` reads them;
// its `identical` checks every frame against the line that was sent. The
// client-count rows leave ns_per_byte 0, the framing row leaves the client
// columns 0.
//
// The `identical` column is the determinism gate: every TCP response's
// deterministic segment (status/key/result/error — the slice between
// volatile serving metadata) must be byte-equal to the fresh in-process
// answer for its instance. It is RMT_CHECKed here and re-enforced by
// tools/check_bench_json.py on BENCH_net.json, which also requires every
// qps* and ns_per_byte cell to be a non-negative finite number and one
// framing row with a positive ns_per_byte. Timings themselves are never
// asserted — this is a perf smoke, not a perf gate.
#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "io/serialize.hpp"
#include "net/client.hpp"
#include "net/framing.hpp"
#include "net/server.hpp"
#include "obs/json.hpp"
#include "svc/engine.hpp"
#include "svc/wire.hpp"

namespace {

using namespace rmt;

inline constexpr std::size_t kHotSet = 4;
inline constexpr std::size_t kReqsPerClient = 300;
inline constexpr int kReps = 5;
inline constexpr std::size_t kFramingLines = 1500;

/// Hot-set instances: trivial-structure cycles, distinct keys by receiver.
/// Trivial shapes decide in microseconds, so after the one-time warmup
/// every request is a pure cache hit and the rows measure transport.
Instance hot_instance(std::size_t i) {
  const std::size_t n = 12;
  const Graph g = generators::cycle_graph(n);
  return Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, NodeId(1 + (i % (n - 1))));
}

/// `prefix` then `n`. Built with +=: `"w" + std::to_string(n)` trips GCC
/// 12's -Wrestrict false positive in optimized -Werror builds.
std::string numbered(const std::string& prefix, std::size_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

std::string request_line(const std::string& id, const std::string& instance_text) {
  return "{\"schema\":\"rmt.request/1\",\"id\":\"" + id +
         "\",\"kind\":\"decide_rmt\",\"instance\":\"" + obs::json::escape(instance_text) + "\"}";
}

/// Request lines shaped like cold_mix's: cycles of 12–26 nodes and 3–5
/// parallel paths under trivial to 2-threshold structures and ad hoc to
/// full views, so lines run from 0.2 KB to about 15 KB.
std::vector<std::string> cold_mix_lines() {
  std::vector<std::string> lines;
  for (std::size_t i = 0; lines.size() < kFramingLines; ++i) {
    const Graph g = i % 2 == 0 ? generators::cycle_graph(12 + i % 15)
                               : generators::parallel_paths(3 + i % 3, 2 + i % 3);
    const NodeId r = NodeId(g.num_nodes() / 2);
    const std::size_t t = i % 3;
    const AdversaryStructure z = t == 0 ? AdversaryStructure::trivial()
                                        : threshold_structure(g.nodes() - NodeSet{0, r}, t);
    const ViewFunction gamma = i % 4 == 0   ? ViewFunction::ad_hoc(g)
                               : i % 4 == 1 ? ViewFunction::k_hop(g, 1)
                               : i % 4 == 2 ? ViewFunction::k_hop(g, 2)
                                            : ViewFunction::full(g);
    lines.push_back(request_line(numbered("q", i),
                                 io::serialize_instance(Instance(g, z, gamma, 0, r))));
  }
  return lines;
}

/// The deterministic slice of a response line — status, key, result and
/// error, excluding the id before it and the cached/coalesced/wall_us/
/// trace_id serving metadata after it. Byte-identity across transports
/// is asserted on exactly this slice.
std::string det_segment(const std::string& line) {
  const std::size_t a = line.find("\"status\":");
  const std::size_t b = line.find(",\"cached\":");
  RMT_CHECK(a != std::string::npos && b != std::string::npos && a < b,
            "bench_net: response line lacks the deterministic segment: " + line);
  return line.substr(a, b - a);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rmt;
  using namespace rmt::bench;

  Reporter rep(argc, argv, "bench_net");
  rep.columns({"section", "clients", "requests", "qps_tcp", "qps_direct", "tcp_overhead_x",
               "p50_us", "p95_us", "ns_per_byte", "identical"});

  // The expected bytes per hot instance, from a fresh sequential engine —
  // the identity baseline both serving paths must reproduce.
  std::vector<std::string> instance_text;
  std::vector<std::string> expected_segment;
  for (std::size_t i = 0; i < kHotSet; ++i) {
    const Instance inst = hot_instance(i);
    instance_text.push_back(io::serialize_instance(inst));
    svc::Engine fresh(nullptr);
    std::vector<svc::Request> batch;
    batch.push_back(svc::Request{svc::QueryKind::kDecideRmt, inst, svc::SimParams{},
                                 std::nullopt, /*no_cache=*/true});
    const std::vector<svc::Response> responses = fresh.run(batch);
    RMT_CHECK(responses[0].status == svc::Response::Status::kOk,
              "bench_net: baseline decide failed");
    expected_segment.push_back(det_segment(svc::wire::format_response("x", responses[0])));
  }

  // One shared server for every row, hosted on a dedicated one-thread
  // pool; batches flush as soon as the loop sees them (blank lines make
  // each ping-pong request its own flush anyway).
  net::Server::Options opts;
  opts.batch_wait_ms = 0;
  net::Server server(nullptr, opts);
  exec::ThreadPool serve_pool(1);
  serve_pool.submit([&server] { server.serve(); });

  // Warm the shared cache through the real transport, once.
  {
    net::Client warm;
    warm.connect(server.bound_port());
    for (std::size_t i = 0; i < kHotSet; ++i) {
      warm.send_line(request_line(numbered("w", i), instance_text[i]));
      warm.send_line("");
      std::string line;
      RMT_CHECK(warm.recv_line(line), "bench_net: EOF during warmup");
      RMT_CHECK(det_segment(line) == expected_segment[i],
                "bench_net: warmup bytes diverged from fresh sequential");
    }
    warm.close();
  }

  const std::size_t max_clients = 8;
  exec::ThreadPool client_pool(max_clients);

  for (const std::size_t clients : {std::size_t(1), std::size_t(2), std::size_t(4),
                                    std::size_t(8)}) {
    const std::uint64_t total = clients * kReqsPerClient;
    std::vector<bool> ok(clients, false);
    std::vector<std::vector<double>> lat(clients);

    const double tcp_us = time_us([&] {
      exec::parallel_for(&client_pool, 0, clients, 1, [&](std::size_t c) {
        net::Client client;
        client.connect(server.bound_port());
        std::vector<double>& mine = lat[c];
        mine.reserve(kReqsPerClient);
        bool identical = true;
        std::string line;
        for (std::size_t i = 0; i < kReqsPerClient; ++i) {
          const std::size_t h = (c + i) % kHotSet;
          const std::string id = numbered(numbered("c", c) + "_", i);
          const double us = time_us([&] {
            client.send_line(request_line(id, instance_text[h]));
            client.send_line("");
            RMT_CHECK(client.recv_line(line), "bench_net: EOF mid-stream");
          });
          mine.push_back(us);
          identical = identical && line.find("\"id\":\"" + id + "\"") != std::string::npos &&
                      det_segment(line) == expected_segment[h];
        }
        client.close();
        ok[c] = identical;
      });
    });

    // Baseline: the same request total through the engine in-process,
    // sequentially — parse-free, socket-free, one warmed cache hit plus
    // response formatting per request.
    svc::Engine direct(nullptr);
    {
      std::vector<svc::Request> warmup;
      for (std::size_t i = 0; i < kHotSet; ++i)
        warmup.push_back(svc::Request{svc::QueryKind::kDecideRmt, hot_instance(i),
                                      svc::SimParams{}, std::nullopt, false});
      direct.run(warmup);
    }
    bool identical = std::all_of(ok.begin(), ok.end(), [](bool b) { return b; });
    const double direct_us = time_us([&] {
      for (std::uint64_t i = 0; i < total; ++i) {
        const std::size_t h = i % kHotSet;
        std::vector<svc::Request> batch;
        batch.push_back(svc::Request{svc::QueryKind::kDecideRmt, hot_instance(h),
                                     svc::SimParams{}, std::nullopt, false});
        const std::vector<svc::Response> responses = direct.run(batch);
        identical = identical && responses[0].cached &&
                    det_segment(svc::wire::format_response("x", responses[0])) ==
                        expected_segment[h];
      }
    });

    obs::Histogram rtt;
    for (const std::vector<double>& mine : lat)
      for (const double us : mine) rtt.observe(us);
    const double qps_tcp = tcp_us > 0 ? double(total) * 1e6 / tcp_us : 0.0;
    const double qps_direct = direct_us > 0 ? double(total) * 1e6 / direct_us : 0.0;
    const double overhead = qps_tcp > 0 ? qps_direct / qps_tcp : 0.0;

    rep.row({"tcp", std::uint64_t(clients), total, qps_tcp, qps_direct, overhead, rtt.p50(),
             rtt.p95(), 0.0, identical});
    RMT_CHECK(identical, "bench_net: clients=" + std::to_string(clients) +
                             " served bytes diverged from fresh sequential");
  }

  server.stop();
  server.publish_stats();

  // ---- Framing: the line framer's cost per byte --------------------------
  {
    const std::vector<std::string> lines = cold_mix_lines();
    std::string stream;
    for (const std::string& line : lines) stream += line + "\n";
    bool identical = true;
    double best_us = 0;
    for (int rep_i = 0; rep_i < kReps; ++rep_i) {
      net::LineFramer framer(svc::wire::kMaxRequestBytes);
      std::vector<net::LineFramer::Frame> frames;
      frames.reserve(lines.size());
      net::LineFramer::Frame frame;
      const double us = time_us([&] {
        for (std::size_t off = 0; off < stream.size(); off += 64 << 10) {
          framer.feed(stream.data() + off, std::min<std::size_t>(64 << 10, stream.size() - off));
          while (framer.next(frame)) frames.push_back(std::move(frame));
        }
      });
      if (rep_i == 0 || us < best_us) best_us = us;
      identical = identical && frames.size() == lines.size();
      for (std::size_t i = 0; identical && i < frames.size(); ++i)
        identical = frames[i].kind == net::LineFramer::Kind::kLine && frames[i].line == lines[i];
    }
    rep.row({"framing", std::uint64_t(0), std::uint64_t(lines.size()), 0.0, 0.0, 0.0, 0.0, 0.0,
             best_us * 1000.0 / double(stream.size()), identical});
    RMT_CHECK(identical, "bench_net: the framer's lines diverged from the lines sent");
  }
  rep.finish("NET — TCP front end: closed-loop throughput vs. in-process baseline "
             "(identical bytes)");
  return 0;
}
