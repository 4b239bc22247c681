// Tests for the TCP event-loop server (net/server.hpp): request/response
// round trips, framing rejection without losing the connection, admission
// shedding, slow-client disconnects, cross-socket coalescing, half-open
// clients, graceful drain and cache hits answered on the loop thread — all
// against a real loopback socket.
#include "net/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "net/client.hpp"
#include "obs/json.hpp"
#include "svc/wire.hpp"

namespace rmt::net {
namespace {

constexpr const char* kInstanceText =
    "rmt-instance v1\\nnodes 3\\nedge 0 1\\nedge 1 2\\ndealer 0\\nreceiver 2\\n"
    "corruptible 1\\n";

/// A request for kInstanceText. A salt adds a comment line: a distinct
/// text, but the same canonical instance and therefore the same cache key.
/// `extra` is spliced in as further members (e.g. `,"no_cache":true`).
std::string request_line(const std::string& id, const std::string& salt = "",
                         const std::string& extra = "") {
  std::string inst = kInstanceText;
  if (!salt.empty()) inst += "# " + salt + "\\n";
  return std::string(R"({"schema":"rmt.request/1","id":")") + id +
         R"(","kind":"decide_rmt","instance":")" + inst + "\"" + extra + "}";
}

/// A request whose instance (a 4-node path) keys apart from kInstanceText.
std::string other_request_line(const std::string& id) {
  return std::string(R"({"schema":"rmt.request/1","id":")") + id +
         R"(","kind":"decide_rmt","instance":"rmt-instance v1\nnodes 4\nedge 0 1\n)"
         R"(edge 1 2\nedge 2 3\ndealer 0\nreceiver 3\ncorruptible 1\n"})";
}

/// `prefix` then `n`. Built with +=: `"q" + std::to_string(n)` trips GCC
/// 12's -Wrestrict false positive in optimized -Werror builds.
std::string numbered(const std::string& prefix, std::size_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

std::string stats_line(const std::string& id) {
  return std::string(R"({"schema":"rmt.request/1","id":")") + id + R"(","kind":"stats"})";
}

/// Hosts serve() on its own thread; stops and joins on destruction.
/// Member order matters: server_ must outlive the serving thread's last
/// access, so the thread is declared last (destroyed first after stop()).
class RunningServer {
 public:
  explicit RunningServer(Server::Options opts, std::size_t jobs = 2)
      : pool_(jobs), server_(&pool_, std::move(opts)), thread_([this] {
          server_.serve();
          done_.store(true);
        }) {}

  ~RunningServer() {
    server_.stop();
    if (thread_.joinable()) thread_.join();
  }

  Server& server() { return server_; }
  std::uint16_t port() const { return server_.bound_port(); }
  bool done() const { return done_.load(); }

  /// Wait until `pred` holds (polling stats is inherently racy against the
  /// event loop, so tests converge instead of asserting instantly).
  template <typename Pred>
  bool wait_for(Pred pred, int timeout_ms = 5000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred();
  }

 private:
  exec::ThreadPool pool_;
  Server server_;
  std::atomic<bool> done_{false};
  std::thread thread_;
};

obs::json::Value parse_response(const std::string& line) {
  obs::json::Value doc = obs::json::Value::parse(line);
  EXPECT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->as_string(), "rmt.response/1");
  return doc;
}

TEST(NetServer, BindsEphemeralPort) {
  RunningServer rs{Server::Options{}};
  EXPECT_GT(rs.port(), 0);
}

TEST(NetServer, AnswersARequest) {
  RunningServer rs{Server::Options{}};
  Client client;
  client.connect(rs.port());
  client.send_line(request_line("q1"));
  client.send_line("");  // blank line flushes the batch
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  const obs::json::Value doc = parse_response(line);
  EXPECT_EQ(doc.find("id")->as_string(), "q1");
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
  const NetStats stats = rs.server().stats();
  EXPECT_EQ(stats.accepts, 1u);
  EXPECT_EQ(stats.responses_out, 1u);
}

TEST(NetServer, PreservesPerConnectionOrderAcrossBatches) {
  Server::Options opts;
  opts.batch_limit = 1;  // every request is its own engine batch
  RunningServer rs{opts};
  Client client;
  client.connect(rs.port());
  for (std::size_t i = 0; i < 8; ++i)
    client.send_line(request_line(numbered("q", i), numbered("s", i)));
  client.send_line("");
  for (std::size_t i = 0; i < 8; ++i) {
    std::string line;
    ASSERT_TRUE(client.recv_line(line));
    EXPECT_EQ(parse_response(line).find("id")->as_string(), numbered("q", i));
  }
}

TEST(NetServer, ParseErrorKeepsConnectionUsable) {
  RunningServer rs{Server::Options{}};
  Client client;
  client.connect(rs.port());
  client.send_line(R"({"schema":"rmt.request/1","id":"bad"})");
  client.send_line(request_line("good"));
  client.send_line("");
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  obs::json::Value doc = parse_response(line);
  EXPECT_EQ(doc.find("id")->as_string(), "bad");
  EXPECT_EQ(doc.find("status")->as_string(), "error");
  ASSERT_TRUE(client.recv_line(line));
  doc = parse_response(line);
  EXPECT_EQ(doc.find("id")->as_string(), "good");
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
}

TEST(NetServer, OversizedLineRejectedWithoutConsumingConnection) {
  Server::Options opts;
  opts.max_line_bytes = 512;  // leaves room for a normal request line
  RunningServer rs{opts};
  Client client;
  client.connect(rs.port());
  const std::string junk(4096, 'x');
  client.send_raw(junk.data(), junk.size());
  client.send_raw("\n", 1);
  client.send_line(request_line("after"));
  client.send_line("");
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  obs::json::Value doc = parse_response(line);
  EXPECT_EQ(doc.find("status")->as_string(), "error");
  EXPECT_NE(doc.find("error")->as_string().find("exceeds 512 bytes"), std::string::npos);
  ASSERT_TRUE(client.recv_line(line));
  doc = parse_response(line);
  EXPECT_EQ(doc.find("id")->as_string(), "after");
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
  EXPECT_EQ(rs.server().stats().frame_rejects, 1u);
}

TEST(NetServer, EmbeddedNulRejected) {
  RunningServer rs{Server::Options{}};
  Client client;
  client.connect(rs.port());
  const char evil[] = "{\"schema\"\0:1}\n";
  client.send_raw(evil, sizeof evil - 1);
  client.send_line(request_line("after"));
  client.send_line("");
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  obs::json::Value doc = parse_response(line);
  EXPECT_EQ(doc.find("status")->as_string(), "error");
  EXPECT_NE(doc.find("error")->as_string().find("NUL"), std::string::npos);
  ASSERT_TRUE(client.recv_line(line));
  EXPECT_EQ(parse_response(line).find("id")->as_string(), "after");
}

TEST(NetServer, SplitWritesMidLineReassemble) {
  RunningServer rs{Server::Options{}};
  Client client;
  client.connect(rs.port());
  const std::string req = request_line("split") + "\n\n";
  // Dribble the request one byte at a time across many send() calls.
  for (char c : req) client.send_raw(&c, 1);
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  const obs::json::Value doc = parse_response(line);
  EXPECT_EQ(doc.find("id")->as_string(), "split");
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
}

TEST(NetServer, ShedsPastPerConnectionBudget) {
  Server::Options opts;
  opts.max_inflight_per_conn = 1;
  opts.batch_wait_ms = 60'000;  // nothing flushes until the blank line
  RunningServer rs{opts};
  Client client;
  client.connect(rs.port());
  // 4 pipelined requests with no flush: the first is admitted, the other
  // 3 are shed immediately ("overloaded"), then the blank line flushes.
  for (std::size_t i = 0; i < 4; ++i)
    client.send_line(request_line(numbered("q", i), numbered("k", i)));
  client.send_line("");
  std::vector<std::string> statuses;
  for (std::size_t i = 0; i < 4; ++i) {
    std::string line;
    ASSERT_TRUE(client.recv_line(line));
    const obs::json::Value doc = parse_response(line);
    EXPECT_EQ(doc.find("id")->as_string(), numbered("q", i)) << "order preserved";
    statuses.push_back(doc.find("status")->as_string());
    if (statuses.back() == "error") {
      EXPECT_NE(doc.find("error")->as_string().find("overloaded"), std::string::npos);
    }
  }
  EXPECT_EQ(statuses[0], "ok");
  EXPECT_EQ(statuses[1], "error");
  EXPECT_EQ(statuses[2], "error");
  EXPECT_EQ(statuses[3], "error");
  EXPECT_EQ(rs.server().stats().shed, 3u);
}

TEST(NetServer, CoalescesDuplicateKeysAcrossSockets) {
  Server::Options opts;
  opts.batch_wait_ms = 60'000;  // batch closes only on the blank-line flush
  RunningServer rs{opts};
  Client a, b;
  a.connect(rs.port());
  b.connect(rs.port());
  a.send_line(request_line("a1", "shared"));
  // Converge on the server having parsed a1 into the pending batch before
  // b's duplicate arrives, so both land in ONE batch deterministically.
  ASSERT_TRUE(rs.wait_for([&] { return rs.server().stats().lines_in >= 1; }));
  b.send_line(request_line("b1", "shared"));
  ASSERT_TRUE(rs.wait_for([&] { return rs.server().stats().lines_in >= 2; }));
  b.send_line("");  // a blank line from ANY connection flushes the batch
  std::string la, lb;
  ASSERT_TRUE(a.recv_line(la));
  ASSERT_TRUE(b.recv_line(lb));
  const obs::json::Value da = parse_response(la);
  const obs::json::Value db = parse_response(lb);
  EXPECT_EQ(da.find("status")->as_string(), "ok");
  EXPECT_EQ(db.find("status")->as_string(), "ok");
  // Identical deterministic payloads, one computation, one coalesce.
  EXPECT_EQ(da.find("key")->as_string(), db.find("key")->as_string());
  const svc::Engine::Stats stats = rs.server().engine().stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
}

TEST(NetServer, StatsProbeCarriesNetSection) {
  RunningServer rs{Server::Options{}};
  Client client;
  client.connect(rs.port());
  client.send_line(request_line("q1"));
  client.send_line(stats_line("s1"));  // probes flush the pending batch
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  EXPECT_EQ(parse_response(line).find("id")->as_string(), "q1");
  ASSERT_TRUE(client.recv_line(line));
  const obs::json::Value doc = parse_response(line);
  EXPECT_EQ(doc.find("id")->as_string(), "s1");
  const obs::json::Value* result = doc.find("result");
  ASSERT_NE(result, nullptr);
  const obs::json::Value* net = result->find("net");
  ASSERT_NE(net, nullptr) << "TCP stats probe must carry the net section";
  EXPECT_EQ(net->find("accepts")->as_u64(), 1u);
  EXPECT_EQ(net->find("active")->as_u64(), 1u);
  EXPECT_EQ(net->find("batches")->as_u64(), 1u);  // q1, submitted by the probe
  EXPECT_EQ(net->find("inline_hits")->as_u64(), 0u);
  EXPECT_EQ(result->find("engine")->find("requests")->as_u64(), 1u);
}

TEST(NetServer, SlowClientIsDisconnected) {
  Server::Options opts;
  opts.so_sndbuf = 4096;            // shrink the kernel's in-flight window
  opts.write_budget_bytes = 2048;   // pause reads quickly
  opts.write_hard_cap_bytes = 8192; // ...then drop the non-draining client
  opts.max_inflight_per_conn = 4096;
  opts.batch_limit = 8;
  RunningServer rs{opts};
  Client slow;
  slow.set_recv_buffer(4096);
  slow.connect(rs.port());
  // Pump responses at a client that never reads. Cached answers (~600 B
  // each) accumulate in the write queue once both socket buffers fill.
  const std::string req = request_line("r", "slowkey");
  for (int i = 0; i < 400 && rs.server().stats().slow_client_disconnects == 0; ++i) {
    try {
      slow.send_line(req);
      slow.send_line("");
    } catch (const std::exception&) {
      break;  // server already dropped us mid-send — that is the point
    }
  }
  ASSERT_TRUE(rs.wait_for([&] { return rs.server().stats().slow_client_disconnects >= 1; }))
      << "slow client was never disconnected";
  // A healthy client on the same server is still served promptly.
  Client healthy;
  healthy.connect(rs.port());
  healthy.send_line(request_line("h1", "healthykey"));
  healthy.send_line("");
  std::string line;
  ASSERT_TRUE(healthy.recv_line(line));
  EXPECT_EQ(parse_response(line).find("id")->as_string(), "h1");
}

TEST(NetServer, HalfOpenClientGetsItsAnswers) {
  RunningServer rs{Server::Options{}};
  Client client;
  client.connect(rs.port());
  client.send_line(request_line("h1"));
  client.send_line("");
  client.shutdown_write();  // EOF at the server; responses still flow back
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  EXPECT_EQ(parse_response(line).find("id")->as_string(), "h1");
  EXPECT_FALSE(client.recv_line(line));  // server closes after the flush
  ASSERT_TRUE(rs.wait_for([&] { return rs.server().stats().active == 0; }));
  EXPECT_EQ(rs.server().stats().disconnects, 1u);
}

TEST(NetServer, AbruptDisconnectReleasesTheConnection) {
  RunningServer rs{Server::Options{}};
  {
    Client client;
    client.connect(rs.port());
    client.send_line(request_line("gone"));
    // close with the request still in flight — no blank line, no read
  }
  // Wait on disconnects (not active == 0): active starts at 0, so the
  // close must be observed, not just the absence of an open connection.
  ASSERT_TRUE(rs.wait_for([&] { return rs.server().stats().disconnects >= 1; }));
  const NetStats stats = rs.server().stats();
  EXPECT_EQ(stats.accepts, 1u);
  EXPECT_EQ(stats.disconnects, 1u);
}

TEST(NetServer, GracefulDrainAnswersInFlightWork) {
  Server::Options opts;
  opts.batch_wait_ms = 60'000;
  RunningServer rs{opts};
  Client client;
  client.connect(rs.port());
  client.send_line(request_line("d1"));
  ASSERT_TRUE(rs.wait_for([&] { return rs.server().stats().lines_in >= 1; }));
  rs.server().stop();  // drain: flush the pending batch, answer, close
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  EXPECT_EQ(parse_response(line).find("id")->as_string(), "d1");
  EXPECT_FALSE(client.recv_line(line));  // server closed after the flush
  ASSERT_TRUE(rs.wait_for([&] { return rs.done(); })) << "serve() did not return";
}

TEST(NetServer, ManyConcurrentClients) {
  RunningServer rs{Server::Options{}, 4};
  constexpr int kClients = 16;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client;
        client.connect(rs.port());
        for (std::size_t i = 0; i < 4; ++i) {
          const std::string id = numbered(numbered("c", std::size_t(c)) + "_", i);
          client.send_line(request_line(id, "key" + std::to_string(i)));
          client.send_line("");
          std::string line;
          if (!client.recv_line(line)) throw std::runtime_error("eof");
          const obs::json::Value doc = obs::json::Value::parse(line);
          if (doc.find("id")->as_string() != id) throw std::runtime_error("bad id");
          if (doc.find("status")->as_string() != "ok") throw std::runtime_error("bad status");
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(rs.wait_for([&] { return rs.server().stats().active == 0; }));
  const NetStats stats = rs.server().stats();
  EXPECT_EQ(stats.accepts, std::uint64_t(kClients));
  EXPECT_EQ(stats.responses_out, std::uint64_t(kClients * 4));
  EXPECT_EQ(stats.shed, 0u);
}

// --- cache hits answered on the event-loop thread -----------------------------

/// One request and a flush on a connection of its own: the answer is cached.
void warm(RunningServer& rs, const std::string& line) {
  Client client;
  client.connect(rs.port());
  client.send_line(line);
  client.send_line("");
  std::string answer;
  ASSERT_TRUE(client.recv_line(answer));
}

TEST(NetServer, WarmHitIsAnsweredWhileAnotherConnectionsMissWaits) {
  Server::Options opts;
  opts.batch_wait_ms = 60'000;  // only a blank line submits a batch
  RunningServer rs{opts};
  warm(rs, request_line("w"));
  const std::uint64_t lines0 = rs.server().stats().lines_in;
  Client a, b;
  a.connect(rs.port());
  b.connect(rs.port());
  a.send_line(other_request_line("a1"));  // a miss: joins the pending batch
  ASSERT_TRUE(rs.wait_for([&] { return rs.server().stats().lines_in >= lines0 + 1; }));
  b.send_line(request_line("b1"));  // a hit: answered with no blank line
  std::string line;
  ASSERT_TRUE(b.recv_line(line));
  obs::json::Value doc = parse_response(line);
  EXPECT_EQ(doc.find("id")->as_string(), "b1");
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
  EXPECT_TRUE(doc.find("cached")->as_bool());
  NetStats stats = rs.server().stats();
  EXPECT_EQ(stats.inline_hits, 1u);
  EXPECT_EQ(stats.batches, 1u);  // the warm-up's; a1 is still pending

  b.send_line("");  // B's blank line submits A's pending miss
  ASSERT_TRUE(a.recv_line(line));
  doc = parse_response(line);
  EXPECT_EQ(doc.find("id")->as_string(), "a1");
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
  EXPECT_FALSE(doc.find("cached")->as_bool());
  stats = rs.server().stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(rs.server().engine().stats().requests, 3u);
}

TEST(NetServer, HitWaitsBehindItsConnectionsPendingMiss) {
  Server::Options opts;
  opts.batch_wait_ms = 60'000;
  RunningServer rs{opts};
  warm(rs, request_line("w"));
  Client client;
  client.connect(rs.port());
  client.send_line(other_request_line("miss"));
  client.send_line(request_line("hit"));
  // The hit is answered at once, but its slot waits behind the miss.
  ASSERT_TRUE(rs.wait_for([&] { return rs.server().stats().inline_hits >= 1; }));
  client.send_line("");
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  EXPECT_EQ(parse_response(line).find("id")->as_string(), "miss");
  ASSERT_TRUE(client.recv_line(line));
  const obs::json::Value doc = parse_response(line);
  EXPECT_EQ(doc.find("id")->as_string(), "hit");
  EXPECT_TRUE(doc.find("cached")->as_bool());
}

TEST(NetServer, HitBehindAnInflightMissIsShed) {
  Server::Options opts;
  opts.max_inflight_per_conn = 1;
  opts.batch_wait_ms = 60'000;
  RunningServer rs{opts};
  warm(rs, request_line("w"));
  Client client;
  client.connect(rs.port());
  client.send_line(other_request_line("miss"));
  client.send_line(request_line("hit"));  // admission runs before the lookup
  client.send_line("");
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  obs::json::Value doc = parse_response(line);
  EXPECT_EQ(doc.find("id")->as_string(), "miss");
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
  ASSERT_TRUE(client.recv_line(line));
  doc = parse_response(line);
  EXPECT_EQ(doc.find("id")->as_string(), "hit");
  EXPECT_EQ(doc.find("status")->as_string(), "error");
  EXPECT_NE(doc.find("error")->as_string().find("overloaded"), std::string::npos);
  const NetStats stats = rs.server().stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.inline_hits, 0u);
}

TEST(NetServer, NoCacheAndDeadlineRequestsGoThroughTheBatch) {
  Server::Options opts;
  opts.batch_wait_ms = 60'000;
  RunningServer rs{opts};
  warm(rs, request_line("w"));
  const std::uint64_t lines0 = rs.server().stats().lines_in;
  Client client;
  client.connect(rs.port());
  client.send_line(request_line("nc", "", R"(,"no_cache":true)"));
  client.send_line(request_line("dl", "", R"(,"deadline_ms":0)"));
  ASSERT_TRUE(rs.wait_for([&] { return rs.server().stats().lines_in >= lines0 + 2; }));
  NetStats stats = rs.server().stats();
  EXPECT_EQ(stats.inline_hits, 0u);
  EXPECT_EQ(stats.batches, 1u);  // both wait in the pending batch
  client.send_line("");
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  obs::json::Value doc = parse_response(line);
  EXPECT_EQ(doc.find("id")->as_string(), "nc");
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
  EXPECT_FALSE(doc.find("cached")->as_bool());  // no_cache computes afresh
  ASSERT_TRUE(client.recv_line(line));
  doc = parse_response(line);
  EXPECT_EQ(doc.find("id")->as_string(), "dl");
  EXPECT_EQ(doc.find("status")->as_string(), "deadline_exceeded");
  stats = rs.server().stats();
  EXPECT_EQ(stats.inline_hits, 0u);
  EXPECT_EQ(stats.batches, 2u);
}

TEST(NetServer, PublishStatsIsSafeWhileServing) {
  RunningServer rs{Server::Options{}};
  Client client;
  client.connect(rs.port());
  client.send_line(request_line("p1"));
  client.send_line("");
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  rs.server().publish_stats();  // no-op with obs disabled; must not crash
}

}  // namespace
}  // namespace rmt::net
