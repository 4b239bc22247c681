// Tests for the per-connection incremental line framer (net/framing.hpp):
// split-point sweeps, CRLF, oversized and NUL-embedded lines arriving in
// arbitrary partial reads, and the bounded-memory discard mode.
#include "net/framing.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace rmt::net {
namespace {

/// Feed `data` in chunks of `chunk` bytes and collect every ready frame.
std::vector<LineFramer::Frame> feed_chunked(LineFramer& framer, const std::string& data,
                                            std::size_t chunk) {
  std::vector<LineFramer::Frame> frames;
  for (std::size_t off = 0; off < data.size(); off += chunk) {
    framer.feed(data.data() + off, std::min(chunk, data.size() - off));
    LineFramer::Frame frame;
    while (framer.next(frame)) frames.push_back(frame);
  }
  return frames;
}

TEST(NetFraming, SplitPointSweep) {
  // Every split position of a two-line payload yields the same two frames.
  const std::string payload = "hello world\nsecond line\n";
  for (std::size_t chunk = 1; chunk <= payload.size(); ++chunk) {
    LineFramer framer(1024);
    const auto frames = feed_chunked(framer, payload, chunk);
    ASSERT_EQ(frames.size(), 2u) << "chunk=" << chunk;
    EXPECT_EQ(frames[0].kind, LineFramer::Kind::kLine);
    EXPECT_EQ(frames[0].line, "hello world");
    EXPECT_EQ(frames[1].line, "second line");
    EXPECT_FALSE(framer.mid_line()) << "chunk=" << chunk;
  }
}

TEST(NetFraming, NoFrameWithoutNewline) {
  LineFramer framer(1024);
  framer.feed("partial", 7);
  LineFramer::Frame frame;
  EXPECT_FALSE(framer.next(frame));
  EXPECT_TRUE(framer.mid_line());
  framer.feed("\n", 1);
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(frame.line, "partial");
  EXPECT_FALSE(framer.mid_line());
}

TEST(NetFraming, StripsOneTrailingCR) {
  LineFramer framer(1024);
  framer.feed("a\r\nb\r\r\n", 7);
  LineFramer::Frame frame;
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(frame.line, "a");
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(frame.line, "b\r");  // only the terminal CR belongs to CRLF
}

TEST(NetFraming, EmptyLinesSurvive) {
  LineFramer framer(1024);
  framer.feed("\n\r\n", 3);
  LineFramer::Frame frame;
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(frame.kind, LineFramer::Kind::kLine);
  EXPECT_TRUE(frame.line.empty());
  ASSERT_TRUE(framer.next(frame));
  EXPECT_TRUE(frame.line.empty());
  EXPECT_FALSE(framer.next(frame));
}

TEST(NetFraming, OversizedLineRejectedNotConsumed) {
  // A line over the cap yields ONE kOversized frame and the connection
  // keeps working: the next line parses normally.
  const std::string data = "0123456789abcdef\nok\n";
  for (std::size_t chunk : {std::size_t(1), std::size_t(3), data.size()}) {
    LineFramer f(8);
    const auto frames = feed_chunked(f, data, chunk);
    ASSERT_EQ(frames.size(), 2u) << "chunk=" << chunk;
    EXPECT_EQ(frames[0].kind, LineFramer::Kind::kOversized);
    EXPECT_EQ(frames[0].line_bytes, 16u);  // true length, counted in O(1) memory
    EXPECT_EQ(frames[1].kind, LineFramer::Kind::kLine);
    EXPECT_EQ(frames[1].line, "ok");
  }
}

TEST(NetFraming, OversizedBuffersStayBounded) {
  LineFramer framer(16);
  const std::string junk(1024, 'x');
  for (int i = 0; i < 64; ++i) framer.feed(junk.data(), junk.size());
  // 64 KiB of a single unterminated line buffered at most cap bytes.
  EXPECT_LE(framer.buffered_bytes(), 16u);
  EXPECT_TRUE(framer.mid_line());
  framer.feed("\n", 1);
  LineFramer::Frame frame;
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(frame.kind, LineFramer::Kind::kOversized);
  EXPECT_EQ(frame.line_bytes, 64u * 1024u);
}

TEST(NetFraming, EmbeddedNulRejected) {
  LineFramer framer(1024);
  const char data[] = "ab\0cd\nok\n";
  framer.feed(data, sizeof data - 1);
  LineFramer::Frame frame;
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(frame.kind, LineFramer::Kind::kEmbeddedNul);
  EXPECT_EQ(frame.line_bytes, 5u);
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(frame.kind, LineFramer::Kind::kLine);
  EXPECT_EQ(frame.line, "ok");
}

TEST(NetFraming, NulAcrossPartialReads) {
  // The NUL and the newline arrive in different feeds.
  LineFramer framer(1024);
  framer.feed("ab", 2);
  framer.feed("\0", 1);
  framer.feed("cd", 2);
  LineFramer::Frame frame;
  EXPECT_FALSE(framer.next(frame));
  framer.feed("\nnext\n", 6);
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(frame.kind, LineFramer::Kind::kEmbeddedNul);
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(frame.line, "next");
}

TEST(NetFraming, OversizedAcrossPartialReads) {
  LineFramer framer(4);
  framer.feed("abc", 3);
  EXPECT_TRUE(framer.mid_line());
  framer.feed("defg", 4);  // crosses the cap mid-feed
  framer.feed("\nz\n", 3);
  LineFramer::Frame frame;
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(frame.kind, LineFramer::Kind::kOversized);
  EXPECT_EQ(frame.line_bytes, 7u);
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(frame.line, "z");
}

TEST(NetFraming, ExactCapIsAccepted) {
  LineFramer framer(4);
  framer.feed("abcd\nabcde\n", 11);
  LineFramer::Frame frame;
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(frame.kind, LineFramer::Kind::kLine);  // == cap: fine
  EXPECT_EQ(frame.line, "abcd");
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(frame.kind, LineFramer::Kind::kOversized);  // cap+1: rejected
  EXPECT_EQ(frame.line_bytes, 5u);
}

TEST(NetFraming, CRDoesNotRescueOversized) {
  // The CRLF strip applies to accepted lines only; an oversized line's
  // reported length includes everything up to the newline.
  LineFramer framer(4);
  framer.feed("abcde\r\n", 7);
  LineFramer::Frame frame;
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(frame.kind, LineFramer::Kind::kOversized);
}

TEST(NetFraming, ManyLinesOneFeed) {
  LineFramer framer(64);
  std::string data;
  for (int i = 0; i < 100; ++i) data += "line" + std::to_string(i) + "\n";
  framer.feed(data.data(), data.size());
  LineFramer::Frame frame;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(framer.next(frame));
    EXPECT_EQ(frame.line, "line" + std::to_string(i));
  }
  EXPECT_FALSE(framer.next(frame));
}

/// LineFramer::feed as it was, one byte at a time: the reference the
/// memchr framer must match frame for frame.
class ByteLoopFramer {
 public:
  explicit ByteLoopFramer(std::size_t cap) : cap_(cap) {}

  void feed(const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const char c = data[i];
      if (c == '\n') {
        complete_line();
        continue;
      }
      if (discarding_) {
        ++dropped_;
        continue;
      }
      if (c == '\0') saw_nul_ = true;
      buf_.push_back(c);
      if (buf_.size() > cap_) {
        dropped_ = buf_.size();
        buf_.clear();
        discarding_ = true;
      }
    }
  }
  bool next(LineFramer::Frame& out) {
    if (ready_.empty()) return false;
    out = std::move(ready_.front());
    ready_.pop_front();
    return true;
  }
  bool mid_line() const { return !buf_.empty() || discarding_; }

 private:
  void complete_line() {
    LineFramer::Frame f;
    if (discarding_) {
      f.kind = LineFramer::Kind::kOversized;
      f.line_bytes = buf_.size() + dropped_;
    } else if (saw_nul_) {
      f.kind = LineFramer::Kind::kEmbeddedNul;
      f.line_bytes = buf_.size();
    } else {
      if (!buf_.empty() && buf_.back() == '\r') buf_.pop_back();
      f.line_bytes = buf_.size();
      f.line = buf_;
    }
    ready_.push_back(std::move(f));
    buf_.clear();
    discarding_ = false;
    saw_nul_ = false;
    dropped_ = 0;
  }

  std::size_t cap_;
  std::string buf_;
  bool discarding_ = false;
  bool saw_nul_ = false;
  std::size_t dropped_ = 0;
  std::deque<LineFramer::Frame> ready_;
};

TEST(NetFraming, MemchrFramerMatchesTheByteLoopAtEverySplit) {
  // Streams of short, exact-cap, oversized, CRLF, NUL and empty lines,
  // each fed at every chunk size (plus random splits); after every feed
  // both framers must hold the same frames and agree on mid_line().
  Rng rng(9);
  const std::string alphabet = "ab{}\":,\r\r\n\n\n";
  for (int stream = 0; stream < 60; ++stream) {
    const std::size_t cap = 1 + rng.index(12);
    std::string data;
    for (std::size_t len = rng.index(120); data.size() < len;) {
      const std::size_t pick = rng.index(10);
      if (pick == 0) data += std::string(cap + rng.index(3), 'x') + "\n";
      else if (pick == 1) data += '\0';
      else if (pick == 2) data += std::string(cap, 'y') + "\r\n";
      else data += alphabet[rng.index(alphabet.size())];
    }
    for (std::size_t chunk = 1; chunk <= data.size() + 1; ++chunk) {
      LineFramer got(cap);
      ByteLoopFramer want(cap);
      for (std::size_t off = 0; off < data.size();) {
        const std::size_t step =
            chunk <= data.size() ? chunk : 1 + rng.index(data.size() - off);  // last: random
        const std::size_t n = std::min(step, data.size() - off);
        got.feed(data.data() + off, n);
        want.feed(data.data() + off, n);
        off += n;
        LineFramer::Frame g, w;
        for (;;) {
          const bool has_g = got.next(g), has_w = want.next(w);
          ASSERT_EQ(has_g, has_w) << "stream " << stream << " chunk " << chunk;
          if (!has_g) break;
          EXPECT_EQ(g.kind, w.kind) << "stream " << stream << " chunk " << chunk;
          EXPECT_EQ(g.line, w.line) << "stream " << stream << " chunk " << chunk;
          EXPECT_EQ(g.line_bytes, w.line_bytes) << "stream " << stream << " chunk " << chunk;
        }
        EXPECT_EQ(got.mid_line(), want.mid_line()) << "stream " << stream << " chunk " << chunk;
        EXPECT_LE(got.buffered_bytes(), cap);
      }
    }
  }
}

TEST(NetFraming, RejectMessagesNameTheCapAndTheLength) {
  LineFramer framer(4);
  const char data[] = "abcdef\nab\0c\n";
  framer.feed(data, sizeof data - 1);
  LineFramer::Frame frame;
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(framer.reject_message(frame), "rmt.request/1: line exceeds 4 bytes (got 6)");
  ASSERT_TRUE(framer.next(frame));
  EXPECT_EQ(framer.reject_message(frame), "rmt.request/1: line contains a NUL byte (4 bytes)");
}

}  // namespace
}  // namespace rmt::net
