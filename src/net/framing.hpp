// net/framing.hpp — incremental JSONL line framing for untrusted sockets.
//
// A TCP connection delivers the rmt.request/1 stream as arbitrary byte
// chunks: lines split mid-byte, dribbled one byte per segment, several
// lines per read, a '\n' that never comes. LineFramer reassembles frames
// out of that stream with two hard properties the server relies on:
//
//  * bounded memory — a line is buffered up to `max_line_bytes`; one byte
//    past the cap flips the framer into O(1) discard mode until the next
//    '\n'. A hostile client sending an endless line costs a fixed-size
//    buffer, never an allocation proportional to what it sent;
//  * reject, don't consume — an oversized or NUL-embedded line surfaces
//    as a typed Frame (kOversized / kEmbeddedNul) and the connection
//    keeps going: the next '\n' re-arms normal framing and the following
//    line parses as if nothing happened. Dropping the connection (or
//    worse, wedging it) on one bad line would let one fault corrupt a
//    pipelined client's whole stream.
//
// NUL bytes are rejected at the framing layer rather than left for the
// JSON parser because the wire protocol stores lines in std::string on
// the way to svc::wire::parse_line — an embedded NUL would silently
// truncate error messages built from C strings and confuse best-effort id
// extraction. A frame either is a complete NUL-free line under the cap,
// or it is a typed rejection.
//
// Both transports frame through it: each TCP connection owns one framer,
// and `rmt_serve --stdio` feeds fd 0 into one, so a hostile line gets the
// same answer on either. feed() finds line ends and NULs with memchr, one
// pass over each chunk (tests/test_net_framing.cpp checks it against the
// byte-at-a-time loop across split points; serve_e2e.py drives both
// transports). Single-threaded: a framer is fed and drained by one thread.
#pragma once

#include <cstddef>
#include <deque>
#include <string>

namespace rmt::net {

class LineFramer {
 public:
  enum class Kind {
    kLine,         ///< a complete line under the cap (terminator stripped)
    kOversized,    ///< the line exceeded max_line_bytes; payload dropped
    kEmbeddedNul,  ///< the line contained a NUL byte; payload dropped
  };

  struct Frame {
    Kind kind = Kind::kLine;
    std::string line;          ///< kLine only; "" for rejections
    std::size_t line_bytes = 0;  ///< original line length incl. dropped bytes
  };

  /// `max_line_bytes` caps one line's length excluding the terminator.
  explicit LineFramer(std::size_t max_line_bytes);

  /// Append a chunk of raw stream bytes. Never throws past allocation;
  /// buffered state stays <= max_line_bytes regardless of input.
  void feed(const char* data, std::size_t n);

  /// The wire error text for a rejection frame (kOversized / kEmbeddedNul):
  /// "rmt.request/1: line exceeds <cap> bytes (got N)" or
  /// "rmt.request/1: line contains a NUL byte (N bytes)".
  std::string reject_message(const Frame& f) const;

  /// Pop the next complete frame; false when the stream has no complete
  /// line yet (a partial line may still be buffered — see mid_line()).
  bool next(Frame& out);

  /// True when bytes of an unterminated line are pending — a half-open
  /// disconnect mid-line leaves this set, and the server logs the drop.
  bool mid_line() const { return !buf_.empty() || discarding_; }

  std::size_t buffered_bytes() const { return buf_.size(); }
  std::size_t max_line_bytes() const { return max_line_bytes_; }

 private:
  void append(const char* data, std::size_t n);  ///< bytes of the current line
  void complete_line();

  std::size_t max_line_bytes_;
  std::string buf_;            ///< the current partial line (<= cap)
  bool discarding_ = false;    ///< past the cap: count, don't store
  bool saw_nul_ = false;
  std::size_t dropped_ = 0;    ///< bytes discarded from the current line
  std::deque<Frame> ready_;
};

}  // namespace rmt::net
