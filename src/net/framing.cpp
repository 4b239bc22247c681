#include "net/framing.hpp"

#include <cstring>

#include "util/check.hpp"

namespace rmt::net {

LineFramer::LineFramer(std::size_t max_line_bytes) : max_line_bytes_(max_line_bytes) {
  RMT_REQUIRE(max_line_bytes > 0, "LineFramer: max_line_bytes must be positive");
}

void LineFramer::complete_line() {
  Frame f;
  if (discarding_) {
    f.kind = Kind::kOversized;
    f.line_bytes = buf_.size() + dropped_;
  } else if (saw_nul_) {
    f.kind = Kind::kEmbeddedNul;
    f.line_bytes = buf_.size();
  } else {
    // Tolerate CRLF clients: one trailing '\r' belongs to the terminator,
    // not the payload (a bare '\r' anywhere else is payload and will fail
    // JSON parsing on its own merits).
    if (!buf_.empty() && buf_.back() == '\r') buf_.pop_back();
    f.kind = Kind::kLine;
    f.line_bytes = buf_.size();
    f.line = std::move(buf_);
  }
  ready_.push_back(std::move(f));
  buf_.clear();
  discarding_ = false;
  saw_nul_ = false;
  dropped_ = 0;
}

void LineFramer::append(const char* data, std::size_t n) {
  if (discarding_) {
    dropped_ += n;
    return;
  }
  if (n > max_line_bytes_ - buf_.size()) {
    // Past the cap: remember how much we had, then stop storing. The
    // buffered prefix is dropped too — an oversized line is rejected
    // whole, never half-parsed.
    dropped_ = buf_.size() + n;
    buf_.clear();
    buf_.shrink_to_fit();
    discarding_ = true;
    return;
  }
  if (!saw_nul_ && std::memchr(data, '\0', n) != nullptr) saw_nul_ = true;
  buf_.append(data, n);
}

void LineFramer::feed(const char* data, std::size_t n) {
  const char* const end = data + n;
  while (data != end) {
    const auto* nl = static_cast<const char*>(std::memchr(data, '\n', std::size_t(end - data)));
    if (nl == nullptr) {
      append(data, std::size_t(end - data));
      return;
    }
    append(data, std::size_t(nl - data));
    complete_line();
    data = nl + 1;
  }
}

std::string LineFramer::reject_message(const Frame& f) const {
  if (f.kind == Kind::kOversized)
    return "rmt.request/1: line exceeds " + std::to_string(max_line_bytes_) + " bytes (got " +
           std::to_string(f.line_bytes) + ")";
  return "rmt.request/1: line contains a NUL byte (" + std::to_string(f.line_bytes) + " bytes)";
}

bool LineFramer::next(Frame& out) {
  if (ready_.empty()) return false;
  out = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

}  // namespace rmt::net
