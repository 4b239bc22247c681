// store/store.cpp — the only translation unit in the library allowed to
// touch raw POSIX file I/O (tools/rmt_lint.py's io-discipline rule fences
// open/pread/pwrite/fsync/rename/unlink here): everything below is the
// crash-safety story, and crash safety is exactly the property iostream
// buffering hides.
#include "store/store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "util/audit.hpp"

namespace rmt::store {

namespace {

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw std::invalid_argument("store: " + what + " '" + path + "': " + std::strerror(errno));
}

/// write(2) the whole buffer (appending fd), retrying short writes.
void write_all(int fd, const char* data, std::size_t size, const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write to", path);
    }
    done += std::size_t(n);
  }
}

/// Read the entire file behind `fd` (size from fstat) into a string.
std::string read_all(int fd, const std::string& path) {
  struct stat st{};
  if (::fstat(fd, &st) != 0) throw_errno("stat", path);
  std::string out;
  out.resize(std::size_t(st.st_size));
  std::size_t done = 0;
  while (done < out.size()) {
    const ssize_t n = ::pread(fd, out.data() + done, out.size() - done, off_t(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("read", path);
    }
    if (n == 0) {  // shrank underneath us; trust what we got
      out.resize(done);
      break;
    }
    done += std::size_t(n);
  }
  return out;
}

void fsync_or_throw(int fd, const std::string& path) {
  if (::fsync(fd) != 0) throw_errno("fsync", path);
}

/// fsync the directory so a freshly created/renamed store.log is durable.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;  // best-effort (some filesystems refuse)
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

Store::Store(Options opts) : opts_(std::move(opts)) {
  RMT_REQUIRE(!opts_.dir.empty(), "store::Store: empty directory");
  RMT_REQUIRE(opts_.compact_dead_ratio > 0.0 && opts_.compact_dead_ratio <= 1.0,
              "store::Store: compact_dead_ratio outside (0, 1]");
  if (::mkdir(opts_.dir.c_str(), 0755) != 0 && errno != EEXIST)
    throw_errno("create directory", opts_.dir);
  path_ = opts_.dir + "/store.log";
  // O_APPEND: every write(2) lands at EOF regardless of where the fd was
  // left (a freshly opened fd sits at 0 — without this, the first append
  // after a reopen would overwrite the identity header).
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) throw_errno("open", path_);
  try {
    std::lock_guard<std::mutex> lock(m_);
    load_locked();
    maybe_compact_locked();
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

Store::~Store() {
  if (fd_ >= 0) ::close(fd_);
}

void Store::load_locked() {
  RMT_PHASE("store.load");
  std::string image = read_all(fd_, path_);
  if (image.empty()) {
    // Fresh store: durable identity line before the first record.
    const std::string header = header_line(0);
    write_all(fd_, header.data(), header.size(), path_);
    fsync_or_throw(fd_, path_);
    fsync_dir(opts_.dir);
    generation_ = 0;
    header_size_ = header.size();
    total_bytes_ = header.size();
    live_bytes_ = header.size();
    record_count_ = 0;
    next_seq_ = 0;
    return;
  }
  // scan_bytes throws std::invalid_argument on a hostile identity line —
  // propagate: a file that is not ours is rejected, never overwritten.
  const ScanResult scan = scan_bytes(image);
  RMT_AUDIT_VALIDATE(scan, image);
  if (scan.torn) {
    // Torn-tail repair, the manifest way: drop the unusable suffix so the
    // next append starts from a clean frame boundary.
    if (::ftruncate(fd_, off_t(scan.valid_prefix)) != 0) throw_errno("truncate", path_);
    fsync_or_throw(fd_, path_);
    ++counters_.repairs;
  }
  generation_ = scan.generation;
  header_size_ = scan.header_size;
  total_bytes_ = scan.valid_prefix;
  record_count_ = scan.records.size();
  index_.clear();
  for (const RecordRef& r : scan.records) {
    next_seq_ = std::max(next_seq_, r.seq + 1);
    Entry e;
    e.offset = r.offset;
    e.size = r.size;
    e.value_len = r.value_len;
    e.seq = r.seq;
    const auto it = index_.find(r.key);
    // File order breaks seq ties: a later identical seq wins, matching
    // the order the records were appended.
    if (it == index_.end() || r.seq >= it->second.seq)
      index_[r.key] = e;
  }
  live_bytes_ = header_size_;
  for (const auto& [key, e] : index_) live_bytes_ += e.size;
}

std::optional<std::string> Store::read_value_locked(const Entry& e, const std::string& key) {
  std::string frame;
  frame.resize(e.size);
  std::size_t done = 0;
  while (done < frame.size()) {
    const ssize_t n = ::pread(fd_, frame.data() + done, frame.size() - done,
                              off_t(e.offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      ++counters_.read_errors;
      return std::nullopt;
    }
    if (n == 0) {
      ++counters_.read_errors;
      return std::nullopt;
    }
    done += std::size_t(n);
  }
  // Re-verify the full frame on every read: a flipped bit anywhere in the
  // record turns this get into a miss, never into a wrong byte.
  if (frame.size() < kRecordHeaderSize + key.size()) {
    ++counters_.read_errors;
    return std::nullopt;
  }
  const std::uint32_t key_len = detail::get_u32(frame, 0);
  const std::uint32_t value_len = detail::get_u32(frame, 4);
  const std::uint64_t seq = detail::get_u64(frame, 8);
  const std::uint64_t checksum = detail::get_u64(frame, 16);
  if (key_len != key.size() || value_len != e.value_len || seq != e.seq ||
      frame.compare(kRecordHeaderSize, key.size(), key) != 0) {
    ++counters_.read_errors;
    return std::nullopt;
  }
  std::string value = frame.substr(kRecordHeaderSize + key.size());
  if (record_checksum(key, value, seq) != checksum) {
    ++counters_.read_errors;
    return std::nullopt;
  }
  return value;
}

std::optional<std::string> Store::get(const std::string& key) {
  std::lock_guard<std::mutex> lock(m_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++counters_.misses;
    return std::nullopt;
  }
  std::optional<std::string> value = read_value_locked(it->second, key);
  if (!value) {
    // Poisoned on disk: forget the entry so future gets miss cheaply and
    // compaction drops the bytes.
    live_bytes_ -= it->second.size;
    index_.erase(it);
    ++counters_.misses;
    return std::nullopt;
  }
  ++counters_.hits;
  return value;
}

void Store::append_locked(const std::string& key, const std::string& value) {
  RMT_PHASE("store.append");
  const std::string frame = encode_record(key, value, next_seq_);
  write_all(fd_, frame.data(), frame.size(), path_);
  if (opts_.fsync_each_append) fsync_or_throw(fd_, path_);
  Entry e;
  e.offset = total_bytes_;
  e.size = frame.size();
  e.value_len = value.size();
  e.seq = next_seq_;
  ++next_seq_;
  if (const auto it = index_.find(key); it != index_.end()) live_bytes_ -= it->second.size;
  index_[key] = e;
  total_bytes_ += frame.size();
  live_bytes_ += frame.size();
  ++record_count_;
  ++counters_.appends;
}

void Store::put(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(m_);
  if (const auto it = index_.find(key); it != index_.end()) {
    // Absorb identical rewrites (the common write-back after a disk hit
    // warmed the memory tier) without growing the log.
    if (it->second.value_len == value.size()) {
      const std::optional<std::string> current = read_value_locked(it->second, key);
      if (current && *current == value) return;
    }
  }
  append_locked(key, value);
  maybe_compact_locked();
}

void Store::flush() {
  std::lock_guard<std::mutex> lock(m_);
  fsync_or_throw(fd_, path_);
}

void Store::compact() {
  std::lock_guard<std::mutex> lock(m_);
  compact_locked();
}

void Store::maybe_compact_locked() {
  const std::uint64_t dead = total_bytes_ - live_bytes_;
  const bool ratio_hit = dead >= opts_.compact_min_dead_bytes &&
                         double(dead) > opts_.compact_dead_ratio * double(total_bytes_);
  const bool over_budget = opts_.max_bytes > 0 && total_bytes_ > opts_.max_bytes;
  if (ratio_hit || over_budget) compact_locked();
}

void Store::compact_locked() {
  RMT_PHASE("store.compact");
  // Live records in seq order, so the rewritten log replays the history
  // of surviving writes.
  std::vector<std::pair<std::string, Entry>> live(index_.begin(), index_.end());
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.second.seq < b.second.seq; });

  // Budget enforcement happens here, not on the append path: evict
  // lowest-seq (oldest surviving) records until the live set fits.
  if (opts_.max_bytes > 0) {
    std::uint64_t live_total = header_size_;
    for (const auto& [key, e] : live) live_total += e.size;
    std::size_t first = 0;
    while (first < live.size() && live_total > opts_.max_bytes) {
      live_total -= live[first].second.size;
      ++counters_.evictions;
      ++first;
    }
    live.erase(live.begin(), live.begin() + std::ptrdiff_t(first));
  }

  const std::string tmp_path = path_ + ".tmp";
  const int tmp = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (tmp < 0) throw_errno("open", tmp_path);
  std::unordered_map<std::string, Entry> new_index;
  std::uint64_t new_total = 0;
  try {
    const std::string header = header_line(generation_ + 1);
    write_all(tmp, header.data(), header.size(), tmp_path);
    new_total = header.size();
    for (auto& [key, e] : live) {
      const std::optional<std::string> value = read_value_locked(e, key);
      if (!value) continue;  // bit rot discovered during rewrite: drop it
      const std::string frame = encode_record(key, *value, e.seq);
      write_all(tmp, frame.data(), frame.size(), tmp_path);
      Entry ne = e;
      ne.offset = new_total;
      new_index[key] = ne;
      new_total += frame.size();
    }
    fsync_or_throw(tmp, tmp_path);
  } catch (...) {
    ::close(tmp);
    ::unlink(tmp_path.c_str());
    throw;
  }
  ::close(tmp);
  // Atomic cutover: rename, fsync the directory, reopen the new inode.
  if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    throw_errno("rename", tmp_path);
  }
  fsync_dir(opts_.dir);
  const int nfd = ::open(path_.c_str(), O_RDWR | O_APPEND, 0644);
  if (nfd < 0) throw_errno("reopen", path_);
  ::close(fd_);
  fd_ = nfd;
  ++generation_;
  header_size_ = header_line(generation_).size();
  index_ = std::move(new_index);
  record_count_ = index_.size();
  total_bytes_ = new_total;
  live_bytes_ = new_total;
  ++counters_.compactions;
}

Stats Store::stats() const {
  std::lock_guard<std::mutex> lock(m_);
  Stats out = counters_;
  out.records = record_count_;
  out.live_records = index_.size();
  out.bytes = total_bytes_;
  out.live_bytes = live_bytes_;
  out.generation = generation_;
  return out;
}

void Store::publish_stats() {
  if (!obs::enabled()) return;
  const Stats now = stats();
  std::lock_guard<std::mutex> lock(m_);
  obs::Registry& reg = obs::Registry::global();
  reg.counter("store.hits").inc(now.hits - published_.hits);
  reg.counter("store.misses").inc(now.misses - published_.misses);
  reg.counter("store.appends").inc(now.appends - published_.appends);
  reg.counter("store.read_errors").inc(now.read_errors - published_.read_errors);
  reg.counter("store.compactions").inc(now.compactions - published_.compactions);
  reg.counter("store.evictions").inc(now.evictions - published_.evictions);
  reg.counter("store.repairs").inc(now.repairs - published_.repairs);
  reg.counter("store.merged").inc(now.merged - published_.merged);
  reg.gauge("store.records").set(double(now.records));
  reg.gauge("store.live_records").set(double(now.live_records));
  reg.gauge("store.bytes").set(double(now.bytes));
  reg.gauge("store.live_bytes").set(double(now.live_bytes));
  reg.gauge("store.generation").set(double(now.generation));
  published_ = now;
}

MergeReport merge(Store& dst, const std::string& src_dir) {
  const std::string src_path = src_dir + "/store.log";
  const int fd = ::open(src_path.c_str(), O_RDONLY);
  if (fd < 0) throw_errno("open", src_path);
  std::string image;
  try {
    image = read_all(fd, src_path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  // Hostile source headers throw std::invalid_argument out of here; a
  // torn source tail is merely ignored (the source is never modified).
  const ScanResult scan = scan_bytes(image);
  RMT_AUDIT_VALIDATE(scan, image);

  // Last-writer-wins within the source log before any comparison.
  std::unordered_map<std::string, const RecordRef*> live;
  for (const RecordRef& r : scan.records) {
    const auto it = live.find(r.key);
    if (it == live.end() || r.seq >= it->second->seq) live[r.key] = &r;
  }

  MergeReport report;
  for (const auto& [key, ref] : live) {
    ++report.scanned;
    const std::string value(image.substr(ref->value_offset, ref->value_len));
    std::lock_guard<std::mutex> lock(dst.m_);
    const auto it = dst.index_.find(key);
    if (it != dst.index_.end()) {
      const std::optional<std::string> have = dst.read_value_locked(it->second, key);
      if (have && *have == value) {
        ++report.skipped_equal;
        continue;
      }
      if (have) {
        // Results are pure functions of the key: two stores disagreeing
        // on the bytes means one of them is corrupt or lying. Refuse.
        throw std::runtime_error("store: merge divergence on key '" + key + "': destination has " +
                                 std::to_string(have->size()) + " bytes, source has " +
                                 std::to_string(value.size()) + " differing bytes");
      }
      // Destination record rotted (read_value dropped it): take the
      // source's copy below.
    }
    dst.append_locked(key, value);
    ++dst.counters_.merged;
    ++report.appended;
  }
  {
    std::lock_guard<std::mutex> lock(dst.m_);
    dst.maybe_compact_locked();
    fsync_or_throw(dst.fd_, dst.path_);
  }
  return report;
}

}  // namespace rmt::store

namespace rmt::audit {

void validate(const store::Store& s) {
  const char* component = "store";
  std::lock_guard<std::mutex> lock(s.m_);
  const std::string image = [&] {
    struct stat st{};
    if (::fstat(s.fd_, &st) != 0) detail::fail(component, "store file unreadable");
    std::string out(std::size_t(st.st_size), '\0');
    std::size_t done = 0;
    while (done < out.size()) {
      const ssize_t n = ::pread(s.fd_, out.data() + done, out.size() - done, off_t(done));
      if (n <= 0) detail::fail(component, "store file read failed mid-audit");
      done += std::size_t(n);
    }
    return out;
  }();
  if (image.size() != s.total_bytes_)
    detail::fail(component, "byte ledger " + std::to_string(s.total_bytes_) +
                                " disagrees with file size " + std::to_string(image.size()));
  store::ScanResult scan;
  try {
    scan = store::scan_bytes(image);
  } catch (const std::invalid_argument& e) {
    detail::fail(component, std::string("live store fails its own identity check: ") + e.what());
  }
  validate(scan, image);
  if (scan.torn) detail::fail(component, "live store carries a torn tail");
  if (scan.generation != s.generation_)
    detail::fail(component, "generation ledger disagrees with the header");
  // The index must be exactly the newest record per key.
  std::unordered_map<std::string, const store::RecordRef*> newest;
  for (const store::RecordRef& r : scan.records) {
    const auto it = newest.find(r.key);
    if (it == newest.end() || r.seq >= it->second->seq) newest[r.key] = &r;
  }
  if (newest.size() != s.index_.size())
    detail::fail(component, "index size disagrees with the log's live set");
  std::uint64_t live_bytes = s.header_size_;
  for (const auto& [key, e] : s.index_) {
    const auto it = newest.find(key);
    if (it == newest.end()) detail::fail(component, "index key absent from the log");
    if (it->second->offset != e.offset || it->second->size != e.size ||
        it->second->seq != e.seq)
      detail::fail(component, "index entry disagrees with the newest record for its key");
    if (e.seq >= s.next_seq_) detail::fail(component, "index seq at or past next_seq");
    live_bytes += e.size;
  }
  if (live_bytes != s.live_bytes_)
    detail::fail(component, "live byte ledger disagrees with the index");
  detail::passed(component);
}

}  // namespace rmt::audit
