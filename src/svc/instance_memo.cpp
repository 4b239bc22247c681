#include "svc/instance_memo.hpp"

#include <atomic>
#include <utility>

#include "io/serialize.hpp"

namespace rmt::svc {

struct InstanceHandle::State {
  std::shared_ptr<const std::string> text;  ///< null for a built handle
  std::optional<InstanceKey> key;
  std::once_flag once;
  std::optional<Instance> inst;
  std::atomic<bool> built{false};
};

InstanceHandle::InstanceHandle(Instance inst) : state_(std::make_shared<State>()) {
  state_->inst.emplace(std::move(inst));
  state_->built = true;
}

InstanceHandle::InstanceHandle(Instance inst, InstanceKey key) : InstanceHandle(std::move(inst)) {
  state_->key = key;
}

InstanceHandle::InstanceHandle(std::shared_ptr<const std::string> text, InstanceKey key)
    : state_(std::make_shared<State>()) {
  state_->text = std::move(text);
  state_->key = key;
}

const Instance& InstanceHandle::get() const {
  State& s = *state_;
  if (s.text) {
    std::call_once(s.once, [&s] {
      s.inst.emplace(io::parse_instance_string(*s.text));
      s.built = true;
    });
  }
  return *s.inst;
}

InstanceKey InstanceHandle::key() const {
  return state_->key ? *state_->key : instance_key(get());
}

bool InstanceHandle::parsed() const { return state_->built; }

InstanceMemo::InstanceMemo(std::size_t max_bytes) : max_bytes_(max_bytes) {}

InstanceHandle InstanceMemo::resolve(const std::string& text) {
  {
    std::lock_guard<std::mutex> lock(m_);
    if (std::optional<Entry> hit = find(text)) {
      ++hits_;
      return InstanceHandle(std::move(hit->text), hit->key);
    }
    ++misses_;
  }
  Instance inst = io::parse_instance_string(text);
  const InstanceKey key = instance_key(inst);
  {
    std::lock_guard<std::mutex> lock(m_);
    insert(text, key);
  }
  return InstanceHandle(std::move(inst), key);
}

std::optional<InstanceMemo::Entry> InstanceMemo::find(const std::string& text) {
  const auto it = index_.find(std::string_view(text));
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  return *it->second;
}

void InstanceMemo::insert(const std::string& text, InstanceKey key) {
  const std::size_t incoming = entry_bytes(text);
  if (incoming > max_bytes_) return;  // would evict everything for one text
  if (const auto it = index_.find(std::string_view(text)); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // a concurrent miss stored it first
    return;
  }
  while (bytes_ + incoming > max_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= entry_bytes(*victim.text);
    index_.erase(std::string_view(*victim.text));
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front(Entry{std::make_shared<const std::string>(text), key});
  index_.emplace(std::string_view(*lru_.front().text), lru_.begin());
  bytes_ += incoming;
}

InstanceMemo::Stats InstanceMemo::stats() const {
  std::lock_guard<std::mutex> lock(m_);
  return Stats{hits_, misses_, evictions_, bytes_, lru_.size()};
}

}  // namespace rmt::svc
