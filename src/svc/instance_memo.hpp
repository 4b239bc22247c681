// svc/instance_memo.hpp — the exact raw-text → key memo in front of the
// instance parser, and the instance handle a Request carries.
//
// Every served answer is a pure function of the canonical instance, so a
// warm request only needs its instance *key*: the result cache is keyed by
// it. Deriving that key from the request's text costs a full parse and a
// streamed FNV-1a pass over the canonical text — about 22 µs for a 2.4 KB
// `cold_mix` text of partial-knowledge views and `corruptible` lines,
// against a sub-µs cache lookup. InstanceMemo remembers, for every text
// that parsed, the key its instance has; a repeated text then costs one
// std::hash and one byte compare, and builds no Instance at all. A miss
// hashes its text once, for both the lookup and the insert.
//
// What it stores, and why: text → InstanceKey, never text → Instance. A
// parsed Instance takes 6–31× its text's size on the heap, and handing one
// out would mean a deep copy per hit. The text is kept once, shared with
// the handles that carry it, so a hit copies no bytes.
//
// Exactness: an entry matches only a text equal to it byte for byte (the
// index compares full std::string_view keys; the hash only picks the
// bucket). A text that differs in one byte is a miss and is parsed — it
// may be invalid, or a different instance. Only texts that parsed are
// inserted, so a bad text is re-parsed (and rejected with the parser's
// message) every time.
//
// Bound: an LRU over bytes (text + key per entry). svc::Engine sizes its
// memo at 1/64 of the result cache's budget; a text larger than the whole
// budget is never stored. Thread-safe: one mutex, never held while parsing.
//
// InstanceHandle is Request::instance. It holds either a built Instance, or
// the exact text and key of an instance the memo already parsed; the key is
// known without building anything, and get() — the one accessor — parses a
// text handle at most once (thread-safe) when some computation needs the
// Instance itself. svc::Engine calls it only when it computes an answer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "instance/instance.hpp"
#include "svc/instance_key.hpp"

namespace rmt::svc {

class InstanceHandle {
 public:
  /// A built instance; its key is derived on demand. Implicit, so
  /// `Request{kind, inst, params, deadline_ms, no_cache}` compiles as-is.
  InstanceHandle(Instance inst);
  /// A built instance whose key the caller already computed.
  InstanceHandle(Instance inst, InstanceKey key);
  /// The exact text of an instance that parsed before, and its key. The
  /// text is parsed only if get() is called.
  InstanceHandle(std::shared_ptr<const std::string> text, InstanceKey key);

  /// The instance. A text handle is parsed on first use, once, however
  /// many copies or threads ask. Copies share that state. The implicit
  /// conversion lets `const Instance& inst = req.instance` keep working.
  const Instance& get() const;
  operator const Instance&() const { return get(); }

  /// instance_key(get()) — without parsing or serializing when known.
  InstanceKey key() const;

  /// False while a text handle has not been parsed; true otherwise.
  bool parsed() const;

 private:
  struct State;
  std::shared_ptr<State> state_;
};

class InstanceMemo {
 public:
  explicit InstanceMemo(std::size_t max_bytes);
  virtual ~InstanceMemo() = default;
  InstanceMemo(const InstanceMemo&) = delete;
  InstanceMemo& operator=(const InstanceMemo&) = delete;
  InstanceMemo(InstanceMemo&&) = delete;
  InstanceMemo& operator=(InstanceMemo&&) = delete;

  /// The instance `text` denotes. A hit returns an unparsed text handle
  /// carrying the stored key. A miss runs io::parse_instance_string (its
  /// std::invalid_argument propagates, and nothing is stored), keys the
  /// instance, inserts the text, and returns the built instance with its
  /// key — so a miss computes the key once, for the memo and the engine.
  InstanceHandle resolve(const std::string& text);

  std::size_t max_bytes() const { return max_bytes_; }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;     ///< lookups that had to parse (failing texts too)
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;        ///< live text + key bytes
    std::size_t entries = 0;
  };
  Stats stats() const;

 protected:
  struct Entry {
    std::shared_ptr<const std::string> text;
    InstanceKey key;
    std::size_t hash = 0;  ///< std::hash of *text
  };
  /// The entry whose text equals `text` byte for byte, made most recent;
  /// `hash` is std::hash of `text`, computed once per resolve. Called
  /// under the memo's lock. Virtual only so that rmt_fuzz can inject an
  /// inexact memo and prove it is caught.
  virtual std::optional<Entry> find(std::string_view text, std::size_t hash);
  /// Store a copy of `text` → `key` (`hash` as for find), evicting least
  /// recently used entries to fit. Called under the memo's lock. The copy
  /// is sized to the text: the request DOM's own string would bring the
  /// JSON reader's growth slack, heap the byte budget does not count.
  virtual void insert(const std::string& text, std::size_t hash, InstanceKey key);

 private:
  static std::size_t entry_bytes(const std::string& text) {
    return text.size() + sizeof(InstanceKey);
  }

  /// An index key: a view into a stored text, with the text's hash kept
  /// so that neither a lookup nor an insert hashes the bytes again.
  struct Slot {
    std::string_view text;
    std::size_t hash;
    friend bool operator==(const Slot& a, const Slot& b) {
      return a.hash == b.hash && a.text == b.text;
    }
  };
  struct SlotHash {
    std::size_t operator()(const Slot& s) const { return s.hash; }
  };

  const std::size_t max_bytes_;
  mutable std::mutex m_;
  std::list<Entry> lru_;  ///< front = most recently used
  /// Views into the texts lru_ owns: each text is stored once.
  std::unordered_map<Slot, std::list<Entry>::iterator, SlotHash> index_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace rmt::svc
