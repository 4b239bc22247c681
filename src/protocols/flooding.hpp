// protocols/flooding.hpp — the trail-stamped relay rule shared by the
// path-propagation protocols (PPA and RMT-PKA type-1/type-2 handling).
//
// Protocol 1's relay rule, verbatim: upon reception of (a, p) from node u,
//   if (v ∈ p) ∨ (tail(p) ≠ u) then discard, else send (a, p‖v) to all
//   neighbours.
// The tail check is the linchpin of safety (footnote 1): because channels
// are authenticated, a message whose trail does not end at its true sender
// is dropped by the first honest hop — hence any trail that survives to
// the receiver and is not entirely honest must *name* a corrupted node.
//
// Duplicate suppression is an implementation addition the paper's model
// makes implicitly (each honest node sends each message once); we enforce
// it against adversarial replays. The replay key is a payload's value (or
// subject) and trail; a type-2 payload's claim block is compared, by
// address and then by contents, only when that key repeats. So two
// payloads collide iff they are equal, and no claim is ever serialized.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <variant>
#include <vector>

#include "sim/message.hpp"

namespace rmt::protocols {

class TrailRelay {
 public:
  explicit TrailRelay(NodeId self) : self_(self) {}

  /// Returns true iff the trail is well-formed for a message received by
  /// `self_` from `from`: non-empty, ends at `from`, does not contain self.
  bool admissible(const sim::Trail& trail, NodeId from) const {
    if (trail.empty() || trail.back() != from) return false;
    for (NodeId v : trail)
      if (v == self_) return false;
    return true;
  }

  /// Process one incoming trailed message; if admissible and not a replay,
  /// emit relayed copies (trail extended by self) to every neighbor. The
  /// copies share one extended trail, and a type-2 claim block.
  template <typename PayloadT>
  void relay(const sim::Message& m, const PayloadT& body, const NodeSet& neighbors,
             std::vector<sim::Message>& out) {
    if (!admissible(body.trail, m.from)) return;
    if (!seen_.insert(m.payload).second) return;
    PayloadT next = body;
    next.trail = body.trail.extended(self_);
    neighbors.for_each([&](NodeId u) {
      sim::Message copy;
      copy.from = self_;
      copy.to = u;
      copy.payload = next;
      out.push_back(std::move(copy));
    });
  }

 private:
  /// Hashes only a payload's key, its value (or subject) and its trail, so
  /// unordered_set compares two claim blocks only when their keys repeat.
  struct KeyHash {
    static std::size_t key(std::uint64_t head, const sim::Trail& trail) {
      std::uint64_t h = head * 0x9E3779B97F4A7C15ull;
      for (const NodeId v : trail) h = (h ^ v) * 0x100000001B3ull;
      return std::size_t(h);
    }
    std::size_t operator()(const sim::Payload& p) const {
      if (const auto* t1 = std::get_if<sim::PathValuePayload>(&p)) return key(t1->x, t1->trail);
      if (const auto* t2 = std::get_if<sim::KnowledgePayload>(&p))
        return key(t2->subject, t2->trail);
      return key(std::get<sim::ValuePayload>(p).x, {});
    }
  };

  NodeId self_;
  std::unordered_set<sim::Payload, KeyHash> seen_;  ///< every payload relayed
};

}  // namespace rmt::protocols
