// sim/message.hpp — the wire format of the simulated network.
//
// One payload variant covers every protocol in the repository, so the
// simulator, the adversary strategies, and the accounting stay protocol-
// agnostic:
//   * ValuePayload      — a bare candidate dealer value (CPA / Z-CPA).
//   * PathValuePayload  — RMT-PKA type-1: (x, p), a value with its
//                         propagation trail.
//   * KnowledgePayload  — RMT-PKA type-2: ((u, γ(u), Z_u), p), a node's
//                         initial knowledge with its trail.
// Honest protocol nodes simply ignore payload kinds they do not speak —
// the paper's "erroneous messages can be recognized and discarded".
//
// Channels are authenticated (§1.3): the simulator stamps `from` itself,
// so a Byzantine node can send arbitrary *content* but can never forge the
// immediate sender of a message. Forging the *trail inside* a payload is
// allowed — detecting that is the protocols' job (footnote 1: the
// tail(p) = sender check guarantees a forged trail names at least one
// corrupted node).
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "adversary/structure.hpp"
#include "graph/graph.hpp"
#include "graph/paths.hpp"

namespace rmt::sim {

/// The message space X. Wide enough for any experiment; protocols treat it
/// opaquely.
using Value = std::uint64_t;

/// A propagation trail p, immutable and shared: a relay builds p‖v once,
/// and every neighbour's copy of the relayed message holds the same block.
/// Compares by contents, never by block address.
class Trail {
 public:
  using value_type = NodeId;
  using const_iterator = const NodeId*;

  Trail() = default;
  Trail(const Path& p);  // implicit: every Path is a trail
  Trail(std::initializer_list<NodeId> nodes);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const NodeId* begin() const { return nodes_.get(); }
  const NodeId* end() const { return nodes_.get() + size_; }
  NodeId front() const { return nodes_[0]; }
  NodeId back() const { return nodes_[size_ - 1]; }

  /// p‖v, in a new block for every copy of the relayed message to share.
  Trail extended(NodeId v) const;
  /// p‖v as a plain path: the complete trail once v has received it.
  Path path_to(NodeId v) const;
  Path path() const { return Path(begin(), end()); }

  friend bool operator==(const Trail& a, const Trail& b) {
    return a.nodes_ == b.nodes_ ? a.size_ == b.size_
                                : std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const Trail& a, const Path& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  Trail(const NodeId* first, std::size_t count, std::size_t room);

  std::shared_ptr<NodeId[]> nodes_;
  std::size_t size_ = 0;
};

struct ValuePayload {
  Value x = 0;
  friend bool operator==(const ValuePayload&, const ValuePayload&) = default;
};

struct PathValuePayload {
  Value x = 0;
  Trail trail;  ///< propagation trail p, ending at the hop that sent this copy
  friend bool operator==(const PathValuePayload&, const PathValuePayload&) = default;
};

/// The claimed initial knowledge (γ(u), Z_u) of a type-2 report.
struct KnowledgeClaim {
  KnowledgeClaim(Graph v, AdversaryStructure z);

  Graph view;                  ///< claimed γ(u)
  AdversaryStructure local_z;  ///< claimed Z_u
  std::size_t bytes;           ///< payload_bytes' share for (view, local_z), counted once

  friend bool operator==(const KnowledgeClaim& a, const KnowledgeClaim& b) {
    return a.view == b.view && a.local_z == b.local_z;
  }
};

/// A type-2 report. Its claim lives in one immutable block: whoever
/// originates the report builds the block once, and every copy (one per
/// neighbour, one per relay hop) shares it, so a relay copies a pointer and
/// a trail, not a graph and a structure. Equality compares the block's
/// address first and its contents only when the addresses differ: equal
/// claims built twice compare equal, which keeps replay suppression exact
/// when the adversary rebuilds a block.
struct KnowledgePayload {
  /// Builds a fresh block holding (view, local_z); copies share it.
  KnowledgePayload(NodeId u, Graph view, AdversaryStructure local_z, Trail p);

  const Graph& view() const { return claim->view; }
  const AdversaryStructure& local_z() const { return claim->local_z; }

  NodeId subject = 0;  ///< the node u this report is about
  std::shared_ptr<const KnowledgeClaim> claim;
  Trail trail;

  friend bool operator==(const KnowledgePayload& a, const KnowledgePayload& b) {
    return a.subject == b.subject && a.trail == b.trail &&
           (a.claim == b.claim || *a.claim == *b.claim);
  }
};

using Payload = std::variant<ValuePayload, PathValuePayload, KnowledgePayload>;

// GCC 12 at -O3 does not tie the variant's index to the alternative its
// move constructed, so the std::swap temporary inside stable_sort's
// in-place rotate (Network::route) reads as "maybe uninitialized" when a
// Message holds a KnowledgePayload. A false positive that shows whenever
// the rotate is emitted out of line; suppressed for Message's implicit
// moves only (clang and the sanitizers see nothing).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
struct Message {
  NodeId from = 0;  ///< stamped by the network — trustworthy
  NodeId to = 0;
  Payload payload;
};
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

/// Approximate serialized size in bytes, for bit-complexity accounting.
std::size_t payload_bytes(const Payload& p);

std::string payload_to_string(const Payload& p);

}  // namespace rmt::sim
