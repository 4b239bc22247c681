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

#include <cstdint>
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

struct ValuePayload {
  Value x = 0;
  friend bool operator==(const ValuePayload&, const ValuePayload&) = default;
};

struct PathValuePayload {
  Value x = 0;
  Path trail;  ///< propagation trail p, ending at the hop that sent this copy
  friend bool operator==(const PathValuePayload&, const PathValuePayload&) = default;
};

/// The claimed initial knowledge (γ(u), Z_u) of a type-2 report.
struct KnowledgeClaim {
  Graph view;                  ///< claimed γ(u)
  AdversaryStructure local_z;  ///< claimed Z_u
  friend bool operator==(const KnowledgeClaim&, const KnowledgeClaim&) = default;
};

/// A type-2 report. Its claim lives in one immutable block: whoever
/// originates the report builds the block once, and every copy (one per
/// neighbour, one per relay hop) shares it, so a relay copies a pointer and
/// a trail, not a graph and a structure. Equality and payload_serialize
/// read the contents, never the block's address: equal claims built twice
/// compare and serialize equal, which keeps replay suppression exact when
/// the adversary rebuilds a block.
struct KnowledgePayload {
  /// Builds a fresh block holding (view, local_z); copies share it.
  KnowledgePayload(NodeId u, Graph view, AdversaryStructure local_z, Path p);

  const Graph& view() const { return claim->view; }
  const AdversaryStructure& local_z() const { return claim->local_z; }

  NodeId subject = 0;  ///< the node u this report is about
  std::shared_ptr<const KnowledgeClaim> claim;
  Path trail;

  friend bool operator==(const KnowledgePayload& a, const KnowledgePayload& b) {
    return a.subject == b.subject && a.trail == b.trail &&
           (a.claim == b.claim || *a.claim == *b.claim);
  }
};

using Payload = std::variant<ValuePayload, PathValuePayload, KnowledgePayload>;

struct Message {
  NodeId from = 0;  ///< stamped by the network — trustworthy
  NodeId to = 0;
  Payload payload;
};

/// Approximate serialized size in bytes, for bit-complexity accounting.
std::size_t payload_bytes(const Payload& p);

/// Exact canonical serialization — two payloads serialize equal iff they
/// are equal: a kind tag, then length-prefixed varints (binary, not
/// text). Used for duplicate suppression in the flooding protocols (the
/// adversary may replay; honest nodes must not amplify replays).
std::string payload_serialize(const Payload& p);

std::string payload_to_string(const Payload& p);

}  // namespace rmt::sim
