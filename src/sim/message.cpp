#include "sim/message.hpp"

#include <utility>

namespace rmt::sim {

KnowledgePayload::KnowledgePayload(NodeId u, Graph view, AdversaryStructure local_z, Path p)
    : subject(u),
      claim(std::make_shared<const KnowledgeClaim>(
          KnowledgeClaim{std::move(view), std::move(local_z)})),
      trail(std::move(p)) {}

std::size_t payload_bytes(const Payload& p) {
  struct Sizer {
    std::size_t operator()(const ValuePayload&) const { return sizeof(Value); }
    std::size_t operator()(const PathValuePayload& m) const {
      return sizeof(Value) + m.trail.size() * sizeof(NodeId);
    }
    std::size_t operator()(const KnowledgePayload& m) const {
      std::size_t bytes = sizeof(NodeId) + m.trail.size() * sizeof(NodeId);
      bytes += m.view().num_nodes() * sizeof(NodeId) + m.view().num_edges() * 2 * sizeof(NodeId);
      for (const NodeSet& s : m.local_z().maximal_sets())
        bytes += (s.size() + 1) * sizeof(NodeId);
      return bytes;
    }
  };
  return std::visit(Sizer{}, p);
}

namespace {

// payload_serialize's encoding: a kind tag, then unsigned LEB128 varints,
// every list prefixed with its length. Each varint and each list is
// self-delimiting, so the bytes determine the payload and distinct
// payloads never share an encoding.

void append_varint(std::string& s, std::uint64_t v) {
  while (v >= 0x80) {
    s += static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  s += static_cast<char>(v);
}

void append_path(std::string& s, const Path& p) {
  append_varint(s, p.size());
  for (NodeId v : p) append_varint(s, v);
}

void append_set(std::string& s, const NodeSet& set) {
  append_varint(s, set.size());
  set.for_each([&](NodeId v) { append_varint(s, v); });
}

/// Nodes, then the edge count and each edge {v, u} with v < u, in
/// ascending order (Graph equality is node- and edge-set equality).
void append_graph(std::string& s, const Graph& g) {
  append_set(s, g.nodes());
  append_varint(s, g.num_edges());
  g.nodes().for_each([&](NodeId v) {
    g.neighbors(v).for_each([&](NodeId u) {
      if (v >= u) return;
      append_varint(s, v);
      append_varint(s, u);
    });
  });
}

/// The canonical antichain (structure equality is antichain equality).
void append_structure(std::string& s, const AdversaryStructure& z) {
  append_varint(s, z.maximal_sets().size());
  for (const NodeSet& m : z.maximal_sets()) append_set(s, m);
}

}  // namespace

std::string payload_serialize(const Payload& p) {
  struct Ser {
    std::string operator()(const ValuePayload& m) const {
      std::string s = "V";
      append_varint(s, m.x);
      return s;
    }
    std::string operator()(const PathValuePayload& m) const {
      std::string s = "1";
      append_varint(s, m.x);
      append_path(s, m.trail);
      return s;
    }
    std::string operator()(const KnowledgePayload& m) const {
      std::string s = "2";
      append_varint(s, m.subject);
      append_graph(s, m.view());
      append_structure(s, m.local_z());
      append_path(s, m.trail);
      return s;
    }
  };
  return std::visit(Ser{}, p);
}

std::string payload_to_string(const Payload& p) {
  struct Printer {
    std::string operator()(const ValuePayload& m) const {
      return "value(" + std::to_string(m.x) + ")";
    }
    std::string operator()(const PathValuePayload& m) const {
      return "type1(x=" + std::to_string(m.x) + ", p=" + path_to_string(m.trail) + ")";
    }
    std::string operator()(const KnowledgePayload& m) const {
      return "type2(u=" + std::to_string(m.subject) + ", p=" + path_to_string(m.trail) + ")";
    }
  };
  return std::visit(Printer{}, p);
}

}  // namespace rmt::sim
