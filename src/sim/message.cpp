#include "sim/message.hpp"

#include <utility>

namespace rmt::sim {

namespace {

std::size_t claim_bytes(const Graph& view, const AdversaryStructure& local_z) {
  std::size_t bytes = view.num_nodes() * sizeof(NodeId) + view.num_edges() * 2 * sizeof(NodeId);
  for (const NodeSet& s : local_z.maximal_sets()) bytes += (s.size() + 1) * sizeof(NodeId);
  return bytes;
}

}  // namespace

Trail::Trail(const NodeId* first, std::size_t count, std::size_t room) : size_(count) {
  if (count + room == 0) return;
  nodes_ = std::make_shared<NodeId[]>(count + room);
  std::copy(first, first + count, nodes_.get());
}

Trail::Trail(const Path& p) : Trail(p.data(), p.size(), 0) {}

Trail::Trail(std::initializer_list<NodeId> nodes) : Trail(nodes.begin(), nodes.size(), 0) {}

Trail Trail::extended(NodeId v) const {
  Trail t(begin(), size_, 1);
  t.nodes_[t.size_++] = v;
  return t;
}

Path Trail::path_to(NodeId v) const {
  Path p;
  p.reserve(size_ + 1);
  p.assign(begin(), end());
  p.push_back(v);
  return p;
}

KnowledgeClaim::KnowledgeClaim(Graph v, AdversaryStructure z)
    : view(std::move(v)), local_z(std::move(z)), bytes(claim_bytes(view, local_z)) {}

KnowledgePayload::KnowledgePayload(NodeId u, Graph view, AdversaryStructure local_z, Trail p)
    : subject(u),
      claim(std::make_shared<const KnowledgeClaim>(std::move(view), std::move(local_z))),
      trail(std::move(p)) {}

std::size_t payload_bytes(const Payload& p) {
  struct Sizer {
    std::size_t operator()(const ValuePayload&) const { return sizeof(Value); }
    std::size_t operator()(const PathValuePayload& m) const {
      return sizeof(Value) + m.trail.size() * sizeof(NodeId);
    }
    std::size_t operator()(const KnowledgePayload& m) const {
      return sizeof(NodeId) + m.trail.size() * sizeof(NodeId) + m.claim->bytes;
    }
  };
  return std::visit(Sizer{}, p);
}

std::string payload_to_string(const Payload& p) {
  struct Printer {
    std::string operator()(const ValuePayload& m) const {
      return "value(" + std::to_string(m.x) + ")";
    }
    std::string operator()(const PathValuePayload& m) const {
      return "type1(x=" + std::to_string(m.x) + ", p=" + path_to_string(m.trail.path()) + ")";
    }
    std::string operator()(const KnowledgePayload& m) const {
      return "type2(u=" + std::to_string(m.subject) + ", p=" + path_to_string(m.trail.path()) + ")";
    }
  };
  return std::visit(Printer{}, p);
}

}  // namespace rmt::sim
