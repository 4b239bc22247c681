#include "protocols/dolev.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "protocols/flooding.hpp"
#include "util/check.hpp"

namespace rmt::protocols {

namespace {

using sim::Message;
using sim::PathValuePayload;

/// Interior nodes of a D...R trail (endpoints excluded — every trail
/// shares them).
NodeSet interior(const Path& p) {
  NodeSet s;
  for (std::size_t i = 1; i + 1 < p.size(); ++i) s.insert(p[i]);
  return s;
}

bool pack(const std::vector<NodeSet>& interiors, std::size_t count, std::size_t from,
          const NodeSet& used, std::size_t& budget) {
  if (count == 0) return true;
  if (budget == 0) return false;
  for (std::size_t i = from; i + count <= interiors.size(); ++i) {
    if (budget == 0) return false;
    --budget;
    if (!interiors[i].intersects(used) &&
        pack(interiors, count - 1, i + 1, used | interiors[i], budget))
      return true;
  }
  return false;
}

}  // namespace

bool has_disjoint_trails(const std::vector<Path>& trails, std::size_t count,
                         std::size_t budget) {
  if (count == 0) return true;
  if (trails.size() < count) return false;
  std::vector<NodeSet> interiors;
  interiors.reserve(trails.size());
  for (const Path& p : trails) interiors.push_back(interior(p));
  // Greedy by ascending interior size first — catches the common case
  // (honest disjoint paths) immediately.
  std::sort(interiors.begin(), interiors.end(),
            [](const NodeSet& a, const NodeSet& b) { return a.size() < b.size(); });
  NodeSet used;
  std::size_t got = 0;
  for (const NodeSet& s : interiors) {
    if (!s.intersects(used)) {
      used |= s;
      if (++got >= count) return true;
    }
  }
  // Exhaustive (budgeted) fallback: greedy is not optimal for packing.
  return pack(interiors, count, 0, NodeSet{}, budget);
}

namespace {

class DolevNode final : public sim::ProtocolNode {
 public:
  DolevNode(const LocalKnowledge& lk, const PublicInfo& pub, std::size_t t,
            std::size_t max_trails)
      : self_(lk.self), pub_(pub), relay_(lk.self), t_(t), max_trails_(max_trails) {
    neighbors_ = lk.view.neighbors(self_);
  }

  std::vector<Message> on_start() override {
    if (self_ != pub_.dealer) return {};
    RMT_CHECK(pub_.dealer_value.has_value(), "dealer node without a value");
    decision_ = *pub_.dealer_value;
    std::vector<Message> out;
    neighbors_.for_each([&](NodeId u) {
      out.push_back({self_, u, PathValuePayload{*pub_.dealer_value, Path{self_}}});
    });
    return out;
  }

  std::vector<Message> on_round(std::size_t, const std::vector<Message>& inbox) override {
    if (self_ == pub_.dealer) return {};
    std::vector<Message> out;
    for (const Message& m : inbox) {
      const auto* t1 = std::get_if<PathValuePayload>(&m.payload);
      if (!t1) continue;
      if (self_ == pub_.receiver) {
        if (!relay_.admissible(t1->trail, m.from)) continue;
        // A direct dealer trail decides immediately (authenticated channel).
        if (m.from == pub_.dealer && t1->trail == Path{pub_.dealer}) {
          decision_ = t1->x;
          continue;
        }
        auto& pool = trails_[t1->x];
        if (pool.size() < max_trails_) {
          pool.push_back(t1->trail.path_to(self_));
        }
      } else {
        relay_.relay(m, *t1, neighbors_, out);
      }
    }
    if (self_ == pub_.receiver && !decision_) {
      for (const auto& [x, pool] : trails_) {
        if (has_disjoint_trails(pool, t_ + 1)) {
          decision_ = x;
          break;
        }
      }
    }
    return out;
  }

  std::optional<sim::Value> decision() const override { return decision_; }

 private:
  NodeId self_;
  PublicInfo pub_;
  NodeSet neighbors_;
  TrailRelay relay_;
  std::size_t t_;
  std::size_t max_trails_;
  std::map<sim::Value, std::vector<Path>> trails_;
  std::optional<sim::Value> decision_;
};

}  // namespace

Dolev::Dolev(std::size_t t, std::size_t max_trails) : t_(t), max_trails_(max_trails) {}

std::string Dolev::name() const { return "Dolev(t=" + std::to_string(t_) + ")"; }

std::unique_ptr<sim::ProtocolNode> Dolev::make_node(const LocalKnowledge& lk,
                                                    const PublicInfo& pub) const {
  return std::make_unique<DolevNode>(lk, pub, t_, max_trails_);
}

}  // namespace rmt::protocols
