#include "sim/strategies.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "knowledge/local_knowledge.hpp"

namespace rmt::sim {

std::vector<Message> SilentStrategy::act(const AdversaryView&) { return {}; }

ValueFlipStrategy::ValueFlipStrategy(Value offset) : offset_(offset == 0 ? 1 : offset) {}

std::vector<Message> ValueFlipStrategy::act(const AdversaryView& view) {
  // One burst in round 2 (after the dealer's round-1 injection, so the lie
  // competes with the truth in flight) is enough: honest protocols keep the
  // first value per neighbor / dedupe trails, so repetition adds nothing.
  if (view.round != 2) return {};
  const Value lie = view.dealer_value + offset_;
  const Graph& g = view.instance.graph();
  std::vector<Message> out;
  view.corrupted.for_each([&](NodeId c) {
    g.neighbors(c).for_each([&](NodeId u) {
      out.push_back({c, u, ValuePayload{lie}});
      // Type-1 dialect: claim the dealer handed the lie straight to c.
      out.push_back({c, u, PathValuePayload{lie, Path{view.instance.dealer(), c}}});
    });
  });
  return out;
}

RandomLieStrategy::RandomLieStrategy(Rng rng, std::size_t messages_per_round)
    : rng_(rng), per_round_(messages_per_round) {}

std::vector<Message> RandomLieStrategy::act(const AdversaryView& view) {
  const Graph& g = view.instance.graph();
  std::vector<Message> out;
  view.corrupted.for_each([&](NodeId c) {
    const std::vector<NodeId> nbrs = g.neighbors(c).to_vector();
    if (nbrs.empty()) return;
    for (std::size_t i = 0; i < per_round_; ++i) {
      const NodeId to = nbrs[rng_.index(nbrs.size())];
      switch (rng_.index(3)) {
        case 0:
          out.push_back({c, to, ValuePayload{rng_.uniform(0, 5)}});
          break;
        case 1: {
          // Forged trail through random (possibly fictitious) ids; must
          // end at c to pass the honest tail(p) check at all.
          Path p{view.instance.dealer()};
          const std::size_t hops = rng_.index(3);
          for (std::size_t h = 0; h < hops; ++h)
            p.push_back(NodeId(rng_.uniform(0, g.capacity() + 3)));
          p.push_back(c);
          out.push_back({c, to, PathValuePayload{rng_.uniform(0, 5), std::move(p)}});
          break;
        }
        case 2: {
          // Malformed knowledge report about a random subject.
          const NodeId subject = NodeId(rng_.uniform(0, g.capacity() + 3));
          Graph claimed;
          claimed.add_node(subject);
          const NodeId other = NodeId(rng_.uniform(0, g.capacity()));
          if (other != subject && rng_.chance(0.7)) claimed.add_edge(subject, other);
          KnowledgePayload k{subject, std::move(claimed), AdversaryStructure::trivial(),
                             Path{subject, c}};
          out.push_back({c, to, std::move(k)});
          break;
        }
      }
    }
  });
  return out;
}

FictitiousWorldStrategy::FictitiousWorldStrategy(Value wrong_offset, std::size_t phantom_count)
    : offset_(wrong_offset == 0 ? 1 : wrong_offset), phantoms_(std::max<std::size_t>(1, phantom_count)) {}

std::vector<Message> FictitiousWorldStrategy::act(const AdversaryView& view) {
  if (!built_) {
    built_ = true;
    const Graph& g = view.instance.graph();
    const NodeId d = view.instance.dealer();
    const Value lie = view.dealer_value + offset_;
    // Phantom chain D — q₁ — q₂ — ... — q_k — c, fabricated per corrupted
    // node, with per-phantom views that corroborate the chain and trivial
    // claimed local structures ("nobody around me can be corrupted").
    view.corrupted.for_each([&](NodeId c) {
      std::vector<NodeId> chain{d};
      for (std::size_t i = 0; i < phantoms_; ++i)
        chain.push_back(NodeId(g.capacity() + c * phantoms_ + i));
      chain.push_back(c);

      // The fabricated world graph: the chain plus c's real star (so the
      // lie embeds seamlessly into honest reports around c).
      Graph world;
      for (std::size_t i = 0; i + 1 < chain.size(); ++i) world.add_edge(chain[i], chain[i + 1]);
      g.neighbors(c).for_each([&](NodeId u) { world.add_edge(c, u); });

      // Type-2 for each phantom: view = its chain segment, Z = trivial.
      // Each fabricated report is built once and shared by its copies.
      std::vector<KnowledgePayload> reports;
      for (std::size_t i = 1; i + 1 < chain.size(); ++i) {
        const NodeId q = chain[i];
        Graph q_view;
        q_view.add_edge(chain[i - 1], q);
        q_view.add_edge(q, chain[i + 1]);
        Path trail(chain.begin() + static_cast<std::ptrdiff_t>(i), chain.end());
        reports.push_back(KnowledgePayload{q, std::move(q_view), AdversaryStructure::trivial(),
                                           std::move(trail)});
      }
      // Type-2 for c itself: its real star plus the phantom link, and a
      // maximally dishonest "nothing can be corrupted here" structure.
      reports.push_back(
          KnowledgePayload{c, std::move(world), AdversaryStructure::trivial(), Path{c}});

      g.neighbors(c).for_each([&](NodeId u) {
        // Type-1: the lie travelled the whole phantom chain.
        script_.push_back({c, u, PathValuePayload{lie, chain}});
        for (const KnowledgePayload& k : reports) script_.push_back({c, u, k});
      });
    });
  }
  if (view.round == 2 && !script_.empty()) {
    return std::move(script_);
  }
  return {};
}

TwoFacedStrategy::TwoFacedStrategy(Value offset) : offset_(offset == 0 ? 1 : offset) {}

std::vector<Message> TwoFacedStrategy::act(const AdversaryView& view) {
  const Graph& g = view.instance.graph();
  const Value lie = view.dealer_value + offset_;
  std::vector<Message> out;

  // Round 1: behave exactly like honest Protocol-1 nodes — publish the
  // *true* initial knowledge. The consistent truth makes the later value
  // lie as hard to dismiss as possible.
  if (view.round == 1) {
    view.corrupted.for_each([&](NodeId c) {
      LocalKnowledge lk = view.instance.knowledge_of(c);
      const KnowledgePayload own{c, std::move(lk.view), std::move(lk.local_z), Path{c}};
      g.neighbors(c).for_each([&](NodeId u) { out.push_back({c, u, own}); });
    });
    return out;
  }

  // Later rounds: relay everything per the honest relay rule, except that
  // every value is replaced by the lie.
  for (const Message& m : view.corrupted_inbox) {
    const NodeId c = m.to;
    struct Relay {
      std::vector<Message>& out;
      const Graph& g;
      NodeId c;
      NodeId from;
      Value lie;
      void operator()(const ValuePayload&) const {
        g.neighbors(c).for_each([&](NodeId u) { out.push_back({c, u, ValuePayload{lie}}); });
      }
      void operator()(const PathValuePayload& p) const {
        if (std::find(p.trail.begin(), p.trail.end(), c) != p.trail.end()) return;
        if (p.trail.empty() || p.trail.back() != from) return;
        Path next = p.trail;
        next.push_back(c);
        g.neighbors(c).for_each(
            [&](NodeId u) { out.push_back({c, u, PathValuePayload{lie, next}}); });
      }
      void operator()(const KnowledgePayload& k) const {
        if (std::find(k.trail.begin(), k.trail.end(), c) != k.trail.end()) return;
        if (k.trail.empty() || k.trail.back() != from) return;
        KnowledgePayload next = k;
        next.trail.push_back(c);
        g.neighbors(c).for_each([&](NodeId u) { out.push_back({c, u, next}); });
      }
    };
    std::visit(Relay{out, g, c, m.from, lie}, m.payload);
  }
  return out;
}

std::unique_ptr<AdversaryStrategy> make_strategy(const std::string& name, std::uint64_t seed) {
  if (name == "silent") return std::make_unique<SilentStrategy>();
  if (name == "value-flip") return std::make_unique<ValueFlipStrategy>();
  if (name == "random-lies") return std::make_unique<RandomLieStrategy>(Rng{seed}, 4);
  if (name == "phantom-world") return std::make_unique<FictitiousWorldStrategy>();
  if (name == "two-faced") return std::make_unique<TwoFacedStrategy>();
  throw std::invalid_argument("unknown adversary strategy '" + name + "'");
}

}  // namespace rmt::sim
