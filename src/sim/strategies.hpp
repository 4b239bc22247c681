// sim/strategies.hpp — a suite of Byzantine behaviors.
//
// These exercise the attack capabilities the paper explicitly grants the
// adversary: blocking, rerouting and altering messages, "reporting
// fictitious topology and false local knowledge" (§1.2), and forging
// propagation trails (caught by the tail(p) check, footnote 1, which
// guarantees every forged trail names at least one corrupted node).
//
// The safety experiment (T4) runs every protocol against every strategy —
// the pass criterion is zero wrong receiver decisions, the operational
// form of Theorem 4.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/network.hpp"
#include "util/rng.hpp"

namespace rmt::sim {

/// Crash/block: corrupted nodes send nothing, ever. The pure *omission*
/// adversary — the minimum a Byzantine adversary can do, and already
/// enough to defeat protocols relying on a single relay path.
class SilentStrategy final : public AdversaryStrategy {
 public:
  std::vector<Message> act(const AdversaryView& view) override;
};

/// Flip-and-flood: corrupted nodes suppress everything they should relay
/// and instead flood a fixed wrong value to every neighbor, packaged for
/// every protocol dialect (bare value, type-1 with a locally-forged trail).
class ValueFlipStrategy final : public AdversaryStrategy {
 public:
  /// The injected value is dealer_value + offset (offset != 0).
  explicit ValueFlipStrategy(Value offset = 1);
  std::vector<Message> act(const AdversaryView& view) override;

 private:
  Value offset_;
};

/// Chaos: random payloads (random values, random forged trails, malformed
/// knowledge reports) to random neighbors. A fuzzer for the honest nodes'
/// input validation.
class RandomLieStrategy final : public AdversaryStrategy {
 public:
  explicit RandomLieStrategy(Rng rng, std::size_t messages_per_round = 4);
  std::vector<Message> act(const AdversaryView& view) override;

 private:
  Rng rng_;
  std::size_t per_round_;
};

/// The PKA-targeted attack of Theorem 4's hard case: corrupted nodes
/// fabricate a *consistent fictitious world* — invented nodes, invented
/// views for them, fabricated local structures, and type-1 trails routing
/// a wrong value through the invented region — trying to hand the receiver
/// a full message set M for the wrong value. Safety demands the receiver
/// always finds an adversary cover for such an M.
class FictitiousWorldStrategy final : public AdversaryStrategy {
 public:
  /// `phantom_count` invented nodes get ids above every real id.
  explicit FictitiousWorldStrategy(Value wrong_offset = 1, std::size_t phantom_count = 2);
  std::vector<Message> act(const AdversaryView& view) override;

 private:
  Value offset_;
  std::size_t phantoms_;
  bool built_ = false;
  std::vector<Message> script_;  // the round-1 injection, replayed in slices
};

/// Two-faced relay: corrupted nodes *follow the protocols' relay rules*
/// but for the wrong value — they echo honest type-2 knowledge truthfully
/// (making the lie maximally consistent) while converting every value
/// payload they relay to x_D + offset. This is the simulator counterpart
/// of the indistinguishable-runs construction in the proofs of Thms 3/8.
class TwoFacedStrategy final : public AdversaryStrategy {
 public:
  explicit TwoFacedStrategy(Value offset = 1);
  std::vector<Message> act(const AdversaryView& view) override;

 private:
  Value offset_;
};

/// A fresh strategy by name (strategies are stateful per run): "silent",
/// "value-flip", "random-lies" (seeded by `seed`, 4 lies per round),
/// "phantom-world" or "two-faced". Unknown names throw
/// std::invalid_argument("unknown adversary strategy '<name>'") — a typo
/// must fail loudly, not silently run a different attack.
std::unique_ptr<AdversaryStrategy> make_strategy(const std::string& name, std::uint64_t seed);

}  // namespace rmt::sim
