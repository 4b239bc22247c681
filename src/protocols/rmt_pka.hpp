// protocols/rmt_pka.hpp — RMT-PKA, the paper's main contribution
// (Protocol 1, §3.1).
//
// The first *unique* RMT protocol for the partial knowledge model with a
// general adversary: it achieves RMT on an instance (G, Z, γ, D, R)
// exactly when no RMT-cut exists (Thms 3 + 5, Cor. 6) — i.e. whenever
// *any* safe protocol could. And it is safe on every instance, solvable
// or not (Thm 4), even against adversaries that report fictitious nodes
// and fabricated local knowledge.
//
// Wire behaviour:
//   D     : sends (x_D, {D}) and ((D, γ(D), Z_D), {D}) to all neighbors,
//           terminates.
//   v∉{D,R}: sends ((v, γ(v), Z_v), {v}); relays every admissible trailed
//           message with its trail extended (flooding.hpp).
//   R     : accumulates; runs the decision subroutine (pka_decision.hpp)
//           every round until it returns a value.
#pragma once

#include "protocols/pka_decision.hpp"
#include "protocols/protocol.hpp"

namespace rmt::protocols {

class RmtPka final : public Protocol {
 public:
  /// The receiver's decision subroutine. pka_decide in every shipped use;
  /// tests and bench_decider_hotpath pass propcheck::reference_pka_decide
  /// to replay a run against the kept reference.
  using DecideFn = std::optional<sim::Value> (*)(const DecisionInput&, DeciderMode,
                                                 const DeciderLimits&, DeciderStats*);

  explicit RmtPka(DeciderMode mode = DeciderMode::kExhaustive, DeciderLimits limits = {},
                  DecideFn decide = pka_decide);

  std::string name() const override {
    return mode_ == DeciderMode::kExhaustive ? "RMT-PKA" : "RMT-PKA(greedy)";
  }
  std::unique_ptr<sim::ProtocolNode> make_node(const LocalKnowledge& lk,
                                               const PublicInfo& pub) const override;

  const DeciderLimits& limits() const { return limits_; }

 private:
  DeciderMode mode_;
  DeciderLimits limits_;
  DecideFn decide_;
};

}  // namespace rmt::protocols
