// protocols/runner.hpp — one-call protocol execution.
//
// Wires an Instance, a Protocol, a corruption set and an adversary
// strategy into a sim::Network, runs to decision or round bound, and
// reports the outcome with the accounting the experiments need. This is
// the main entry point of the library for "does protocol P deliver on
// instance I against adversary S?" questions.
#pragma once

#include "obs/phase.hpp"
#include "protocols/protocol.hpp"

namespace rmt::protocols {

struct Outcome {
  std::optional<Value> decision;      ///< the receiver's output, if any
  bool correct = false;               ///< decided and equal to x_D
  bool wrong = false;                 ///< decided and ≠ x_D — a safety violation
  sim::NetworkStats stats;
  /// Per-phase wall-time breakdown of this run (RMT_PHASE sites hit
  /// while it executed). Empty unless obs::set_enabled(true).
  obs::PhaseProfile phases;
};

/// Run one RMT execution. `corruption` must be admissible under the
/// instance's Z (∅ for a fault-free control run); `strategy` may be null
/// (corrupted nodes stay silent). `max_rounds` 0 means the protocol's
/// default bound. `observer` (sim/trace.hpp), if given, receives the full
/// delivery transcript.
Outcome run_rmt(const Instance& inst, const Protocol& proto, Value dealer_value,
                const NodeSet& corruption, sim::AdversaryStrategy* strategy = nullptr,
                std::size_t max_rounds = 0, sim::NetworkObserver* observer = nullptr);

struct BroadcastOutcome {
  /// Per node id: the decision of each honest node (nullopt = undecided;
  /// entries for corrupted/absent ids are nullopt too).
  std::vector<std::optional<Value>> decisions;
  std::size_t honest_decided = 0;
  std::size_t honest_correct = 0;
  std::size_t honest_wrong = 0;
  std::size_t honest_total = 0;
  sim::NetworkStats stats;
  /// Per-phase wall-time breakdown (see Outcome::phases).
  obs::PhaseProfile phases;
};

/// Run to the round bound without early receiver termination and collect
/// every honest node's decision — the Reliable Broadcast view of a
/// protocol (used for the Z-CPA broadcast experiments of [13]/§4).
BroadcastOutcome run_broadcast(const Instance& inst, const Protocol& proto, Value dealer_value,
                               const NodeSet& corruption,
                               sim::AdversaryStrategy* strategy = nullptr,
                               std::size_t max_rounds = 0);

}  // namespace rmt::protocols
