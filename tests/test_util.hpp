// tests/test_util.hpp — shared builders for the test suite.
#pragma once

#include <vector>

#include "adversary/threshold.hpp"
#include "graph/generators.hpp"
#include "instance/instance.hpp"
#include "util/rng.hpp"

namespace rmt::testing {

/// Structure from explicit generator sets (∅ added automatically).
inline AdversaryStructure structure(std::vector<NodeSet> sets) {
  sets.push_back(NodeSet{});
  return AdversaryStructure::from_sets(sets);
}

/// A random instance for property sweeps: connected G(n, p) with D = 0,
/// R = n-1, a random general structure that keeps D and R honest, and the
/// requested knowledge radius (SIZE_MAX = full knowledge, 0 = ad hoc).
inline Instance random_instance(std::size_t n, double edge_p, std::size_t num_sets,
                                std::size_t set_size, std::size_t knowledge, Rng& rng) {
  Graph g = generators::random_connected_gnp(n, edge_p, rng);
  const NodeId d = 0, r = NodeId(n - 1);
  AdversaryStructure z =
      random_structure(g.nodes(), num_sets, set_size, NodeSet{d, r}, rng);
  ViewFunction gamma = (knowledge == SIZE_MAX) ? ViewFunction::full(g)
                       : (knowledge == 0)      ? ViewFunction::ad_hoc(g)
                                               : ViewFunction::k_hop(g, knowledge);
  return Instance(std::move(g), std::move(z), std::move(gamma), d, r);
}

/// Restrict a structure away from `protected_nodes` (e.g. keep the dealer
/// and receiver honest, as the model requires).
inline AdversaryStructure shielding(const AdversaryStructure& z, const NodeSet& all,
                                    const NodeSet& protected_nodes) {
  return z.restricted_to(all - protected_nodes);
}

/// All-bitmask NodeSet over ids [0, n): handy for exhaustive sweeps.
inline NodeSet from_mask(std::size_t mask, std::size_t n) {
  NodeSet s;
  for (std::size_t i = 0; i < n; ++i)
    if ((mask >> i) & 1) s.insert(NodeId(i));
  return s;
}

/// The cut scans' pruning instances: stride-2 generalized wheels of 16 and
/// 20 nodes (hub 0) with a random 5×3 antichain, R = n/2 + 2, D on a spoke
/// (1) and off one (2), at every knowledge level (ad hoc, 1-hop, 2-hop,
/// full). Most candidate B there sit below a locked boundary.
inline std::vector<Instance> pruning_wheels() {
  std::vector<Instance> out;
  for (const std::size_t n : {16u, 20u}) {
    const Graph g = generators::generalized_wheel(n, 2);
    const NodeId r = NodeId(n / 2 + 2);
    for (const NodeId d : {NodeId(1), NodeId(2)}) {
      Rng rng(4242 + n + d);
      const AdversaryStructure z = random_structure(g.nodes(), 5, 3, NodeSet{d, r}, rng);
      for (const ViewFunction& gamma : {ViewFunction::ad_hoc(g), ViewFunction::k_hop(g, 1),
                                        ViewFunction::k_hop(g, 2), ViewFunction::full(g)})
        out.emplace_back(g, z, gamma, d, r);
    }
  }
  return out;
}

}  // namespace rmt::testing
