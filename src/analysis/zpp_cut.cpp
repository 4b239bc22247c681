#include "analysis/zpp_cut.hpp"

#include <vector>

#include "analysis/cut_scan.hpp"
#include "analysis/rmt_cut.hpp"
#include "graph/cuts.hpp"
#include "obs/phase.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace rmt::analysis {

std::optional<ZppCutWitness> find_rmt_zpp_cut(const Instance& inst) {
  RMT_PHASE("zpp_cut.find");
  RMT_REQUIRE(inst.num_players() <= kMaxExactNodes,
              "find_rmt_zpp_cut: instance too large for the exact decider");
  RMT_AUDIT_VALIDATE(inst);
  const Graph& g = inst.graph();
  return detail::find_first_cut<ZppCutWitness>(
      inst, [&](NodeId u) -> const NodeSet& { return g.neighbors(u); });
}

std::optional<ZppCutWitness> find_rmt_zpp_cut_reference(const Instance& inst) {
  RMT_PHASE("zpp_cut.find");
  RMT_REQUIRE(inst.num_players() <= kMaxExactNodes,
              "find_rmt_zpp_cut: instance too large for the exact decider");
  RMT_AUDIT_VALIDATE(inst);
  const Graph& g = inst.graph();
  const NodeId d = inst.dealer();
  const NodeId r = inst.receiver();
  std::vector<AdversaryStructure> local_z(g.capacity());
  g.nodes().for_each([&](NodeId v) { local_z[v] = inst.local_structure(v); });

  std::optional<ZppCutWitness> witness;
  enumerate_connected_subsets(g, r, NodeSet::single(d), [&](const NodeSet& b) {
    const NodeSet cut = g.boundary(b);
    if (cut.contains(d)) return true;
    for (const NodeSet& m : inst.adversary().maximal_sets()) {
      const NodeSet c2 = cut - m;
      bool plausible = true;
      b.for_each([&](NodeId u) {
        if (plausible && !local_z[u].contains(g.neighbors(u) & c2)) plausible = false;
      });
      if (plausible) {
        witness = ZppCutWitness{cut & m, c2, b};
        return false;
      }
    }
    return true;
  });
  return witness;
}

bool rmt_zpp_cut_exists(const Instance& inst) { return find_rmt_zpp_cut(inst).has_value(); }

bool zpp_cut_exists_broadcast(const Graph& g, const AdversaryStructure& z, NodeId dealer) {
  const NodeSet corruptible = z.support();
  bool exists = false;
  g.nodes().for_each([&](NodeId r) {
    if (exists || r == dealer || corruptible.contains(r)) return;
    const Instance inst = Instance::ad_hoc(g, z, dealer, r);
    if (rmt_zpp_cut_exists(inst)) exists = true;
  });
  return exists;
}

}  // namespace rmt::analysis
