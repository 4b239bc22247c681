#include "analysis/rmt_cut.hpp"

#include "analysis/cut_scan.hpp"
#include "analysis/feasibility.hpp"
#include "graph/cuts.hpp"
#include "obs/phase.hpp"
#include "util/audit.hpp"
#include "util/check.hpp"

namespace rmt::analysis {

namespace {

// Full views: V(γ(v)) = V for every v. A property of the input, not a flag.
bool full_views(const Instance& inst) {
  const NodeSet& all = inst.graph().nodes();
  bool full = true;
  all.for_each([&](NodeId v) {
    if (full && inst.gamma().view_nodes(v) != all) full = false;
  });
  return full;
}

// Under full views Z_B = Z (⊕ is idempotent), so an RMT-cut exists iff two
// admissible sets cover a D–R cut. True when that gate already proves the
// instance solvable; the enumeration then has no witness to find.
bool solvable_by_two_cover_gate(const Instance& inst) {
  return full_views(inst) && !find_two_cover_cut(inst.graph(), inst.adversary(), inst.dealer(),
                                                 inst.receiver());
}

}  // namespace

std::optional<RmtCutWitness> find_rmt_cut(const Instance& inst) {
  RMT_PHASE("rmt_cut.find");
  RMT_REQUIRE(inst.num_players() <= kMaxExactNodes,
              "find_rmt_cut: instance too large for the exact decider");
  RMT_AUDIT_VALIDATE(inst);
  if (solvable_by_two_cover_gate(inst)) return std::nullopt;
  const ViewFunction& gamma = inst.gamma();
  return detail::find_first_cut<RmtCutWitness>(
      inst, [&](NodeId v) -> const NodeSet& { return gamma.view_nodes(v); });
}

std::optional<RmtCutWitness> find_rmt_cut_reference(const Instance& inst) {
  RMT_PHASE("rmt_cut.find");
  RMT_REQUIRE(inst.num_players() <= kMaxExactNodes,
              "find_rmt_cut: instance too large for the exact decider");
  RMT_AUDIT_VALIDATE(inst);
  const Graph& g = inst.graph();
  const NodeId d = inst.dealer();
  const NodeId r = inst.receiver();

  // Local structures are instance-wide constants; compute them once, not
  // once per enumerated component.
  std::vector<AdversaryStructure> local_z(g.capacity());
  g.nodes().for_each([&](NodeId v) { local_z[v] = inst.local_structure(v); });

  std::optional<RmtCutWitness> witness;
  enumerate_connected_subsets(g, r, NodeSet::single(d), [&](const NodeSet& b) {
    const NodeSet cut = g.boundary(b);
    if (cut.contains(d)) return true;  // D may not sit inside the cut
    // Z_B membership spelled out per the definition: x ∈ ⊕_{v∈B} Z_v^{Γ(v)}
    // iff every node's slice x ∩ Γ(v) lies in Z_v^{Γ(v)}. The slice is a
    // subset of Γ(v), so membership in the restriction equals membership in
    // Z_v itself — no restricted structures, no conjunction compilation;
    // this is the oracle the shipped decider is checked against.
    for (const NodeSet& m : inst.adversary().maximal_sets()) {
      const NodeSet c2 = cut - m;
      bool member = true;
      b.for_each([&](NodeId v) {
        if (member && !local_z[v].contains(c2 & inst.gamma().view_nodes(v))) member = false;
      });
      if (member) {
        witness = RmtCutWitness{cut & m, c2, b};
        return false;  // stop enumeration
      }
    }
    return true;
  });
  return witness;
}

bool rmt_cut_exists(const Instance& inst) { return find_rmt_cut(inst).has_value(); }

}  // namespace rmt::analysis
