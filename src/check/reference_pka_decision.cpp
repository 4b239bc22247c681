#include "check/reference_pka_decision.hpp"

#include <algorithm>
#include <functional>
#include <map>

#include "adversary/joint.hpp"
#include "graph/cuts.hpp"
#include "util/check.hpp"

namespace rmt::propcheck {

using protocols::NodeReport;

namespace {

/// One chosen version per subject.
using Snapshot = std::map<NodeId, const NodeReport*>;

/// G_M: union of the chosen views of V_M's members, node-induced on V_M
/// (Def. 4's construction: G_M = γ(V_M) induced on V_M). Built node by
/// node and edge by edge, as Graph::united and Graph::induced were before
/// they became row-wise, so comparing pka_decide with this decision checks
/// those two as well.
Graph build_gm(const Snapshot& snap, const NodeSet& vm) {
  Graph joint;
  vm.for_each([&](NodeId v) {
    const auto it = snap.find(v);
    RMT_CHECK(it != snap.end(), "V_M member without a snapshot version");
    const Graph& view = it->second->view;
    view.nodes().for_each([&](NodeId u) { joint.add_node(u); });
    for (const Edge& e : view.edges()) joint.add_edge(e.a, e.b);
  });
  Graph gm;
  const NodeSet keep = vm & joint.nodes();
  keep.for_each([&](NodeId v) { gm.add_node(v); });
  for (const Edge& e : joint.edges())
    if (keep.contains(e.a) && keep.contains(e.b)) gm.add_edge(e.a, e.b);
  return gm;
}

/// Def. 5: every simple D–R path of gm appears among the delivered trails
/// for the candidate value; at least one must exist (value(M) needs type-1
/// evidence). Path budget overrun counts as failure (abstain direction).
bool is_full(const Graph& gm, NodeId d, NodeId r, const std::set<Path>& delivered,
             const DeciderLimits& limits, DeciderStats& stats) {
  ++stats.fullness_checks;
  if (!gm.has_node(d) || !gm.has_node(r)) return false;
  bool all_present = true;
  std::size_t found = 0;
  const EnumStatus st = enumerate_simple_paths(
      gm, d, r,
      [&](const Path& p) {
        ++found;
        if (!delivered.count(p)) {
          all_present = false;
          return false;
        }
        return true;
      },
      limits.max_paths);
  if (st == EnumStatus::kTruncated && all_present) {
    stats.budget_exhausted = true;
    return false;
  }
  return all_present && found > 0;
}

/// Def. 6: does some cut C of gm between D and R have
/// C ∩ V(γ(B)) ∈ Z_B for the receiver-side component B? All γ / Z data is
/// the snapshot's *claimed* data — exactly what M provides the receiver.
/// WLOG C = N(B) for connected B ∋ R (monotone structures; see
/// analysis/rmt_cut.hpp for the argument). A blown enumeration budget
/// reports "maybe covered" (abstain direction).
bool has_adversary_cover(const Graph& gm, NodeId d, NodeId r, const Snapshot& snap,
                         const DeciderLimits& limits, DeciderStats& stats) {
  ++stats.cover_checks;
  if (!gm.has_node(r) || !gm.has_node(d)) return true;
  bool covered = false;
  std::size_t budget = limits.max_cover_sets;
  enumerate_connected_subsets(gm, r, NodeSet::single(d), [&](const NodeSet& b) {
    if (budget-- == 0) {
      stats.budget_exhausted = true;
      covered = true;  // conservative
      return false;
    }
    const NodeSet c = gm.boundary(b);
    if (c.contains(d)) return true;  // not a D-excluding cut for this B
    // Z_B and V(γ(B)) from the claimed reports of B's members.
    JointStructure zb;
    NodeSet gamma_b;
    b.for_each([&](NodeId v) {
      const NodeReport& rep = *snap.at(v);
      zb.add_constraint(rep.view.nodes(), rep.local_z);
      gamma_b |= rep.view.nodes();
    });
    if (zb.contains(c & gamma_b)) {
      covered = true;
      return false;
    }
    return true;
  });
  return covered;
}

/// Enumerate snapshots (one version per subject) with a cap on the number
/// of combinations; calls fn for each. Subject R is pinned to the
/// receiver's own knowledge upstream, so it never branches here.
void for_each_snapshot(const std::map<NodeId, std::vector<NodeReport>>& reports,
                       const DeciderLimits& limits, DeciderStats& stats,
                       const std::function<bool(const Snapshot&)>& fn) {
  std::vector<const std::vector<NodeReport>*> axes;
  std::vector<NodeId> subjects;
  for (const auto& [u, versions] : reports) {
    RMT_CHECK(!versions.empty(), "subject with zero report versions");
    axes.push_back(&versions);
    subjects.push_back(u);
  }
  std::vector<std::size_t> idx(axes.size(), 0);
  std::size_t produced = 0;
  for (;;) {
    if (produced++ >= limits.max_snapshots) {
      stats.budget_exhausted = true;
      return;
    }
    ++stats.snapshots;
    Snapshot snap;
    for (std::size_t i = 0; i < axes.size(); ++i) snap[subjects[i]] = &(*axes[i])[idx[i]];
    if (!fn(snap)) return;
    // Odometer increment.
    std::size_t i = 0;
    while (i < idx.size()) {
      if (++idx[i] < axes[i]->size()) break;
      idx[i] = 0;
      ++i;
    }
    if (i == idx.size()) return;
  }
}

/// Try one concrete (snapshot, V_M, x): valid-by-construction, check full
/// and cover-free.
bool accepts(const Snapshot& snap, const NodeSet& vm, NodeId d, NodeId r,
             const std::set<Path>& delivered, const DeciderLimits& limits, DeciderStats& stats) {
  const Graph gm = build_gm(snap, vm);
  if (!is_full(gm, d, r, delivered, limits, stats)) return false;
  return !has_adversary_cover(gm, d, r, snap, limits, stats);
}

std::optional<sim::Value> decide_exhaustive(const DecisionInput& in, const Snapshot& snap,
                                            const DeciderLimits& limits, DeciderStats& stats) {
  // Optional subjects: everything except D and R (which any useful M must
  // contain — G_M needs both endpoints).
  if (!snap.count(in.dealer)) return std::nullopt;
  std::vector<NodeId> optional_subjects;
  for (const auto& [u, rep] : snap) {
    (void)rep;
    if (u != in.dealer && u != in.receiver) optional_subjects.push_back(u);
  }
  if (optional_subjects.size() > limits.max_subset_bits) {
    stats.budget_exhausted = true;
    return std::nullopt;
  }
  const std::size_t combos = std::size_t{1} << optional_subjects.size();
  for (const auto& [x, delivered] : in.type1) {
    // Descending masks: the all-subjects candidate first — in benign runs
    // it is the honest M and the search ends immediately.
    for (std::size_t mask = combos; mask-- > 0;) {
      ++stats.subsets_tried;
      NodeSet vm{in.dealer, in.receiver};
      for (std::size_t i = 0; i < optional_subjects.size(); ++i)
        if ((mask >> i) & 1) vm.insert(optional_subjects[i]);
      if (accepts(snap, vm, in.dealer, in.receiver, delivered, limits, stats)) {
        stats.decided_vm = vm;
        return x;
      }
    }
  }
  return std::nullopt;
}

std::optional<sim::Value> decide_greedy(const DecisionInput& in, const Snapshot& snap,
                                        const DeciderLimits& limits, DeciderStats& stats) {
  if (!snap.count(in.dealer)) return std::nullopt;
  for (const auto& [x, delivered] : in.type1) {
    NodeSet vm;
    for (const auto& [u, rep] : snap) {
      (void)rep;
      vm.insert(u);
    }
    // Peel nodes that break fullness: a missing D–R path can only be
    // repaired by evicting one of its interior nodes from V_M.
    for (std::size_t iter = 0; iter <= snap.size(); ++iter) {
      const Graph gm = build_gm(snap, vm);
      ++stats.fullness_checks;
      if (!gm.has_node(in.dealer) || !gm.has_node(in.receiver)) break;
      std::map<NodeId, std::size_t> blame;
      std::size_t found = 0, missing = 0;
      enumerate_simple_paths(
          gm, in.dealer, in.receiver,
          [&](const Path& p) {
            ++found;
            if (!delivered.count(p)) {
              ++missing;
              for (NodeId v : p)
                if (v != in.dealer && v != in.receiver) ++blame[v];
            }
            return true;
          },
          limits.max_paths);
      if (found == 0) break;
      if (missing == 0) {
        if (!has_adversary_cover(gm, in.dealer, in.receiver, snap, limits, stats)) {
          stats.decided_vm = vm;
          return x;
        }
        break;  // covered — greedy does not explore alternatives
      }
      const auto worst = std::max_element(
          blame.begin(), blame.end(),
          [](const auto& a, const auto& b) { return a.second < b.second; });
      if (worst == blame.end()) break;
      vm.erase(worst->first);
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<sim::Value> reference_pka_decide(const DecisionInput& in, DeciderMode mode,
                                               const DeciderLimits& limits,
                                               DeciderStats* stats_out) {
  DeciderStats local;
  DeciderStats& stats = stats_out ? *stats_out : local;

  // Dealer propagation rule: R ∈ N(D) and (x_D, {D}) arrived on the
  // authenticated dealer channel.
  if (in.direct_value) return in.direct_value;
  if (in.type1.empty()) return std::nullopt;

  // Pin subject R to the receiver's own ground truth; adversarial claims
  // about R itself are never entertained (R can tell they are lies).
  std::map<NodeId, std::vector<NodeReport>> reports = in.reports;
  reports[in.receiver] = {NodeReport{in.receiver, in.receiver_knowledge.view,
                                     in.receiver_knowledge.local_z}};

  std::optional<sim::Value> decision;
  for_each_snapshot(reports, limits, stats, [&](const Snapshot& snap) {
    decision = (mode == DeciderMode::kExhaustive) ? decide_exhaustive(in, snap, limits, stats)
                                                  : decide_greedy(in, snap, limits, stats);
    return !decision.has_value();
  });
  return decision;
}

}  // namespace rmt::propcheck
