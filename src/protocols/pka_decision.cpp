#include "protocols/pka_decision.hpp"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "graph/cuts.hpp"
#include "util/check.hpp"

namespace rmt::protocols {

namespace {

/// One subject's chosen version: its claimed view and structure.
struct Claim {
  const Graph* view = nullptr;
  const AdversaryStructure* local_z = nullptr;
};

/// One chosen version per subject, in ascending subject order.
struct Snapshot {
  std::vector<NodeId> subjects;
  std::vector<Claim> claims;  ///< claims[i] belongs to subjects[i]

  bool has(NodeId v) const { return std::binary_search(subjects.begin(), subjects.end(), v); }
  const Claim& at(NodeId v) const {
    const auto it = std::lower_bound(subjects.begin(), subjects.end(), v);
    RMT_CHECK(it != subjects.end() && *it == v, "V_M member without a snapshot version");
    return claims[std::size_t(it - subjects.begin())];
  }
};

/// G_M: union of the chosen views of V_M's members, node-induced on V_M
/// (Def. 4's construction: G_M = γ(V_M) induced on V_M). The union
/// accumulates in place, one adjacency-row OR per view node.
Graph build_gm(const Snapshot& snap, const NodeSet& vm) {
  Graph joint;
  vm.for_each([&](NodeId v) { joint.unite(*snap.at(v).view); });
  return joint.induced(vm);
}

/// Def. 5 on one candidate: walks gm's D–R paths until one is missing
/// from the delivered trails for the candidate value, and stores it in
/// `missing`. Full iff none is missing and at least one exists (value(M)
/// needs type-1 evidence). kDead: gm has no D–R path, so no subset is full
/// either, or the path budget ran out (abstain direction).
enum class Fullness { kFull, kMissing, kDead };

Fullness check_full(const Graph& gm, NodeId d, NodeId r, const std::set<Path>& delivered,
                    const DeciderLimits& limits, DeciderStats& stats, Path& missing) {
  ++stats.fullness_checks;
  if (!gm.has_node(d) || !gm.has_node(r)) return Fullness::kDead;
  bool found = false, is_missing = false;
  const EnumStatus st = enumerate_simple_paths(
      gm, d, r,
      [&](const Path& p) {
        found = true;
        if (delivered.count(p)) return true;
        missing = p;
        is_missing = true;
        return false;
      },
      limits.max_paths);
  if (is_missing) return Fullness::kMissing;
  if (st == EnumStatus::kTruncated) {
    stats.budget_exhausted = true;
    return Fullness::kDead;
  }
  return found ? Fullness::kFull : Fullness::kDead;
}

/// Def. 6: does some cut C of gm between D and R have
/// C ∩ V(γ(B)) ∈ Z_B for the receiver-side component B? All γ / Z data is
/// the snapshot's *claimed* data — exactly what M provides the receiver.
/// WLOG C = N(B) for connected B ∋ R (monotone structures; see
/// analysis/rmt_cut.hpp for the argument), and only the B whose cut
/// excludes D are candidates (enumerate_cut_candidates). A
/// blown enumeration budget reports "maybe covered" (abstain direction).
///
/// Z_B = ⊕_{v∈B} Z_v^{V(γ(v))}, so by Thm 1's conjunction form
/// X ∈ Z_B ⇔ ∀v ∈ B: X ∩ V(γ(v)) ∈ Z_v^{V(γ(v))}, and since
/// x ⊆ A ⇒ (x ∈ E^A ⇔ x ∈ E) for monotone E, that is
/// ∀v ∈ B: Z_v.contains(X ∩ V(γ(v))). With X = C ∩ V(γ(B)) and
/// V(γ(v)) ⊆ V(γ(B)), X ∩ V(γ(v)) = C ∩ V(γ(v)): one membership test per
/// member of B against its claimed structure, and no joint or restricted
/// structure built per B (analysis::find_rmt_cut tests the same way).
/// Every claimed Z_v is monotone, so the same test on a locked boundary
/// skips each subtree no cover lies in; only the B tested in full count
/// against max_cover_sets.
struct CoverScan {
  const Graph& gm;
  const Snapshot& snap;  // gm's nodes all lie in V_M, so each has a claim
  std::size_t budget;
  DeciderStats& stats;
  bool covered = false;

  bool in_zb(const NodeSet& x, const NodeSet& b) const {
    bool member = true;
    b.for_each([&](NodeId v) {
      if (!member) return;
      const Claim& claim = snap.at(v);
      member = claim.local_z->contains(x & claim.view->nodes());
    });
    return member;
  }
  bool viable(const NodeSet& b, const NodeSet& locked) const { return in_zb(locked, b); }
  bool visit(const NodeSet& b) {
    if (budget-- == 0) {
      stats.budget_exhausted = true;
      covered = true;  // conservative
      return false;
    }
    covered = in_zb(gm.boundary(b), b);
    return !covered;
  }
};

bool has_adversary_cover(const Graph& gm, NodeId d, NodeId r, const Snapshot& snap,
                         const DeciderLimits& limits, DeciderStats& stats) {
  ++stats.cover_checks;
  if (!gm.has_node(r) || !gm.has_node(d)) return true;
  CoverScan scan{gm, snap, limits.max_cover_sets, stats};
  enumerate_cut_candidates(gm, d, r, scan);
  return scan.covered;
}

/// The versions of one subject: its claimed reports, or the receiver's
/// own knowledge (pinned upstream, so it never branches).
struct Axis {
  NodeId subject = 0;
  const std::vector<NodeReport>* versions = nullptr;  ///< nullptr: `pinned`
  Claim pinned;
  std::size_t size() const { return versions ? versions->size() : 1; }
  Claim claim(std::size_t i) const {
    if (!versions) return pinned;
    const NodeReport& rep = (*versions)[i];
    return Claim{&rep.view, &rep.local_z};
  }
};

/// Enumerate snapshots (one version per subject) with a cap on the number
/// of combinations; calls fn for each.
void for_each_snapshot(const std::vector<Axis>& axes, const DeciderLimits& limits,
                       DeciderStats& stats, const std::function<bool(const Snapshot&)>& fn) {
  Snapshot snap;
  for (const Axis& axis : axes) snap.subjects.push_back(axis.subject);
  snap.claims.resize(axes.size());
  std::vector<std::size_t> idx(axes.size(), 0);
  std::size_t produced = 0;
  for (;;) {
    if (produced++ >= limits.max_snapshots) {
      stats.budget_exhausted = true;
      return;
    }
    ++stats.snapshots;
    for (std::size_t i = 0; i < axes.size(); ++i) snap.claims[i] = axes[i].claim(idx[i]);
    if (!fn(snap)) return;
    // Odometer increment.
    std::size_t i = 0;
    while (i < idx.size()) {
      if (++idx[i] < axes[i].size()) break;
      idx[i] = 0;
      ++i;
    }
    if (i == idx.size()) return;
  }
}

/// The V_M candidates one pka_decide call may still test
/// (DeciderLimits::max_subsets). Once a candidate finds it empty, the call
/// abstains.
struct CandidateBudget {
  std::size_t left;
  bool spent = false;

  bool take(DeciderStats& stats) {
    if (left == 0) {
      spent = stats.budget_exhausted = true;
      return false;
    }
    --left;
    ++stats.subsets_tried;
    return true;
  }
};

/// An exact search for a full, cover-free V_M ∋ D, R under one snapshot
/// and value. For V' ⊆ V (both holding D and R), G_M(V') is a subgraph of
/// G_M(V), so fullness is downward closed, and so is having a cover
/// (DESIGN.md §1). An accepting V_M therefore exists iff some maximal full
/// V_M is cover-free. The search starts from all subjects. A non-full V_M
/// has an undelivered D–R path P, and a full subset must lose P: drop one
/// interior node of P, or every member whose claimed view supplies one
/// edge of P (an edge D or R supplies cannot be lost). Every full subset
/// lies inside one of these branches, so every maximal full V_M is
/// reached; a covered V_M, full or not, is pruned with all its subsets.
std::optional<NodeSet> search_vm(const Snapshot& snap, NodeId d, NodeId r,
                                 const std::set<Path>& delivered, const DeciderLimits& limits,
                                 CandidateBudget& budget, DeciderStats& stats) {
  NodeSet all;
  for (const NodeId u : snap.subjects) all.insert(u);
  std::vector<NodeSet> stack{all};
  std::unordered_set<NodeSet> seen{all};
  const auto push = [&](NodeSet vm) {
    if (seen.insert(vm).second) stack.push_back(std::move(vm));
  };
  Path missing;
  while (!stack.empty()) {
    if (!budget.take(stats)) return std::nullopt;
    NodeSet vm = std::move(stack.back());
    stack.pop_back();
    const Graph gm = build_gm(snap, vm);
    const Fullness full = check_full(gm, d, r, delivered, limits, stats, missing);
    if (full == Fullness::kDead) continue;
    if (has_adversary_cover(gm, d, r, snap, limits, stats)) continue;  // so is every subset
    if (full == Fullness::kFull) return vm;
    for (std::size_t i = 0; i + 1 < missing.size(); ++i) {
      const NodeId a = missing[i], b = missing[i + 1];
      NodeSet suppliers;
      vm.for_each([&](NodeId m) {
        if (snap.at(m).view->has_edge(a, b)) suppliers.insert(m);
      });
      if (!suppliers.contains(d) && !suppliers.contains(r)) push(vm - suppliers);
    }
    // Pushed last, so tried first: the branches that drop one node.
    for (std::size_t i = missing.size() - 1; i-- > 1;) push(vm - NodeSet::single(missing[i]));
  }
  return std::nullopt;
}

std::optional<sim::Value> decide_exhaustive(const DecisionInput& in, const Snapshot& snap,
                                            const DeciderLimits& limits, CandidateBudget& budget,
                                            DeciderStats& stats) {
  // Any useful M contains D and R — G_M needs both endpoints.
  if (!snap.has(in.dealer)) return std::nullopt;
  for (const auto& [x, delivered] : in.type1) {
    if (auto vm = search_vm(snap, in.dealer, in.receiver, delivered, limits, budget, stats)) {
      stats.decided_vm = std::move(vm);
      return x;
    }
    if (budget.spent) break;
  }
  return std::nullopt;
}

std::optional<sim::Value> decide_greedy(const DecisionInput& in, const Snapshot& snap,
                                        const DeciderLimits& limits, DeciderStats& stats) {
  if (!snap.has(in.dealer)) return std::nullopt;
  for (const auto& [x, delivered] : in.type1) {
    NodeSet vm;
    for (const NodeId u : snap.subjects) vm.insert(u);
    // Peel nodes that break fullness: a missing D–R path can only be
    // repaired by evicting one of its interior nodes from V_M.
    for (std::size_t iter = 0; iter <= snap.subjects.size(); ++iter) {
      const Graph gm = build_gm(snap, vm);
      ++stats.fullness_checks;
      if (!gm.has_node(in.dealer) || !gm.has_node(in.receiver)) break;
      std::map<NodeId, std::size_t> blame;
      std::size_t found = 0, missing = 0;
      const EnumStatus walked = enumerate_simple_paths(
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
      // A truncated walk neither proves V_M full nor says whom to peel.
      if (walked == EnumStatus::kTruncated) {
        stats.budget_exhausted = true;
        return std::nullopt;
      }
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

std::optional<sim::Value> pka_decide(const DecisionInput& in, DeciderMode mode,
                                     const DeciderLimits& limits, DeciderStats* stats_out) {
  DeciderStats local;
  DeciderStats& stats = stats_out ? *stats_out : local;

  // Dealer propagation rule: R ∈ N(D) and (x_D, {D}) arrived on the
  // authenticated dealer channel.
  if (in.direct_value) return in.direct_value;
  if (in.type1.empty()) return std::nullopt;

  // Pin subject R to the receiver's own ground truth; adversarial claims
  // about R itself are never entertained (R can tell they are lies). The
  // axes point into `in`, so nothing is copied.
  const Axis pinned{in.receiver, nullptr,
                    Claim{&in.receiver_knowledge.view, &in.receiver_knowledge.local_z}};
  std::vector<Axis> axes;
  axes.reserve(in.reports.size() + 1);
  for (const auto& [u, versions] : in.reports) {
    if (u == in.receiver) continue;
    RMT_CHECK(!versions.empty(), "subject with zero report versions");
    if (u > in.receiver && (axes.empty() || axes.back().subject < in.receiver))
      axes.push_back(pinned);
    axes.push_back(Axis{u, &versions, {}});
  }
  if (axes.empty() || axes.back().subject < in.receiver) axes.push_back(pinned);

  std::optional<sim::Value> decision;
  CandidateBudget budget{limits.max_subsets};
  for_each_snapshot(axes, limits, stats, [&](const Snapshot& snap) {
    decision = (mode == DeciderMode::kExhaustive)
                   ? decide_exhaustive(in, snap, limits, budget, stats)
                   : decide_greedy(in, snap, limits, stats);
    return !decision && !budget.spent;
  });
  return decision;
}

}  // namespace rmt::protocols
