// fig_f2_scaling — Experiment F2 (DESIGN.md §5): where the exponentials
// live.
//
// The paper's machinery is combinatorial and intentionally exponential in
// places (adversary structures can be exponential in |G|; §5 is about
// exactly when that can be avoided). This figure locates the cost: per-n
// wall times of (a) the exact RMT-cut decider, (b) explicit ⊕
// materialization vs lazy joint membership, (c) the RMT-PKA receiver's
// decision, (d) a full Z-CPA execution.
//
// Expected shape: (a) and (c) grow exponentially with n; (b) lazy
// membership (Thm 1's per-node conjunction, one membership test per part)
// stays microseconds while materialization grows with the antichain
// product; (d) stays polynomial (near-linear at these sizes).
#include <algorithm>
#include <vector>

#include "adversary/oplus.hpp"
#include "analysis/rmt_cut.hpp"
#include "bench_util.hpp"
#include "protocols/rmt_pka.hpp"
#include "protocols/zcpa.hpp"

int main(int argc, char** argv) {
  using namespace rmt;
  using namespace rmt::bench;

  Reporter rep(argc, argv, "fig_f2_scaling");
  rep.columns(
      {"n", "rmt-cut(us)", "oplus-mat(us)", "joint-lazy(us)", "pka-decide(us)", "zcpa-run(us)"});

  for (std::size_t n : {6u, 8u, 10u, 12u, 14u}) {
    Rng rng(1200 + n);
    const Graph g = generators::random_connected_gnp(n, 0.25, rng);
    const AdversaryStructure z =
        random_structure(g.nodes(), 3, 2, NodeSet{0, NodeId(n - 1)}, rng);
    const Instance inst(g, z, ViewFunction::k_hop(g, 1), 0, NodeId(n - 1));

    const double cut_us = time_us([&] { analysis::find_rmt_cut(inst); });

    // ⊕ over every node's restricted structure, explicit vs lazy.
    std::vector<RestrictedStructure> parts;
    g.nodes().for_each([&](NodeId v) {
      parts.emplace_back(inst.local_structure(v), inst.gamma().view_nodes(v));
    });
    const double mat_us = time_us([&] {
      RestrictedStructure acc = parts.front();
      for (std::size_t i = 1; i < parts.size(); ++i) acc = oplus(acc, parts[i]);
    });
    const NodeSet probe = z.support();
    volatile std::size_t sink = 0;
    double lazy_us = time_us([&] {
      for (int i = 0; i < 1000; ++i) {
        if (std::all_of(parts.begin(), parts.end(), [&](const RestrictedStructure& part) {
              return part.contains(probe & part.ground());
            }))
          sink = sink + 1;
      }
    });
    lazy_us /= 1000.0;

    // Receiver decision cost: run PKA fault-free and time one full run;
    // the receiver decision dominates at these sizes.
    double pka_us = 0, zcpa_us = 0;
    pka_us = time_us(
        [&] { protocols::run_rmt(inst, protocols::RmtPka{}, 1, NodeSet{}); });
    zcpa_us = time_us([&] { protocols::run_rmt(inst, protocols::Zcpa{}, 1, NodeSet{}); });

    rep.row({std::uint64_t(n), cut_us, mat_us, lazy_us, pka_us, zcpa_us});
  }
  rep.finish("F2 — scaling of the core machinery (wall time per call)");
  return 0;
}
