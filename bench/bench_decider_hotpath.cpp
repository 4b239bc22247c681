// bench_decider — the exact deciders against their oracles on the instance
// shapes the served cold path decides, scaled up to kMaxExactNodes.
//
// One row per (instance, decider), with one timing column per path:
//   reference_ms — the oracle: find_rmt_cut_reference (explicit Z_v, no
//                  gate), find_rmt_zpp_cut_reference (explicit Z_u, every
//                  candidate B tested), find_two_cover_cut_reference (the
//                  full row-major NodeSet scan), or for `analyze` all three
//                  shipped deciders run unconditionally
//                  (analysis::analyze_reference);
//   shipped_ms   — what the library serves: find_rmt_cut (definitional scan
//                  behind the full-view two-cover gate), find_rmt_zpp_cut
//                  (the same per-B scan with slices N(u), skipping every
//                  subtree below a failing locked boundary),
//                  find_two_cover_cut (pairs i ≤ j, one-word BFS),
//                  analysis::analyze (skips the implied decider).
// speedup = reference_ms / shipped_ms.
//
// The `simulate/<strategy>` rows are the served `simulate` kind on
// cold_mix's three simulate cells (4 parallel paths of 3 hops with a
// 1-threshold and full views, cycle-16 ad hoc, wheel-13 with 1-hop views)
// and on fault-free cycle-17 and cycle-20 with R opposite D, where more
// than 14 other subjects report before both arcs deliver. Each row runs
// each of the five strategies: one whole RMT-PKA run, whose receiver
// decides through propcheck::reference_pka_decide (reference_ms) or
// pka_decide (shipped_ms). Relays and the simulator are the same code in
// both, so the column isolates the receiver's decision. Both sides count
// the V_M they test against one DeciderLimits::max_subsets, and the
// reference tests all subjects first, so both decide on every row.
//
// The `identical` column compares the shipped answer with the reference
// (witness bit for bit; for `analyze` the witness and both booleans; for
// `simulate` the whole Outcome — decision, rounds, message counts) and is
// also a hard RMT_CHECK: a path that ever returns a different answer fails
// the run, not just the schema check. Timings are reported, never asserted
// — CI runs this as a perf *smoke* (identity), and tools/check_bench_json.py
// enforces the identity column on BENCH_decider.json. Wall times are
// best-of-kReps to damp scheduler noise; a sanitizer build takes one
// sample per cell (its timings carry no information, and five samples of
// every row take most of ctest's 300 s there), and still runs every row
// and every identity check.
#include <optional>
#include <string>

#include "analysis/feasibility.hpp"
#include "bench_util.hpp"
#include "check/reference_pka_decision.hpp"
#include "protocols/rmt_pka.hpp"
#include "protocols/runner.hpp"
#include "sim/strategies.hpp"

namespace {

using namespace rmt;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RMT_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RMT_BENCH_SANITIZED 1
#endif
#endif

#ifdef RMT_BENCH_SANITIZED
inline constexpr int kReps = 1;
#else
inline constexpr int kReps = 5;
#endif

template <typename W>
bool same_cut(const std::optional<W>& a, const std::optional<W>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->c1 == b->c1 && a->c2 == b->c2 && a->b == b->b);
}

bool same_cover(const std::optional<analysis::TwoCoverWitness>& a,
                const std::optional<analysis::TwoCoverWitness>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->z1 == b->z1 && a->z2 == b->z2);
}

bool same_analysis(const analysis::Analysis& a, const analysis::Analysis& b) {
  return same_cut(a.rmt_cut, b.rmt_cut) && a.zcpa_solvable == b.zcpa_solvable &&
         a.full_knowledge_solvable == b.full_knowledge_solvable;
}

bool same_outcome(const protocols::Outcome& a, const protocols::Outcome& b) {
  const sim::NetworkStats& x = a.stats;
  const sim::NetworkStats& y = b.stats;
  return a.decision == b.decision && a.correct == b.correct && a.wrong == b.wrong &&
         x.rounds == y.rounds && x.honest_messages == y.honest_messages &&
         x.adversary_messages == y.adversary_messages &&
         x.adversary_dropped == y.adversary_dropped &&
         x.honest_payload_bytes == y.honest_payload_bytes &&
         x.adversary_payload_bytes == y.adversary_payload_bytes &&
         x.peak_round_messages == y.peak_round_messages && x.quiet_rounds == y.quiet_rounds;
}

template <typename F>
double best_ms(F&& f) {
  double best = 0;
  for (int i = 0; i < kReps; ++i) {
    const double ms = rmt::bench::time_us(f) / 1000.0;
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

struct Views {
  const char* label;
  ViewFunction (*build)(const Graph&);
};

const Views kViews[] = {
    {"full", [](const Graph& g) { return ViewFunction::full(g); }},
    {"k-hop 2", [](const Graph& g) { return ViewFunction::k_hop(g, 2); }},
    {"k-hop 1", [](const Graph& g) { return ViewFunction::k_hop(g, 1); }},
    {"ad hoc", [](const Graph& g) { return ViewFunction::ad_hoc(g); }},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rmt;
  using namespace rmt::bench;

  Reporter rep(argc, argv, "bench_decider");
  rep.columns({"family", "n", "structure", "views", "decider", "reference_ms", "shipped_ms",
               "speedup", "identical"});

  // Time the reference and shipped paths of one decider, emit its row, and
  // fail hard unless the answers agree.
  const auto measure = [&](const std::string& family, std::uint64_t n, const std::string& zkind,
                           const std::string& views, const std::string& decider,
                           const auto& reference, const auto& shipped, const auto& same) {
    decltype(reference()) want, got;
    const double ref_ms = best_ms([&] { want = reference(); });
    const double ship_ms = best_ms([&] { got = shipped(); });
    const bool identical = same(want, got);
    rep.row({family, n, zkind, views, decider, ref_ms, ship_ms,
             ship_ms > 0 ? ref_ms / ship_ms : 0.0, identical});
    RMT_CHECK(identical, "bench_decider: " + family + "/" + zkind + "/" + views + " " + decider +
                             " diverged from its reference");
  };

  const auto run = [&](const std::string& family, const std::string& zkind,
                       const std::string& views, const Instance& inst) {
    const std::uint64_t n = inst.num_players();
    const Graph& g = inst.graph();
    const AdversaryStructure& z = inst.adversary();
    const NodeId d = inst.dealer(), r = inst.receiver();
    measure(
        family, n, zkind, views, "rmt", [&] { return analysis::find_rmt_cut_reference(inst); },
        [&] { return analysis::find_rmt_cut(inst); }, same_cut<analysis::RmtCutWitness>);
    measure(
        family, n, zkind, views, "zpp", [&] { return analysis::find_rmt_zpp_cut_reference(inst); },
        [&] { return analysis::find_rmt_zpp_cut(inst); }, same_cut<analysis::ZppCutWitness>);
    measure(
        family, n, zkind, views, "two-cover",
        [&] { return analysis::find_two_cover_cut_reference(g, z, d, r); },
        [&] { return analysis::find_two_cover_cut(g, z, d, r); }, same_cover);
    measure(
        family, n, zkind, views, "analyze", [&] { return analysis::analyze_reference(inst); },
        [&] { return analysis::analyze(inst); }, same_analysis);
  };

  // The fig_f4 shapes (cycles and 3 parallel paths, ad hoc knowledge,
  // trivial structure) at the decider cap: *no* RMT-cut exists, so every
  // decider traverses the entire connected-subset space.
  for (std::size_t n : {20u, 26u}) {
    const Graph g = generators::cycle_graph(n);
    run("cycle", "trivial (f4)", "ad hoc",
        Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, NodeId(n / 2)));
  }
  for (std::size_t h : {6u, 8u}) {
    const Graph g = generators::parallel_paths(3, h);
    run("3-paths", "trivial (f4)", "ad hoc",
        Instance::ad_hoc(g, AdversaryStructure::trivial(), 0, NodeId(g.num_nodes() - 1)));
  }
  // A random general antichain under 1-hop knowledge (identity coverage
  // for non-threshold structures).
  for (std::size_t n : {20u, 26u}) {
    const Graph g = generators::cycle_graph(n);
    Rng rng(4242 + n);
    run("cycle", "random-8x3", "k-hop 1",
        Instance(g, random_structure(g.nodes(), 8, 3, NodeSet{0, NodeId(n / 2)}, rng),
                 ViewFunction::k_hop(g, 1), 0, NodeId(n / 2)));
  }

  // The shapes cold_mix serves: k parallel D–R paths of h hops under a
  // t-threshold over the relays, and cycle-26 at thresholds 2–3, under
  // every knowledge level. Full views are where the two-cover gate decides;
  // thresholds 2–3 put hundreds to thousands of maximal sets in the scan.
  struct Paths {
    std::size_t k, h;
  };
  for (const Paths p : {Paths{3, 8}, Paths{4, 4}, Paths{5, 3}, Paths{5, 4}}) {
    const Graph g = generators::parallel_paths(p.k, p.h);
    const NodeId r = NodeId(g.num_nodes() - 1);
    const std::string family = std::to_string(p.k) + "-paths h" + std::to_string(p.h);
    for (std::size_t t : {1u, 2u, 3u}) {
      const AdversaryStructure z = threshold_structure(g.nodes() - NodeSet{0, r}, t);
      for (const Views& v : kViews)
        run(family, std::to_string(t) + "-threshold", v.label, Instance(g, z, v.build(g), 0, r));
    }
  }
  {
    const Graph g = generators::cycle_graph(26);
    for (std::size_t t : {2u, 3u}) {
      const AdversaryStructure z = threshold_structure(g.nodes() - NodeSet{0, 13}, t);
      for (const Views& v : kViews)
        run("cycle", std::to_string(t) + "-threshold", v.label, Instance(g, z, v.build(g), 0, 13));
    }
  }

  // cold_mix's wheel and G(n, p) cells, which carry its 5–20 ms maxima:
  // generalized wheels (hub 0, spokes every other rim node) with a random
  // antichain, D on a spoke and off one, and G(n, p) on 14 nodes, under
  // full, 2-hop and 1-hop views. Most candidate B here sit next to D, so
  // these rows show what the candidate rule (graph/cuts.hpp) skips; the
  // reference column still walks every B.
  for (std::size_t n : {16u, 20u}) {
    const Graph g = generators::generalized_wheel(n, 2);
    const NodeId r = NodeId(n / 2 + 2);
    for (const NodeId d : {NodeId(1), NodeId(2)}) {
      Rng rng(4242 + n + d);
      const AdversaryStructure z = random_structure(g.nodes(), 5, 3, NodeSet{d, r}, rng);
      const std::string family = std::string("wheel, D ") + (d == 1 ? "on" : "off") + " a spoke";
      for (std::size_t v = 0; v < 3; ++v)
        run(family, "random-5x3", kViews[v].label, Instance(g, z, kViews[v].build(g), d, r));
    }
  }
  {
    Rng rng(4256);
    const Graph g = generators::random_connected_gnp(14, 0.25, rng);
    const AdversaryStructure z = random_structure(g.nodes(), 5, 3, NodeSet{0, 13}, rng);
    for (std::size_t v = 0; v < 3; ++v)
      run("G(n, p) p=0.25", "random-5x3", kViews[v].label,
          Instance(g, z, kViews[v].build(g), 0, 13));
  }

  // The served `simulate` kind on cold_mix's three simulate cells, against
  // every strategy: corruption is one of Z's maximal sets, as cold_mix
  // draws it, and the seed is fixed per row.
  const auto simulate = [&](const std::string& family, const std::string& zkind,
                            const std::string& views, const Instance& inst) {
    const NodeSet corrupted = inst.adversary().maximal_sets().back();
    for (const char* strategy :
         {"silent", "value-flip", "random-lies", "phantom-world", "two-faced"}) {
      const auto run_with = [&](protocols::RmtPka::DecideFn decide) {
        const auto adversary = sim::make_strategy(strategy, 2016);
        return protocols::run_rmt(inst, protocols::RmtPka(protocols::DeciderMode::kExhaustive, {},
                                                          decide),
                                  42, corrupted, adversary.get());
      };
      const auto reference = [&] { return run_with(propcheck::reference_pka_decide); };
      const auto shipped = [&] { return run_with(protocols::pka_decide); };
      measure(family, inst.num_players(), zkind, views, std::string("simulate/") + strategy,
              reference, shipped, same_outcome);
    }
  };
  {
    const Graph g = generators::parallel_paths(4, 3);
    const NodeId r = NodeId(g.num_nodes() - 1);
    simulate("4-paths h3", "1-threshold", "full",
             Instance(g, threshold_structure(g.nodes() - NodeSet{0, r}, 1), ViewFunction::full(g),
                      0, r));
  }
  for (std::size_t n : {16u, 17u, 20u})
    simulate("cycle", "trivial", "ad hoc",
             Instance::ad_hoc(generators::cycle_graph(n), AdversaryStructure::trivial(), 0,
                              NodeId(n / 2)));
  {
    const Graph g = generators::generalized_wheel(13, 2);
    simulate("wheel", "trivial", "k-hop 1",
             Instance(g, AdversaryStructure::trivial(), ViewFunction::k_hop(g, 1), 3, 9));
  }

  rep.finish("DECIDER — reference vs. shipped deciders (identical answers)");
  return 0;
}
