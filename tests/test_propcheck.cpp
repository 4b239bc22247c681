// tests/test_propcheck.cpp — the parameterized property harness.
//
// The headline suite here is the acceptance-bar product: ONE property
// declaration swept over graph family × adversary-structure family × view
// floor × D,R placement × same-size antichain = 4·3·2·2·2 = 96 cells, with
// the per-cell seed proven to be a pure function of (root seed,
// coordinates) by running the sweep twice and recomputing one seed by
// hand. Each cell checks the shipped RMT-cut and Z-pp cut deciders against
// their references, witness for witness, and both implications, Z-CPA
// solvable ⇒ RMT solvable ⇒ full-knowledge solvable.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "adversary/threshold.hpp"
#include "analysis/feasibility.hpp"
#include "check/parameterize.hpp"
#include "exec/campaign.hpp"
#include "graph/generators.hpp"
#include "instance/instance.hpp"
#include "knowledge/view.hpp"
#include "tests/test_util.hpp"
#include "util/rng.hpp"

namespace rmt {
namespace {

using propcheck::CellFailure;
using propcheck::Result;
using propcheck::Runner;

// -- the acceptance-bar product: 4 x 3 x 2 x 2 x 2 = 96 cells ----------------

/// Structure recipe an axis can pick; realized per cell from the cell seed.
struct StructureRecipe {
  std::size_t sets = 1;
  std::size_t size = 1;
};

/// D,R placement: forward keeps the family convention (D=0, R=n-1);
/// reversed swaps them (the model is not symmetric in D and R).
struct Placement {
  bool reversed = false;
};

RMT_PARAMETERIZE(graph_families, Graph, g,
    RMT_OPTION(g, generators::parallel_paths(3, 2));
    RMT_OPTION(g, generators::generalized_wheel(7, 2));
    RMT_OPTION(g, generators::layered_graph(2, 2));
    RMT_OPTION(g, generators::barbell(3));
)

RMT_PARAMETERIZE(structure_recipes, StructureRecipe, z,
    RMT_OPTION(z, StructureRecipe{1, 1});
    RMT_OPTION(z, StructureRecipe{2, 2});
    RMT_OPTION(z, StructureRecipe{3, 2});
)

RMT_PARAMETERIZE(view_floors, std::size_t, k,
    RMT_OPTION(k, std::size_t{0});      // ad hoc
    RMT_OPTION(k, SIZE_MAX);            // full knowledge
)

RMT_PARAMETERIZE(placements, Placement, p,
    RMT_OPTION(p, Placement{false});
    RMT_OPTION(p, Placement{true});
)

/// `at_boundary` swaps the random antichain for the 2-threshold one over
/// the players: every maximal set has the same size, so each probe the
/// popcount filters see sits exactly on their threshold, and the antichain
/// width C(players, 2) runs from 6 rows on barbell to 15–21 on the wider
/// families.
RMT_PARAMETERIZE(boundary_cells, bool, at_boundary,
    RMT_OPTION(at_boundary, false);
    RMT_OPTION(at_boundary, true);
)

template <typename W>
bool same_witness(const std::optional<W>& a, const std::optional<W>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->c1 == b->c1 && a->c2 == b->c2 && a->b == b->b);
}

/// Run the differential decider property over the full 96-cell product,
/// recording each cell's seed into `seeds`.
Result sweep_decider_product(std::uint64_t root_seed,
                             std::vector<std::uint64_t>* seeds) {
  Runner runner({root_seed, /*shrink=*/true});
  Graph g;
  StructureRecipe recipe;
  std::size_t floor = 0;
  Placement place;
  bool at_boundary = false;
  return runner.check(
      [&](std::uint64_t cell_seed) {
        if (seeds) seeds->push_back(cell_seed);
        const std::size_t n = g.nodes().size();
        const NodeId d = place.reversed ? NodeId(n - 1) : NodeId(0);
        const NodeId r = place.reversed ? NodeId(0) : NodeId(n - 1);
        Rng rng(cell_seed);
        const AdversaryStructure z =
            at_boundary
                ? threshold_structure(g.nodes() - NodeSet{d, r}, 2)
                : random_structure(g.nodes(), recipe.sets, recipe.size, NodeSet{d, r}, rng);
        ViewFunction gamma = (floor == SIZE_MAX) ? ViewFunction::full(g)
                                                 : ViewFunction::ad_hoc(g);
        const Instance inst(g, z, std::move(gamma), d, r);
        const auto expect = analysis::find_rmt_cut_reference(inst);
        if (!same_witness(expect, analysis::find_rmt_cut(inst)))
          throw std::runtime_error("RMT-cut witness diverged from reference");
        const auto zpp = analysis::find_rmt_zpp_cut_reference(inst);
        if (!same_witness(zpp, analysis::find_rmt_zpp_cut(inst)))
          throw std::runtime_error("Z-pp cut witness diverged from reference");
        // The characterizations nest: Z-CPA solvable ⇒ RMT solvable ⇒
        // full-knowledge solvable. Served `analyze` skips a decider on the
        // strength of these, so every cell checks them.
        if (!zpp && expect)
          throw std::runtime_error("Z-CPA solvable but an RMT-cut exists");
        if (!expect && analysis::find_two_cover_cut(g, z, d, r))
          throw std::runtime_error("RMT solvable but a two-cover exists");
      },
      RMT_PC_AXIS(graph_families, g), RMT_PC_AXIS(structure_recipes, recipe),
      RMT_PC_AXIS(view_floors, floor), RMT_PC_AXIS(placements, place),
      RMT_PC_AXIS(boundary_cells, at_boundary));
}

TEST(Propcheck, DeciderProductSweepsAllCells) {
  std::vector<std::uint64_t> seeds;
  const Result r = sweep_decider_product(0x9c0ffee0, &seeds);
  EXPECT_TRUE(r.ok()) << r.summary();
  EXPECT_EQ(r.cells, 96u);
  EXPECT_EQ(r.shape, (std::vector<std::size_t>{4, 3, 2, 2, 2}));
  EXPECT_EQ(seeds.size(), 96u);
}

TEST(Propcheck, CellSeedsAreDeterministicAcrossSweeps) {
  std::vector<std::uint64_t> first, second;
  (void)sweep_decider_product(0x9c0ffee0, &first);
  (void)sweep_decider_product(0x9c0ffee0, &second);
  EXPECT_EQ(first, second);
  // A different root re-seeds every cell.
  std::vector<std::uint64_t> other;
  (void)sweep_decider_product(0x12345, &other);
  EXPECT_NE(first, other);
  // And the seed of a given coordinate is exactly the frozen splitmix64
  // chain folded over the coordinates — recompute cell (0,0,0,0,1) by hand.
  std::uint64_t s = 0x9c0ffee0;
  for (const std::size_t idx : {0, 0, 0, 0, 1}) s = exec::derive_seed(s, idx);
  EXPECT_EQ(first[1], s);
}

// -- shrink / minimization --------------------------------------------------

RMT_PARAMETERIZE(small_i, std::size_t, i,
    RMT_OPTION(i, std::size_t{0});
    RMT_OPTION(i, std::size_t{1});
    RMT_OPTION(i, std::size_t{2});
)

RMT_PARAMETERIZE(small_j, std::size_t, j,
    RMT_OPTION(j, std::size_t{0});
    RMT_OPTION(j, std::size_t{1});
    RMT_OPTION(j, std::size_t{2});
    RMT_OPTION(j, std::size_t{3});
)

TEST(Propcheck, ShrinkFindsLexicographicallyLeastFailingCell) {
  Runner runner;
  std::size_t i = 0, j = 0;
  const Result r = runner.check(
      [&](std::uint64_t) {
        if (i >= 1 && j >= 2) throw std::runtime_error("upper-right corner fails");
      },
      RMT_PC_AXIS(small_i, i), RMT_PC_AXIS(small_j, j));
  EXPECT_EQ(r.cells, 12u);
  ASSERT_EQ(r.failures.size(), 4u);  // (1,2) (1,3) (2,2) (2,3)
  ASSERT_TRUE(r.minimal.has_value());
  EXPECT_EQ(r.minimal->coord, (std::vector<std::size_t>{1, 2}));
  EXPECT_TRUE(r.minimal_reproduced) << r.summary();
  EXPECT_EQ(r.minimal->message, "upper-right corner fails");
  // Labels carry the option expressions for a human repro.
  EXPECT_NE(r.minimal->labels.find("i = std::size_t{1}"), std::string::npos);
  EXPECT_NE(r.minimal->labels.find("j = std::size_t{2}"), std::string::npos);
  // And the summary names the minimal cell.
  EXPECT_NE(r.summary().find("minimal failing cell [1,2]"), std::string::npos);
  EXPECT_NE(r.summary().find("(reproduced)"), std::string::npos);
}

TEST(Propcheck, BoolReturningPropertyFailsOnFalse) {
  Runner runner;
  std::size_t i = 0, j = 0;
  const Result r = runner.check(
      [&](std::uint64_t) { return !(i == 2 && j == 3); },
      RMT_PC_AXIS(small_i, i), RMT_PC_AXIS(small_j, j));
  ASSERT_EQ(r.failures.size(), 1u);
  EXPECT_EQ(r.failures.front().coord, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(r.failures.front().message, "");  // returned false, no throw
  ASSERT_TRUE(r.minimal.has_value());
  EXPECT_TRUE(r.minimal_reproduced);
}

TEST(Propcheck, TargetedModeRunsExactlyOneCell) {
  Runner runner;
  std::size_t i = 0, j = 0;
  // Sweep once to learn the seed the harness assigns to (2, 1).
  std::map<std::vector<std::size_t>, std::uint64_t> seeds;
  (void)runner.check(
      [&](std::uint64_t seed) {
        seeds[std::vector<std::size_t>(runner.coord())] = seed;
        return true;
      },
      RMT_PC_AXIS(small_i, i), RMT_PC_AXIS(small_j, j));
  ASSERT_EQ(seeds.size(), 12u);

  std::size_t runs = 0;
  std::uint64_t targeted_seed = 0;
  runner.run_cell(
      {2, 1},
      [&] {
        ++runs;
        targeted_seed = runner.cell_seed();
        EXPECT_EQ(i, 2u);
        EXPECT_EQ(j, 1u);
      },
      RMT_PC_AXIS(small_i, i), RMT_PC_AXIS(small_j, j));
  EXPECT_EQ(runs, 1u);
  EXPECT_EQ(targeted_seed, seeds.at({2, 1}));
}

TEST(Propcheck, CleanSweepReportsNoMinimal) {
  Runner runner;
  std::size_t i = 0, j = 0;
  const Result r = runner.check([&](std::uint64_t) {}, RMT_PC_AXIS(small_i, i),
                                RMT_PC_AXIS(small_j, j));
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.minimal.has_value());
  EXPECT_EQ(r.summary(), "propcheck: 12 cells (3x4), 0 failing");
}

}  // namespace
}  // namespace rmt
