// adversary/structure.hpp — monotone adversary structures (Hirt–Maurer).
//
// An adversary structure Z over the player set is a *monotone* family of
// node sets: if Z ∈ Z and Z' ⊆ Z then Z' ∈ Z (§1.3). We represent a
// structure by the antichain of its *maximal* sets, which is the standard
// compact encoding: membership is "is X a subset of some maximal set", and
// all of the paper's operations (restriction E^A, family union, the ⊕
// join) have exact antichain implementations.
//
// A structure does not carry a ground set — it is a family of subsets of
// the global id space, mirroring the paper where restrictions E^A are
// written against explicit node sets A. RestrictedStructure (oplus.hpp)
// pairs a structure with its ground set where the ⊕ algebra needs one.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "adversary/bit_matrix.hpp"
#include "graph/node_set.hpp"

namespace rmt {

class AdversaryStructure {
 public:
  /// The empty *family* — contains no set at all, not even ∅. Distinct from
  /// trivial(): a protocol-facing structure should contain ∅ ("corrupt
  /// nobody" is always admissible); Instance validation enforces that.
  AdversaryStructure() = default;

  /// The family {∅}: adversary present but unable to corrupt anyone.
  static AdversaryStructure trivial();

  /// Build from any generating collection; the result is the monotone
  /// closure (non-maximal and duplicate generators are pruned away).
  static AdversaryStructure from_sets(std::vector<NodeSet> sets);

  /// Add one admissible set (and implicitly all its subsets).
  void add(const NodeSet& s);

  /// Antichains at least this large get the SoA bit matrix built for
  /// contains(); smaller families scan maximal_ directly — the build cost
  /// (allocations + fills) never amortizes on the per-B restrictions the
  /// deciders churn through, which have a handful of maximal sets.
  static constexpr std::size_t kMatrixBuildRows = 8;

  /// Membership: X ∈ Z iff X is a subset of some maximal set.
  bool contains(const NodeSet& x) const;

  /// Batched membership: out[i] = contains(probes[i]). One call per
  /// candidate block keeps the bit matrix hot across probes.
  void probe_batch(const NodeSet* probes, std::size_t k, bool* out) const;

  /// The SoA bit-matrix view of the antichain (bit_matrix.hpp) that
  /// contains() scans. Exposed for benches/tests.
  const SubsetMatrix& matrix() const { return matrix_; }

  /// The antichain of maximal sets, canonically sorted. An empty vector
  /// means the empty family.
  const std::vector<NodeSet>& maximal_sets() const { return maximal_; }

  bool empty_family() const { return maximal_.empty(); }
  std::size_t num_maximal_sets() const { return maximal_.size(); }

  /// Largest cardinality among maximal sets (0 for trivial/empty family).
  std::size_t max_corruption_size() const { return max_size_; }

  /// Restriction Z^A = {Z ∩ A : Z ∈ Z} (§2). Monotone again; computed by
  /// intersecting the maximal sets and re-pruning.
  AdversaryStructure restricted_to(const NodeSet& a) const;

  /// Family union Z ∪ Z' (used e.g. in the Thm-8 adversary construction
  /// Z' = {...} ∪ {C₂}).
  AdversaryStructure united_with(const AdversaryStructure& o) const;

  /// All nodes mentioned by some admissible set. Cached: O(1).
  const NodeSet& support() const { return support_; }

  /// Exact equality of the represented monotone families (antichain
  /// comparison; canonical sorting makes this a vector compare).
  friend bool operator==(const AdversaryStructure& a, const AdversaryStructure& b) {
    return a.maximal_ == b.maximal_;
  }

  /// Enumerate every member set exactly once (exponential: |members| can be
  /// 2^|max set|; intended for tests on small structures). `visit` returning
  /// false stops the enumeration; returns false iff stopped.
  bool enumerate_members(const std::function<bool(const NodeSet&)>& visit) const;

  std::string to_string() const;

  /// Deep invariant check (rmt::audit): the representation really is the
  /// canonical antichain — strictly ascending (hence duplicate-free), no
  /// set contained in another, every member canonical. Throws
  /// audit::AuditError.
  void debug_validate() const;

 private:
  friend struct AuditTestAccess;  // tests corrupt internals to prove detection

  void prune_and_sort();
  void rebuild_cache();

  std::vector<NodeSet> maximal_;  // canonical: antichain, sorted ascending
  // Membership-test accelerators, derived from maximal_ (debug_validate
  // checks consistency): the support union rejects any probe with a node
  // outside ∪Z in one word-parallel subset test, the popcount cache skips
  // maximal sets too small to contain the probe, and the bit matrix is the
  // SoA layout the SIMD subset kernel scans.
  NodeSet support_;
  std::vector<std::uint32_t> sizes_;  // sizes_[i] == maximal_[i].size()
  std::uint32_t max_size_ = 0;        // max of sizes_: max_corruption_size()
  SubsetMatrix matrix_;               // popcount-bucketed SoA antichain
};

}  // namespace rmt
