// Tree construction shared by the tree family: Kauri's random tree (§6.1.1),
// the Kauri-sa baseline of §7.5, and OptiTree's annealing search (§4.2.4).
//
//   Kauri-sa: trees are found with simulated annealing over the latency
//   matrix, but without OptiLog's candidate set or u estimate: after each
//   failed tree, *all* of its internal nodes are excluded from future
//   internal positions, and the score must budget for the worst case f.
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "src/core/annealing.h"
#include "src/core/latency_monitor.h"
#include "src/tree/topology.h"
#include "src/tree/tree_score.h"
#include "src/util/rng.h"

namespace optilog {

class KauriSaScheduler {
 public:
  KauriSaScheduler(uint32_t n, uint32_t f, uint32_t k, uint64_t seed)
      : n_(n), f_(f), k_(k), rng_(seed) {}

  // Runs SA over trees whose internals avoid every previously burned
  // replica; returns nullopt when not enough unburned replicas remain.
  std::optional<TreeTopology> NextTree(const LatencyMatrix& latency,
                                       const AnnealingParams& params);

  // Marks the internals of a failed tree as unusable.
  void BurnInternals(const TreeTopology& tree);

  const std::set<ReplicaId>& burned() const { return burned_; }

 private:
  const uint32_t n_;
  const uint32_t f_;
  const uint32_t k_;
  Rng rng_;
  std::set<ReplicaId> burned_;
};

// Convenience: a uniformly random height-3 tree over all n replicas (what
// plain Kauri effectively deploys for the no-failure baseline, §7.4).
TreeTopology RandomTree(uint32_t n, Rng& rng);

// A tree as one flat array: the internals (root first), then the leaves in
// attachment order, which Build hangs under the intermediates round-robin.
TreeTopology BuildFlat(const std::vector<ReplicaId>& ids, size_t internals);

// The flat tree with `internals` in the given order (the first is the root)
// and every other replica below n as a leaf, in shuffled order.
std::vector<ReplicaId> FlatTree(uint32_t n, const std::vector<ReplicaId>& internals,
                                Rng& rng);

// One §4.2.4 swap: the flat-tree positions it exchanged, the internal first
// when it moved a leaf up (equal when it swapped nothing).
struct TreeSwap {
  size_t a = 0, b = 0;
};

// One of the three §4.2.4 swaps, chosen at random and applied to the flat
// tree `ids`: an internal with a leaf whose `eligible` bit is set (an id at or
// beyond eligible.size() is not eligible), two leaves (changes subtree
// composition), or two internals (changes which one is root).
void MutateFlat(std::vector<ReplicaId>& ids, size_t internals,
                const std::vector<bool>& eligible, Rng& rng);

// AnnealTree's Anneal walk over a flat tree, scored in TreeScore's doubles;
// `eligible` and `latency` must outlive it. A neighbor is one MutateFlat swap
// of the current flat tree (the base). It rescans a group only when the swap
// changes its intermediate or removes its slowest leaf, and re-files only
// the groups it changed in the base's arrival order (DESIGN.md, "SA
// search-time convention").
class TreeWalk {
 public:
  TreeWalk(std::vector<ReplicaId> ids, size_t internals, const std::vector<bool>& eligible,
           const LatencyMatrix& latency, uint32_t k);

  double initial_score() const { return initial_score_; }
  double Propose(Rng& rng);
  void Accept() { accepted_ = true; }
  void SaveBest() { best_ = ids_; }
  TreeTopology Best() const { return BuildFlat(best_, internals_); }

  // The flat tree last proposed (at first, the base) and its swap.
  const std::vector<ReplicaId>& ids() const { return ids_; }
  const TreeSwap& last_swap() const { return swap_; }

 private:
  struct Group {
    double worst, up;  // worst child RTT, RTT to the root
    double arrival() const { return worst + up; }
  };
  void Refile(size_t pos);
  size_t GroupAt(size_t pos) const;
  double Worst(size_t g) const;
  void Rescan(size_t g);
  void MoveLeaf(size_t g, ReplicaId lost, ReplicaId gained);
  void Reorder(size_t g);
  void SortGroups();

  const std::vector<bool>& eligible_;
  const LatencyMatrix& latency_;
  const uint32_t k_;
  const size_t internals_;
  std::vector<ReplicaId> ids_, best_;
  std::vector<uint32_t> swappable_;  // in the base, ascending
  std::vector<uint32_t> votes_;      // per group: its leaves and intermediate
  std::vector<Group> base_, next_;   // per intermediate
  // The groups of the base and of the proposal in arrival order.
  std::vector<SubtreeArrival> order_, next_order_;
  TreeSwap swap_;
  bool accepted_ = false;
  double initial_score_ = 0.0;
};

// SA-optimized tree over an explicit candidate set; shared by OptiTree's
// deployments and config sensors (TreeConfigSpace::Search), Kauri-sa and the
// analytic benchmarks.
TreeTopology AnnealTree(uint32_t n, const std::vector<ReplicaId>& internal_candidates,
                        const LatencyMatrix& latency, uint32_t k, Rng& rng,
                        const AnnealingParams& params);

}  // namespace optilog
