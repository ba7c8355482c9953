#include "src/tree/tree_space.h"

#include <algorithm>

namespace optilog {

RoleConfig TreeConfigSpace::RandomConfig(const CandidateSet& candidates,
                                         Rng& rng) const {
  const uint32_t internals_needed = num_internals();
  // Internal positions come from K; everything else is a leaf.
  std::vector<ReplicaId> pool = candidates.candidates;
  rng.Shuffle(pool);
  if (pool.size() < internals_needed) {
    // Degenerate candidate set: pad with the lowest non-candidate ids so a
    // tree still exists (Valid() will reject it; callers handle fallback).
    for (ReplicaId id = 0; id < n_ && pool.size() < internals_needed; ++id) {
      if (std::find(pool.begin(), pool.end(), id) == pool.end()) {
        pool.push_back(id);
      }
    }
  }
  std::vector<ReplicaId> internals(pool.begin(), pool.begin() + internals_needed);
  std::vector<ReplicaId> leaves;
  for (ReplicaId id = 0; id < n_; ++id) {
    if (std::find(internals.begin(), internals.end(), id) == internals.end()) {
      leaves.push_back(id);
    }
  }
  rng.Shuffle(leaves);
  return TreeTopology::Build(internals, leaves).ToConfig();
}

RoleConfig TreeConfigSpace::Mutate(const RoleConfig& config,
                                   const CandidateSet& candidates, Rng& rng) const {
  const TreeTopology tree = TreeTopology::FromConfig(config);
  std::vector<ReplicaId> internals = tree.Internals();
  std::vector<ReplicaId> leaves = tree.Leaves();
  // §4.2.4: randomly swap two replicas; internal positions may only receive
  // replicas from K.
  //   move 0: swap an internal with a candidate leaf
  //   move 1: swap two leaves (changes subtree composition)
  //   move 2: swap two internals (changes which one is root)
  const uint64_t move = rng.Below(3);
  if (move == 0) {
    std::vector<size_t> leaf_candidates;
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (candidates.Contains(leaves[i])) {
        leaf_candidates.push_back(i);
      }
    }
    if (!leaf_candidates.empty()) {
      const size_t li = leaf_candidates[rng.Below(leaf_candidates.size())];
      const size_t ii = static_cast<size_t>(rng.Below(internals.size()));
      std::swap(internals[ii], leaves[li]);
    }
  } else if (move == 1 && leaves.size() >= 2) {
    const size_t a = static_cast<size_t>(rng.Below(leaves.size()));
    size_t b = static_cast<size_t>(rng.Below(leaves.size() - 1));
    if (b >= a) {
      ++b;
    }
    std::swap(leaves[a], leaves[b]);
  } else if (internals.size() >= 2) {
    const size_t a = static_cast<size_t>(rng.Below(internals.size()));
    size_t b = static_cast<size_t>(rng.Below(internals.size() - 1));
    if (b >= a) {
      ++b;
    }
    std::swap(internals[a], internals[b]);
  }
  return TreeTopology::Build(internals, leaves).ToConfig();
}

double TreeConfigSpace::Score(const RoleConfig& config, const LatencyMatrix& latency,
                              uint32_t u) const {
  const TreeTopology tree = TreeTopology::FromConfig(config);
  return TreeScore(tree, latency, k_base_ + u);
}

bool TreeConfigSpace::Valid(const RoleConfig& config,
                            const CandidateSet& candidates) const {
  const TreeTopology tree = TreeTopology::FromConfig(config);
  if (tree.size() != n_) {
    return false;
  }
  for (ReplicaId internal : tree.Internals()) {
    if (!candidates.Contains(internal)) {
      return false;
    }
  }
  return true;
}

}  // namespace optilog
