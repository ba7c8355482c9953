#include "src/tree/tree_space.h"

#include <algorithm>

#include "src/tree/kauri.h"

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
  pool.resize(internals_needed);
  return TreeWithInternals(n_, pool, rng).ToConfig();
}

RoleConfig TreeConfigSpace::Mutate(const RoleConfig& config,
                                   const CandidateSet& candidates, Rng& rng) const {
  // §4.2.4: internal positions may only receive replicas from K.
  std::vector<bool> eligible(n_, false);
  for (ReplicaId id : candidates.candidates) {
    if (id < n_) {
      eligible[id] = true;
    }
  }
  return MutateTree(TreeTopology::FromConfig(config), eligible, rng).ToConfig();
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
