// ConfigSpace implementation for tree topologies (OptiTree, §6.3): random
// trees with internal positions drawn from the candidate set, the paper's
// swap-mutation, and score(q + u, tau) as the objective.
#pragma once

#include "src/core/config_search.h"
#include "src/tree/topology.h"
#include "src/tree/tree_score.h"

namespace optilog {

class TreeConfigSpace : public ConfigSpace {
 public:
  // `k_base` is the vote target without the fault estimate: the engine's
  // CommitThreshold(), q = n - f unless votes_required sets it.
  TreeConfigSpace(uint32_t n, uint32_t k_base) : n_(n), k_base_(k_base) {}

  RoleConfig RandomConfig(const CandidateSet& candidates, Rng& rng) const override;
  RoleConfig Mutate(const RoleConfig& config, const CandidateSet& candidates,
                    Rng& rng) const override;
  double Score(const RoleConfig& config, const LatencyMatrix& latency,
               uint32_t u) const override;
  bool Valid(const RoleConfig& config, const CandidateSet& candidates) const override;

  uint32_t num_internals() const { return BranchFactorFor(n_) + 1; }

 private:
  const uint32_t n_;
  const uint32_t k_base_;
};

}  // namespace optilog
