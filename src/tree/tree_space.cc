#include "src/tree/tree_space.h"

#include "src/tree/kauri.h"

namespace optilog {

std::optional<ScoredConfig> TreeConfigSpace::Search(const CandidateSet& candidates,
                                                    const LatencyMatrix& latency,
                                                    Rng& rng,
                                                    const AnnealingParams& params) const {
  if (candidates.candidates.size() < num_internals()) {
    return std::nullopt;
  }
  RoleConfig config = AnnealTree(n_, candidates.candidates, latency,
                                 k_base_ + candidates.u, rng, params)
                          .ToConfig();
  // The monitor re-scores the decoded config: report exactly that score.
  const double score = Score(config, latency, candidates.u);
  return ScoredConfig{std::move(config), score};
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
