#include "src/tree/kauri.h"

#include <algorithm>

#include "src/tree/tree_score.h"
#include "src/util/check.h"

namespace optilog {

KauriScheduler::KauriScheduler(uint32_t n, uint64_t seed) : n_(n), rng_(seed) {
  const uint32_t internals = BranchFactorFor(n) + 1;  // i = b + 1
  const uint32_t t = n / internals;                   // number of bins
  std::vector<ReplicaId> order(n);
  for (ReplicaId id = 0; id < n; ++id) {
    order[id] = id;
  }
  rng_.Shuffle(order);
  bins_.resize(t);
  for (uint32_t bin = 0; bin < t; ++bin) {
    for (uint32_t j = 0; j < internals; ++j) {
      bins_[bin].push_back(order[bin * internals + j]);
    }
  }
}

std::optional<TreeTopology> KauriScheduler::NextTree() {
  if (next_bin_ >= bins_.size()) {
    return std::nullopt;
  }
  std::vector<ReplicaId> internals = bins_[next_bin_++];
  rng_.Shuffle(internals);  // random positions within the bin
  return TreeWithInternals(n_, internals, rng_);
}

TreeTopology KauriScheduler::StarFallback() const {
  std::vector<ReplicaId> leaves;
  for (ReplicaId id = 1; id < n_; ++id) {
    leaves.push_back(id);
  }
  return TreeTopology::Build({0}, leaves);
}

TreeTopology RandomTree(uint32_t n, Rng& rng) {
  const uint32_t internals_needed = BranchFactorFor(n) + 1;
  std::vector<ReplicaId> order(n);
  for (ReplicaId id = 0; id < n; ++id) {
    order[id] = id;
  }
  rng.Shuffle(order);
  std::vector<ReplicaId> internals(order.begin(), order.begin() + internals_needed);
  std::vector<ReplicaId> leaves(order.begin() + internals_needed, order.end());
  return TreeTopology::Build(internals, leaves);
}

TreeTopology TreeWithInternals(uint32_t n, const std::vector<ReplicaId>& internals,
                               Rng& rng) {
  std::vector<ReplicaId> leaves;
  for (ReplicaId id = 0; id < n; ++id) {
    if (std::find(internals.begin(), internals.end(), id) == internals.end()) {
      leaves.push_back(id);
    }
  }
  rng.Shuffle(leaves);
  return TreeTopology::Build(internals, leaves);
}

TreeTopology MutateTree(const TreeTopology& tree, const std::vector<bool>& eligible,
                        Rng& rng) {
  std::vector<ReplicaId> internals = tree.Internals();
  std::vector<ReplicaId> leaves = tree.Leaves();
  const uint64_t move = rng.Below(3);
  if (move == 0) {
    std::vector<size_t> swappable;
    for (size_t i = 0; i < leaves.size(); ++i) {
      if (leaves[i] < eligible.size() && eligible[leaves[i]]) {
        swappable.push_back(i);
      }
    }
    if (!swappable.empty()) {
      const size_t li = swappable[rng.Below(swappable.size())];
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
  return TreeTopology::Build(internals, leaves);
}

TreeTopology AnnealTree(uint32_t n, const std::vector<ReplicaId>& internal_candidates,
                        const LatencyMatrix& latency, uint32_t k, Rng& rng,
                        const AnnealingParams& params) {
  OL_CHECK(!internal_candidates.empty());
  const uint32_t internals_needed = BranchFactorFor(n) + 1;
  OL_CHECK(internal_candidates.size() >= internals_needed);

  // Initial tree: random internals from the candidate pool.
  std::vector<ReplicaId> pool = internal_candidates;
  rng.Shuffle(pool);
  pool.resize(internals_needed);
  TreeTopology initial = TreeWithInternals(n, pool, rng);

  // Candidate membership by replica id: mutate tests every leaf against it.
  std::vector<bool> is_candidate(n, false);
  for (ReplicaId id : internal_candidates) {
    OL_CHECK(id < n);
    is_candidate[id] = true;
  }
  auto score = [&](const TreeTopology& t) { return TreeScore(t, latency, k); };
  auto mutate = [&](const TreeTopology& t, Rng& r) {
    return MutateTree(t, is_candidate, r);
  };
  return SimulatedAnnealing(std::move(initial), score, mutate, rng, params).best;
}

std::optional<TreeTopology> KauriSaScheduler::NextTree(const LatencyMatrix& latency,
                                                       const AnnealingParams& params) {
  const uint32_t internals_needed = BranchFactorFor(n_) + 1;
  std::vector<ReplicaId> candidates;
  for (ReplicaId id = 0; id < n_; ++id) {
    if (burned_.count(id) == 0) {
      candidates.push_back(id);
    }
  }
  if (candidates.size() < internals_needed) {
    return std::nullopt;
  }
  // Kauri-sa has no u estimate: it must budget for the worst case f.
  return AnnealTree(n_, candidates, latency, k_, rng_, params);
}

void KauriSaScheduler::BurnInternals(const TreeTopology& tree) {
  for (ReplicaId id : tree.Internals()) {
    burned_.insert(id);
  }
}

}  // namespace optilog
