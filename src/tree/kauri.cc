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
  std::vector<ReplicaId> leaves;
  for (ReplicaId id = 0; id < n_; ++id) {
    if (std::find(internals.begin(), internals.end(), id) == internals.end()) {
      leaves.push_back(id);
    }
  }
  rng_.Shuffle(leaves);
  return TreeTopology::Build(internals, leaves);
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

TreeTopology AnnealTree(uint32_t n, const std::vector<ReplicaId>& internal_candidates,
                        const LatencyMatrix& latency, uint32_t k, Rng& rng,
                        const AnnealingParams& params) {
  OL_CHECK(!internal_candidates.empty());
  const uint32_t internals_needed = BranchFactorFor(n) + 1;
  OL_CHECK(internal_candidates.size() >= internals_needed);

  // Initial tree: random internals from the candidate pool.
  std::vector<ReplicaId> pool = internal_candidates;
  rng.Shuffle(pool);
  std::vector<ReplicaId> internals(pool.begin(), pool.begin() + internals_needed);
  std::vector<ReplicaId> leaves;
  for (ReplicaId id = 0; id < n; ++id) {
    if (std::find(internals.begin(), internals.end(), id) == internals.end()) {
      leaves.push_back(id);
    }
  }
  rng.Shuffle(leaves);
  TreeTopology initial = TreeTopology::Build(internals, leaves);

  // Candidate membership by replica id: mutate tests every leaf against it.
  std::vector<bool> is_candidate(n, false);
  for (ReplicaId id : internal_candidates) {
    OL_CHECK(id < n);
    is_candidate[id] = true;
  }
  auto score = [&](const TreeTopology& t) { return TreeScore(t, latency, k); };
  auto mutate = [&](const TreeTopology& t, Rng& r) {
    std::vector<ReplicaId> ints = t.Internals();
    std::vector<ReplicaId> lvs = t.Leaves();
    const uint64_t move = r.Below(3);
    if (move == 0) {
      std::vector<size_t> eligible;
      for (size_t i = 0; i < lvs.size(); ++i) {
        if (is_candidate[lvs[i]]) {
          eligible.push_back(i);
        }
      }
      if (!eligible.empty()) {
        const size_t li = eligible[r.Below(eligible.size())];
        const size_t ii = static_cast<size_t>(r.Below(ints.size()));
        std::swap(ints[ii], lvs[li]);
      }
    } else if (move == 1 && lvs.size() >= 2) {
      const size_t a = static_cast<size_t>(r.Below(lvs.size()));
      size_t b = static_cast<size_t>(r.Below(lvs.size() - 1));
      if (b >= a) {
        ++b;
      }
      std::swap(lvs[a], lvs[b]);
    } else if (ints.size() >= 2) {
      const size_t a = static_cast<size_t>(r.Below(ints.size()));
      size_t b = static_cast<size_t>(r.Below(ints.size() - 1));
      if (b >= a) {
        ++b;
      }
      std::swap(ints[a], ints[b]);
    }
    return TreeTopology::Build(ints, lvs);
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
