#include "src/tree/kauri.h"

#include <algorithm>
#include <numeric>

#include "src/util/check.h"

namespace optilog {

TreeTopology RandomTree(uint32_t n, Rng& rng) {
  std::vector<ReplicaId> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  return BuildFlat(order, BranchFactorFor(n) + 1);
}

std::vector<ReplicaId> FlatTree(uint32_t n, const std::vector<ReplicaId>& internals,
                                Rng& rng) {
  std::vector<ReplicaId> ids;
  for (ReplicaId id = 0; id < n; ++id) {
    if (std::find(internals.begin(), internals.end(), id) == internals.end()) {
      ids.push_back(id);
    }
  }
  rng.Shuffle(ids);
  ids.insert(ids.begin(), internals.begin(), internals.end());
  return ids;
}

namespace {

bool Eligible(const std::vector<bool>& eligible, ReplicaId id) {
  return id < eligible.size() && eligible[id];
}

// Positions of the leaves whose `eligible` bit is set, ascending.
std::vector<uint32_t> Swappable(const std::vector<ReplicaId>& ids, size_t internals,
                                const std::vector<bool>& eligible) {
  std::vector<uint32_t> out;
  for (size_t i = internals; i < ids.size(); ++i) {
    if (Eligible(eligible, ids[i])) {
      out.push_back(static_cast<uint32_t>(i));
    }
  }
  return out;
}

// Two distinct positions in [first, first + size), size >= 2.
TreeSwap DrawPair(size_t first, size_t size, Rng& rng) {
  const size_t a = static_cast<size_t>(rng.Below(size));
  size_t b = static_cast<size_t>(rng.Below(size - 1));
  if (b >= a) {
    ++b;
  }
  return {first + a, first + b};
}

// Draws one of MutateFlat's swaps at random and applies it to a flat tree;
// `swappable` lists the leaf positions that may move up, ascending.
TreeSwap DrawTreeSwap(std::vector<ReplicaId>& ids, size_t internals,
                      const std::vector<uint32_t>& swappable, Rng& rng) {
  TreeSwap drawn;
  const uint64_t move = rng.Below(3);
  if (move == 0) {
    if (!swappable.empty()) {
      const size_t leaf = swappable[rng.Below(swappable.size())];
      drawn = {static_cast<size_t>(rng.Below(internals)), leaf};
    }
  } else if (move == 1 && ids.size() - internals >= 2) {
    drawn = DrawPair(internals, ids.size() - internals, rng);
  } else if (internals >= 2) {
    drawn = DrawPair(0, internals, rng);
  }
  std::swap(ids[drawn.a], ids[drawn.b]);
  return drawn;
}

}  // namespace

TreeTopology TreeWithInternals(uint32_t n, const std::vector<ReplicaId>& internals,
                               Rng& rng) {
  return BuildFlat(FlatTree(n, internals, rng), internals.size());
}

TreeTopology BuildFlat(const std::vector<ReplicaId>& ids, size_t internals) {
  return TreeTopology::Build(std::vector<ReplicaId>(ids.begin(), ids.begin() + internals),
                             std::vector<ReplicaId>(ids.begin() + internals, ids.end()));
}

void MutateFlat(std::vector<ReplicaId>& ids, size_t internals,
                const std::vector<bool>& eligible, Rng& rng) {
  DrawTreeSwap(ids, internals, Swappable(ids, internals, eligible), rng);
}

TreeTopology MutateTree(const TreeTopology& tree, const std::vector<bool>& eligible,
                        Rng& rng) {
  std::vector<ReplicaId> ids = tree.Internals();
  const size_t internals = ids.size();
  const std::vector<ReplicaId> leaves = tree.Leaves();
  ids.insert(ids.end(), leaves.begin(), leaves.end());
  MutateFlat(ids, internals, eligible, rng);
  return BuildFlat(ids, internals);
}

TreeWalk::TreeWalk(std::vector<ReplicaId> ids, size_t internals,
                   const std::vector<bool>& eligible, const LatencyMatrix& latency,
                   uint32_t k)
    : eligible_(eligible),
      latency_(latency),
      k_(k),
      internals_(internals),
      ids_(std::move(ids)),
      next_(internals - 1) {
  OL_CHECK(internals_ >= 2 && internals_ <= ids_.size());
  swappable_ = Swappable(ids_, internals_, eligible_);
  const size_t groups = next_.size();
  const size_t leaves = ids_.size() - internals_;
  for (size_t g = 0; g < groups; ++g) {
    // Build's round-robin: leaf i hangs under intermediate i mod groups.
    votes_.push_back(static_cast<uint32_t>(leaves / groups + (g < leaves % groups ? 1 : 0) + 1));
    Rescan(g);
  }
  SortGroups();
  base_ = next_;
  order_ = next_order_;
  initial_score_ = QuorumPrefix(order_, k_);
  SaveBest();
}

double TreeWalk::Propose(Rng& rng) {
  // Settle the last proposal: undo it if rejected; if accepted, it is the
  // new base with its groups and their order, and a swap of a candidate
  // with a non-candidate refiles its leaf positions in the swappable list.
  if (!accepted_) {
    std::swap(ids_[swap_.a], ids_[swap_.b]);
  } else {
    base_.swap(next_);
    order_.swap(next_order_);
    if (Eligible(eligible_, ids_[swap_.a]) != Eligible(eligible_, ids_[swap_.b])) {
      Refile(swap_.a);
      Refile(swap_.b);
    }
  }
  accepted_ = false;

  swap_ = DrawTreeSwap(ids_, internals_, swappable_, rng);
  next_ = base_;
  next_order_ = order_;
  const auto [a, b] = swap_;
  if (a == b) {
    return QuorumPrefix(next_order_, k_);
  }
  // Positions a and b now hold each other's former ids. A moved
  // intermediate rescans its group; a moved leaf updates its group unless
  // the other position is in the same group too (its intermediate, which
  // rescans it, or a leaf, which leaves its members as they were).
  size_t changed[2];
  size_t count = 0;
  for (const auto& [pos, other] : {std::pair{a, b}, std::pair{b, a}}) {
    if (pos == 0) {
      continue;
    }
    const size_t g = GroupAt(pos);
    if (pos < internals_) {
      Rescan(g);
    } else if (other != 0 && GroupAt(other) == g) {
      continue;
    } else {
      MoveLeaf(g, /*lost=*/ids_[other], /*gained=*/ids_[pos]);
    }
    changed[count++] = g;
  }
  if (a == 0 || b == 0) {
    // The root moved: every group's RTT to it changes.
    for (size_t g = 0; g < next_.size(); ++g) {
      next_[g].up = latency_.Rtt(ids_[g + 1], ids_[0]);
    }
    SortGroups();
  } else {
    for (size_t i = 0; i < count; ++i) {
      Reorder(changed[i]);
    }
  }
  return QuorumPrefix(next_order_, k_);
}

// Flat position `pos` now holds a candidate iff it held none before: a leaf
// position joins or leaves the swappable list, which stays ascending.
void TreeWalk::Refile(size_t pos) {
  if (pos < internals_) {
    return;
  }
  const auto it = std::lower_bound(swappable_.begin(), swappable_.end(), pos);
  if (Eligible(eligible_, ids_[pos])) {
    swappable_.insert(it, static_cast<uint32_t>(pos));
  } else {
    swappable_.erase(it);
  }
}

// The group flat position `pos` (not the root's) belongs to: an
// intermediate's own, or a leaf's by Build's round-robin.
size_t TreeWalk::GroupAt(size_t pos) const {
  return pos < internals_ ? pos - 1 : (pos - internals_) % next_.size();
}

// Group g's worst child RTT, scanned over its leaves.
double TreeWalk::Worst(size_t g) const {
  const size_t groups = next_.size();
  const ReplicaId inter = ids_[g + 1];
  double worst = 0.0;
  for (size_t i = internals_ + g; i < ids_.size(); i += groups) {
    worst = std::max(worst, latency_.Rtt(inter, ids_[i]));
  }
  return worst;
}

// Group g in full: its worst child RTT and its RTT to the root.
void TreeWalk::Rescan(size_t g) {
  next_[g] = {Worst(g), latency_.Rtt(ids_[g + 1], ids_[0])};
}

// Group g kept its intermediate and swapped leaf `lost` for `gained`. Its
// worst RTT w stands when `lost` was faster than w (another leaf attains
// it), and the new worst is then max(w, RTT to `gained`); otherwise the
// group is rescanned.
void TreeWalk::MoveLeaf(size_t g, ReplicaId lost, ReplicaId gained) {
  const ReplicaId inter = ids_[g + 1];
  double& worst = next_[g].worst;
  if (latency_.Rtt(inter, lost) < worst) {
    worst = std::max(worst, latency_.Rtt(inter, gained));
  } else {
    worst = Worst(g);
  }
}

// Moves group g's entry in the proposal's arrival order from its base
// arrival to its proposed one, one insertion-sort step. Entries of equal
// arrival and votes are interchangeable, so any one of them is g's.
void TreeWalk::Reorder(size_t g) {
  const double from = base_[g].arrival();
  const double to = next_[g].arrival();
  if (to == from) {
    return;
  }
  std::vector<SubtreeArrival>& order = next_order_;
  size_t i = static_cast<size_t>(
      std::lower_bound(order.begin(), order.end(), from,
                       [](const SubtreeArrival& s, double t) { return s.arrival < t; }) -
      order.begin());
  while (order[i].votes != votes_[g]) {
    ++i;
  }
  for (; i + 1 < order.size() && order[i + 1].arrival < to; ++i) {
    order[i] = order[i + 1];
  }
  for (; i > 0 && order[i - 1].arrival > to; --i) {
    order[i] = order[i - 1];
  }
  order[i] = {to, votes_[g]};
}

// The proposal's arrival order, rebuilt from every group and sorted.
void TreeWalk::SortGroups() {
  next_order_.clear();
  for (size_t g = 0; g < next_.size(); ++g) {
    next_order_.push_back({next_[g].arrival(), votes_[g]});
  }
  SortByArrival(next_order_);
}

TreeTopology AnnealTree(uint32_t n, const std::vector<ReplicaId>& internal_candidates,
                        const LatencyMatrix& latency, uint32_t k, Rng& rng,
                        const AnnealingParams& params) {
  OL_CHECK(!internal_candidates.empty());
  const uint32_t internals_needed = BranchFactorFor(n) + 1;
  OL_CHECK(internal_candidates.size() >= internals_needed);

  // Candidate membership by replica id: only these leaves may move up.
  std::vector<bool> is_candidate(n, false);
  for (ReplicaId id : internal_candidates) {
    OL_CHECK(id < n);
    is_candidate[id] = true;
  }
  // Initial tree: random internals from the candidate pool.
  std::vector<ReplicaId> pool = internal_candidates;
  rng.Shuffle(pool);
  pool.resize(internals_needed);
  TreeWalk walk(FlatTree(n, pool, rng), internals_needed, is_candidate, latency, k);
  Anneal(walk, walk.initial_score(), rng, params);
  return walk.Best();
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
