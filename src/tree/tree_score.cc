#include "src/tree/tree_score.h"

#include <algorithm>
#include <limits>

namespace optilog {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

double AggregationLatencyMs(const TreeTopology& tree, const LatencyMatrix& latency,
                            ReplicaId intermediate) {
  double worst = 0.0;
  for (ReplicaId child : tree.ChildrenOf(intermediate)) {
    worst = std::max(worst, latency.Rtt(intermediate, child));
  }
  return worst;
}

double QuorumArrival(std::span<SubtreeArrival> subtrees, uint32_t k) {
  if (k <= 1) {
    return 0.0;  // the root's own vote suffices
  }
  std::sort(subtrees.begin(), subtrees.end(),
            [](const SubtreeArrival& a, const SubtreeArrival& b) {
              return a.arrival < b.arrival;
            });
  uint32_t covered = 0;
  for (const SubtreeArrival& s : subtrees) {
    covered += s.votes;
    if (covered >= k - 1) {
      return s.arrival;
    }
  }
  return kInf;
}

double TreeScore(const TreeTopology& tree, const LatencyMatrix& latency, uint32_t k) {
  // Each subtree's aggregate carries its children's votes and its
  // intermediate's; a star's children (no intermediates) vote directly.
  std::vector<SubtreeArrival> subtrees;
  subtrees.reserve(tree.ChildrenOf(tree.root()).size());
  if (tree.intermediates().empty()) {
    for (ReplicaId child : tree.ChildrenOf(tree.root())) {
      subtrees.push_back({latency.Rtt(tree.root(), child), 1});
    }
  }
  for (ReplicaId inter : tree.intermediates()) {
    subtrees.push_back(
        {AggregationLatencyMs(tree, latency, inter) + latency.Rtt(inter, tree.root()),
         static_cast<uint32_t>(tree.ChildrenOf(inter).size()) + 1});
  }
  return QuorumArrival(subtrees, k);
}

double TreeRoundDurationMs(const TreeTopology& tree, const LatencyMatrix& latency,
                           uint32_t q, uint32_t u) {
  return TreeScore(tree, latency, q + u);
}

double TreeProposeTimeoutMs(const TreeTopology& tree, const LatencyMatrix& latency,
                            ReplicaId intermediate) {
  return latency.Rtt(tree.root(), intermediate);
}

double TreeForwardTimeoutMs(const TreeTopology& tree, const LatencyMatrix& latency,
                            ReplicaId leaf) {
  const ReplicaId parent = tree.ParentOf(leaf);
  return latency.Rtt(tree.root(), parent) + latency.Rtt(parent, leaf);
}

double TreeVoteTimeoutMs(const TreeTopology& tree, const LatencyMatrix& latency,
                         ReplicaId leaf) {
  const ReplicaId parent = tree.ParentOf(leaf);
  return latency.Rtt(tree.root(), parent) + 2.0 * latency.Rtt(parent, leaf);
}

double TreeAggregateTimeoutMs(const TreeTopology& tree, const LatencyMatrix& latency,
                              ReplicaId intermediate) {
  return latency.Rtt(tree.root(), intermediate) +
         AggregationLatencyMs(tree, latency, intermediate) +
         latency.Rtt(intermediate, tree.root());
}

}  // namespace optilog
