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

void SortByArrival(std::span<SubtreeArrival> subtrees) {
  std::sort(subtrees.begin(), subtrees.end(),
            [](const SubtreeArrival& a, const SubtreeArrival& b) {
              return a.arrival < b.arrival;
            });
}

double QuorumPrefix(std::span<const SubtreeArrival> sorted, uint32_t k) {
  if (k <= 1) {
    return 0.0;  // the root's own vote suffices
  }
  uint32_t covered = 0;
  for (const SubtreeArrival& s : sorted) {
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
  SortByArrival(subtrees);
  return QuorumPrefix(subtrees, k);
}

}  // namespace optilog
