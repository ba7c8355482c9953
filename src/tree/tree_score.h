// Tree scoring (Definition 1, §6.3). TreeRsm's round timeout is TreeScore at
// its commit threshold; its aggregation deadline is Lagg (Lemma 6) over the
// children not excluded, which TreeRsm computes itself.
//
// score(k, tau) = minimum latency for the root to collect votes from k
// nodes. Following the paper, all quantities are in the units of the
// latency matrix L, which stores round-trip times: the aggregation latency
// of an intermediate I is max over children V of L(I, V), and an aggregate
// reaches the root after another L(I, R). The root's own vote is free.
//
// The min-over-subsets in Definition 1 is computed by sorting subtrees by
// their aggregate arrival time and taking the shortest prefix covering
// k - 1 nodes — any optimal subset is a prefix of that order.
#pragma once

#include <span>
#include <vector>

#include "src/core/latency_monitor.h"
#include "src/tree/topology.h"

namespace optilog {

// One subtree's aggregate at the root: when it arrives and how many votes it
// carries (a star's children are one-vote subtrees).
struct SubtreeArrival {
  double arrival;
  uint32_t votes;
};

// The reduction above in two steps, shared by TreeScore and AnnealTree's
// walk. SortByArrival puts subtrees in arrival order; QuorumPrefix then
// returns the arrival at which a prefix first carries k - 1 votes: 0 for
// k <= 1, +inf if they carry fewer. Any order of equal arrivals gives the
// same result, so a caller may keep the order by other means.
void SortByArrival(std::span<SubtreeArrival> subtrees);
double QuorumPrefix(std::span<const SubtreeArrival> sorted, uint32_t k);

// score(k, tau). Returns +inf if the tree cannot deliver k votes at all
// (e.g. unknown links or not enough subtree coverage).
double TreeScore(const TreeTopology& tree, const LatencyMatrix& latency, uint32_t k);

// Aggregation latency Lagg(I) = max over children of L(I, V).
double AggregationLatencyMs(const TreeTopology& tree, const LatencyMatrix& latency,
                            ReplicaId intermediate);

}  // namespace optilog
