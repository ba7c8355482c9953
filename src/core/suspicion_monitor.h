// SuspicionMonitor (§4.2.3 and the tree variant of §6.4).
//
// Consumes committed suspicion records in log order and maintains:
//   C — replicas considered crashed (suspected, never reciprocated),
//   G — the suspicion graph of two-way suspicions,
//   K — the candidate set for special roles,
//   u — the estimated number of misbehaving (non-crash) replicas.
//
// Two candidate policies:
//   kMaxIndependentSet (§4.2.3): K = maximum independent set of G over
//     V = Π \ F \ C; u = |V| - |K|. Guarantees |K| >= n - f (C1).
//   kTreeDisjointEdges (§6.4): maintain E_d (maximal set of disjoint edges)
//     and T (vertices in a triangle with an E_d edge); K = V minus E_d
//     endpoints minus T; u = |E_d| + |T|. Guarantees a working tree within
//     2f reconfigurations (CT4).
//
// Filtering (§4.2.3): per round only the earliest-phase suspicion batch is
// retained; if the (future) leader raised a suspicion in round i, proposal
// suspicions against it in round i+1 are filtered.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "src/core/graph.h"
#include "src/core/measurement.h"
#include "src/core/mis.h"
#include "src/core/misbehavior_monitor.h"

namespace optilog {

enum class CandidatePolicy {
  kMaxIndependentSet,
  kTreeDisjointEdges,
};

struct SuspicionMonitorOptions {
  CandidatePolicy policy = CandidatePolicy::kMaxIndependentSet;
  // Stability window w: with no new suspicions for this many views, old
  // suspicions are dropped one per view (pre-GST noise decay).
  uint32_t stability_window = 16;
  // Minimum candidate-set size to preserve; old suspicions are discarded
  // until satisfied. 0 -> n - f (the C1 guarantee); OptiTree sets the number
  // of internal positions instead.
  uint32_t min_candidates = 0;
  MisOptions mis;
};

struct CandidateSet {
  std::vector<ReplicaId> candidates;  // K, ascending
  uint32_t u = 0;                     // estimated misbehaving replicas
  uint64_t epoch = 0;                 // bumped whenever K or u changes

  bool Contains(ReplicaId id) const {
    return std::binary_search(candidates.begin(), candidates.end(), id);
  }
};

class SuspicionMonitor {
 public:
  SuspicionMonitor(uint32_t n, uint32_t f, const MisbehaviorMonitor* misbehavior,
                   SuspicionMonitorOptions opts = {});

  // Feed committed records (in commit order). Unsigned records are ignored.
  void OnSuspicion(const SuspicionRecord& rec, bool sig_valid);

  // Advance the view/leader-change counter: drives reciprocation timeouts
  // and the stability window.
  void OnView(uint64_t view);

  const CandidateSet& Current() const { return current_; }

  // Exposed state for tests and forensic inspection.
  const SuspicionGraph& graph() const { return graph_; }
  const std::vector<ReplicaId>& crashed() const { return crashed_order_; }
  bool IsCrashed(ReplicaId id) const { return crashed_.count(id) > 0; }
  const std::vector<EdgeKey>& disjoint_edges() const { return e_d_; }
  const std::vector<ReplicaId>& triangles() const { return t_set_; }
  uint64_t suspicions_retained() const { return retained_; }
  uint64_t suspicions_filtered() const { return filtered_; }

  // Forces recomputation of K/u; normally automatic. K and u depend only on
  // G, C and the misbehavior monitor's F, so a suspicion that adds no edge
  // leaves them as they are and recomputes nothing. Every other change to
  // the three recomputes on its own: OnView's crash verdicts and decay
  // here, and a complaint's verdict in the Pipeline.
  void Recompute();

 private:
  struct PendingEdge {
    EdgeKey edge;
    ReplicaId suspect;  // the side that must reciprocate
    uint64_t deadline_view;
  };

  bool ShouldFilter(const SuspicionRecord& rec);
  // Adds edge (a, b) and its reciprocation deadline; false if G held it.
  bool AddTwoWay(ReplicaId a, ReplicaId b, uint64_t current_view);
  void DeclareCrashed(ReplicaId id);
  void DropOldestSuspicion();
  std::vector<ReplicaId> LiveVertices() const;
  void ComputeMisCandidates(const std::vector<ReplicaId>& live);
  void ComputeTreeCandidates(const std::vector<ReplicaId>& live);

  const uint32_t n_;
  const uint32_t f_;
  const MisbehaviorMonitor* misbehavior_;
  SuspicionMonitorOptions opts_;

  SuspicionGraph graph_;
  std::set<ReplicaId> crashed_;
  std::vector<ReplicaId> crashed_order_;
  std::vector<PendingEdge> pending_;
  std::vector<EdgeKey> e_d_;
  std::vector<ReplicaId> t_set_;

  // Filtering state.
  std::map<uint64_t, PhaseTag> round_first_phase_;
  std::set<std::pair<uint64_t, ReplicaId>> leader_raised_;  // (round, suspector)
  std::set<std::pair<uint64_t, EdgeKey>> seen_in_round_;

  uint64_t view_ = 0;
  uint64_t last_suspicion_view_ = 0;
  uint64_t retained_ = 0;
  uint64_t filtered_ = 0;

  CandidateSet current_;
};

}  // namespace optilog
