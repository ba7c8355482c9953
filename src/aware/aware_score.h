// Aware/Wheat-style weighted-vote PBFT latency prediction (§5, Appendix C
// Example C.1).
//
// The scheme (AWARE [13], WHEAT [57]): n = 3f + 1 + Delta replicas; 2f of
// them carry weight Vmax = 1 + Delta / f, the rest Vmin = 1; a weighted
// quorum needs Qv = 2f * Vmax + 1. With Delta > 0, a quorum can form from
// fewer, well-placed replicas — which is why leader and Vmax placement
// matter.
//
// The score function predicts the round duration d_rnd from the latency
// matrix exactly as Example C.1 derives the timeout requirements:
//   d_propose(A)   = L(leader, A)                                  (TR1)
//   d_write(A->B)  = d_propose(A) + L(A, B)                        (TR2)
//   prepared(B)    = fastest weighted quorum of writes at B
//   d_accept(B->C) = prepared(B) + L(B, C)                         (TR2)
//   d_rnd          = fastest weighted quorum of accepts at leader  (TR3)
//
// All latencies are matrix entries (round-trip units, matching the paper's
// convention). The estimate u from the SuspicionMonitor is honored by
// assuming the u fastest non-leader contributions never arrive.
#pragma once

#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/core/config_search.h"
#include "src/core/latency_monitor.h"
#include "src/sim/time.h"

namespace optilog {

struct WeightScheme {
  uint32_t n = 0;
  uint32_t f = 0;
  double v_max = 1.0;
  double v_min = 1.0;
  double quorum_weight = 0.0;

  // Derives the AWARE weight parameters for n replicas tolerating f faults.
  static WeightScheme For(uint32_t n, uint32_t f);
};

// Weight of replica `id` under `config` (Vmax iff config.weight_max[id]).
double WeightOf(const RoleConfig& config, const WeightScheme& scheme, ReplicaId id);

// Earliest time a weighted quorum accumulates, given per-replica arrival
// times and weights, assuming the `skip_fastest` earliest contributions are
// lost to misbehaving replicas. Returns +inf if no quorum is reachable.
// Sorts the caller's buffer in place.
double WeightedQuorumTime(std::span<std::pair<double, double>> arrivals_weights,
                          double quorum_weight, uint32_t skip_fastest);

// The TR1-TR3 deadline table of one (config, L, u), relative to the proposal
// timestamp (AwareConfigSpace::ComputeTimeouts). The per-message deadlines
// follow from it:
//   Pre-Prepare to A:  propose[A]                    (TR1)
//   Write A -> B:      propose[A] + L(A, B)          (TR2)
//   Accept B -> C:     prepared[B] + L(B, C)         (TR2)
//   round:             round_ms                      (TR3)
struct AwareTimeouts {
  std::vector<double> propose;   // d_propose, by receiver
  std::vector<double> prepared;  // fastest weighted Write quorum, by replica
  double round_ms = 0.0;         // d_rnd: fastest weighted Accept quorum at the leader
};

// The TR2 deadline d_m of every Write and Accept, per (phase, sender,
// receiver), as SimTime relative to the proposal timestamp: what a
// receiver's sensor checks a vote's arrival against (condition (b)). Built
// from one AwareTimeouts and the matrix it was computed from, so a vote
// reads one entry instead of recomputing its sum.
class AwareVoteDeadlines {
 public:
  // A vote the sensor does not check.
  static constexpr SimTime kUnobserved = std::numeric_limits<SimTime>::min();

  // Write A -> B: FromMs(propose[A] + L(A, B)); Accept B -> C:
  // FromMs(prepared[B] + L(B, C)). kUnobserved where the sender is the
  // receiver, the pair is not Known, the matrix is incomplete
  // (Coverage() < 1), or the sum is not finite.
  void Build(const AwareTimeouts& t, const LatencyMatrix& latency);

  // The Write (accept = false) or Accept deadline of `from`'s vote at `to`.
  // Sender ids come off the wire: one at or above n reads kUnobserved.
  SimTime Of(bool accept, ReplicaId from, ReplicaId to) const {
    if (from >= n_) {
      return kUnobserved;
    }
    return deadline_[(accept ? size_t{n_} * n_ : 0) + size_t{from} * n_ + to];
  }

 private:
  uint32_t n_ = 0;
  std::vector<SimTime> deadline_;  // the Writes' n x n, then the Accepts'
};

// Per-message timeouts d_m relative to the proposal timestamp (TR1-TR3), one
// at a time: the reference AwareConfigSpace's table is tested against.
double AwareProposeTimeoutMs(const RoleConfig& config, const LatencyMatrix& latency,
                             ReplicaId to);
double AwareWriteTimeoutMs(const RoleConfig& config, const LatencyMatrix& latency,
                           ReplicaId from, ReplicaId to);
double AwareAcceptTimeoutMs(const RoleConfig& config, const WeightScheme& scheme,
                            const LatencyMatrix& latency, ReplicaId from,
                            ReplicaId to, uint32_t u);

// ConfigSpace over (leader, Vmax assignment) pairs: what OptiAware anneals /
// enumerates. Special roles (leader + Vmax holders) must come from K.
//
// Scoring reads rows cached per latency-matrix version: a dense RTT table,
// and per leader (built on first use) every receiver's Write arrivals sorted
// once, with the runs of equal arrivals marked. A configuration only
// changes the weights along those rows, so a score is one weighted
// accumulate per receiver plus one sort at the leader. The cache is mutable
// state behind const methods; a space must not be shared across threads.
class AwareConfigSpace : public ConfigSpace {
 public:
  AwareConfigSpace(uint32_t n, uint32_t f) : scheme_(WeightScheme::For(n, f)) {}

  // RandomConfig, then SimulatedAnnealing over Mutate, scored at
  // candidates.u; nullopt when the random start is not Valid (an empty K).
  std::optional<ScoredConfig> Search(const CandidateSet& candidates,
                                     const LatencyMatrix& latency, Rng& rng,
                                     const AnnealingParams& params) const override;
  // The search's start: a shuffled K's first replica leads, and its first
  // 2f hold Vmax.
  RoleConfig RandomConfig(const CandidateSet& candidates, Rng& rng) const;
  // One swap that keeps the special roles inside K: a Vmax holder with a
  // candidate Vmin replica, or the leader role to another candidate.
  RoleConfig Mutate(const RoleConfig& config, const CandidateSet& candidates,
                    Rng& rng) const;
  // Predicted round duration: the round_ms of ComputeTimeouts.
  double Score(const RoleConfig& config, const LatencyMatrix& latency,
               uint32_t u) const override;
  bool Valid(const RoleConfig& config, const CandidateSet& candidates) const override;

  // Writes the TR1-TR3 deadline table of (config, latency, u) into `out`,
  // reusing its storage. config.leader must be < n.
  void ComputeTimeouts(const RoleConfig& config, const LatencyMatrix& latency,
                       uint32_t u, AwareTimeouts& out) const;

  const WeightScheme& scheme() const { return scheme_; }

 private:
  // Write arrivals under one leader: n rows of n, row b for receiver b,
  // entry a = propose(a) + L(a, b), ascending.
  struct LeaderRows {
    std::vector<ReplicaId> sender;  // who sent each sorted arrival
    std::vector<double> arrival;
    // At the first entry of each run of equal arrivals: one past its last.
    std::vector<uint32_t> run_end;
  };

  // Re-keys the cache on a new matrix version.
  void Refresh(const LatencyMatrix& latency) const;
  const LeaderRows& RowsOf(ReplicaId leader) const;
  double Rtt(ReplicaId a, ReplicaId b) const { return rtt_[size_t{a} * scheme_.n + b]; }

  const WeightScheme scheme_;
  mutable uint64_t version_ = 0;            // matrix version the cache holds
  mutable std::vector<double> rtt_;         // n x n: latency.Rtt(a, b)
  mutable std::vector<LeaderRows> rows_;    // by leader; empty until first use
  mutable std::vector<double> weight_;      // the scored config's weights
  mutable std::vector<std::pair<double, double>> accepts_;  // the leader's sort
  mutable AwareTimeouts table_;             // Score's table
};

}  // namespace optilog
