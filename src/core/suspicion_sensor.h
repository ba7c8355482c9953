// SuspicionSensor (§4.2.3): raises timing suspicions.
//
// The underlying protocol feeds the sensor with (1) proposal timestamps at
// round start, (2) per-message expectations — "message of phase P from B
// should arrive within d_m of the round's proposal timestamp" — and (3)
// actual arrivals. The sensor raises:
//   (a) <Slow, A d L> if consecutive proposal timestamps differ by more
//       than delta * d_rnd,
//   (b) <Slow, A d B> if an expected message is not seen within
//       delta * d_m after the proposal timestamp,
//   (c) <False, A d B> reciprocating any committed suspicion B d A.
//
// Sensors are non-deterministic by design (Table 1): they observe local
// arrival times. Their output is emitted via a callback that the sensor app
// signs and proposes to the log.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/core/measurement.h"
#include "src/sim/time.h"

namespace optilog {

class SuspicionSensor {
 public:
  using EmitFn = std::function<void(const SuspicionRecord&)>;

  SuspicionSensor(ReplicaId self, double delta, EmitFn emit)
      : self_(self), delta_(delta), emit_(std::move(emit)) {}

  // Round start: the leader's proposal timestamp and the expected round
  // duration for the active configuration. Checks condition (a) against the
  // previous round's timestamp.
  void OnProposalTimestamp(uint64_t round, ReplicaId leader, SimTime timestamp,
                           SimTime expected_round_duration);

  // Registers an expectation: a message of `phase` from `from` must arrive
  // within delta * d_m of the round's proposal timestamp.
  void ExpectMessage(uint64_t round, ReplicaId from, PhaseTag phase, SimTime d_m);

  // Marks the expectation met (arrival before the deadline also cancels a
  // later CheckDeadlines sweep for it).
  void OnMessageArrived(uint64_t round, ReplicaId from, PhaseTag phase);

  // Retrospective variant of condition (b) for messages that carry their
  // round's proposal timestamp (e.g. the Pre-Prepare itself): suspects
  // `from` if arrival > proposal_ts + delta * d_m.
  void ObserveArrival(uint64_t round, ReplicaId from, PhaseTag phase, SimTime d_m,
                      SimTime proposal_ts, SimTime arrival);

  // Sweeps expired expectations; protocols call this from their round timer.
  void CheckDeadlines(SimTime now);

  // A committed suspicion names us as suspect: reciprocate (condition (c)).
  void OnSuspicionAgainstSelf(const SuspicionRecord& rec);

  // Drop state for rounds <= `round` (they are decided).
  void GarbageCollect(uint64_t round);

 private:
  struct Expectation {
    uint64_t round;
    ReplicaId from;
    PhaseTag phase;
    SimTime deadline;
    bool met = false;
    bool suspected = false;
  };

  void Emit(SuspicionType type, ReplicaId suspect, uint64_t round, PhaseTag phase);

  const ReplicaId self_;
  const double delta_;
  EmitFn emit_;

  std::map<uint64_t, SimTime> proposal_ts_;  // round -> timestamp
  std::vector<Expectation> expectations_;
  std::set<std::pair<uint64_t, ReplicaId>> suspected_;  // per-round dedup
  std::set<ReplicaId> reciprocated_;
  uint64_t last_ts_round_ = 0;
  bool have_last_ts_ = false;
  SimTime last_ts_ = 0;
};

}  // namespace optilog
