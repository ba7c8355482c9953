// SuspicionSensor (§4.2.3): raises timing suspicions.
//
// The underlying protocol feeds the sensor at two points: each round's
// proposal timestamp, and the arrival of a message that carries (or follows)
// its round's proposal timestamp, with that message's timeout d_m. The
// sensor raises:
//   (a) <Slow, A d L> if consecutive proposal timestamps differ by more
//       than delta * d_rnd (OnProposalTimestamp),
//   (b) <Slow, A d B> if B's message arrives later than delta * d_m after
//       the proposal timestamp (ObserveArrival),
//   (c) <False, A d B> reciprocating any committed suspicion B d A.
//
// Condition (b) is checked only when a message arrives, so a message that
// never arrives raises no suspicion.
//
// Sensors are non-deterministic by design (Table 1): they observe local
// arrival times. Their output is emitted via a callback that the sensor app
// signs and proposes to the log.
#pragma once

#include <cstdint>
#include <functional>
#include <set>

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

  // Condition (b) for a message of `phase` from `from` in `round`: suspects
  // `from` if arrival > proposal_ts + delta * d_m.
  void ObserveArrival(uint64_t round, ReplicaId from, PhaseTag phase, SimTime d_m,
                      SimTime proposal_ts, SimTime arrival);

  // A committed suspicion names us as suspect: reciprocate (condition (c)).
  void OnSuspicionAgainstSelf(const SuspicionRecord& rec);

  // Drop the per-round dedup state for rounds <= `round` (they are decided).
  void GarbageCollect(uint64_t round);

 private:
  void Emit(SuspicionType type, ReplicaId suspect, uint64_t round, PhaseTag phase);

  const ReplicaId self_;
  const double delta_;
  EmitFn emit_;

  std::set<std::pair<uint64_t, ReplicaId>> suspected_;  // per-round dedup
  std::set<ReplicaId> reciprocated_;
  uint64_t last_ts_round_ = 0;
  bool have_last_ts_ = false;
  SimTime last_ts_ = 0;
};

}  // namespace optilog
