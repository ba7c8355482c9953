#include "src/core/suspicion_sensor.h"

namespace optilog {

void SuspicionSensor::Emit(SuspicionType type, ReplicaId suspect, uint64_t round,
                           PhaseTag phase) {
  if (suspect == self_) {
    return;
  }
  if (type == SuspicionType::kSlow &&
      !suspected_.insert({round, suspect}).second) {
    return;  // at most one Slow per (round, suspect)
  }
  SuspicionRecord rec;
  rec.type = type;
  rec.suspector = self_;
  rec.suspect = suspect;
  rec.round = round;
  rec.phase = phase;
  emit_(rec);
}

void SuspicionSensor::OnProposalTimestamp(uint64_t round, ReplicaId leader,
                                          SimTime timestamp,
                                          SimTime expected_round_duration) {
  if (have_last_ts_ && round == last_ts_round_ + 1) {
    // Condition (a): consecutive proposal timestamps within delta * d_rnd.
    const SimTime gap = timestamp - last_ts_;
    const SimTime allowed =
        static_cast<SimTime>(delta_ * static_cast<double>(expected_round_duration));
    if (gap > allowed) {
      Emit(SuspicionType::kSlow, leader, round, PhaseTag::kProposal);
    }
  }
  have_last_ts_ = true;
  last_ts_round_ = round;
  last_ts_ = timestamp;
}

void SuspicionSensor::ObserveArrival(uint64_t round, ReplicaId from, PhaseTag phase,
                                     SimTime d_m, SimTime proposal_ts,
                                     SimTime arrival) {
  const SimTime deadline =
      proposal_ts + static_cast<SimTime>(delta_ * static_cast<double>(d_m));
  if (arrival > deadline) {
    Emit(SuspicionType::kSlow, from, round, phase);
  }
}

void SuspicionSensor::OnSuspicionAgainstSelf(const SuspicionRecord& rec) {
  if (rec.suspect != self_ || rec.type != SuspicionType::kSlow) {
    return;
  }
  // Reciprocate once per accuser; repeated accusations do not spam the log.
  if (!reciprocated_.insert(rec.suspector).second) {
    return;
  }
  Emit(SuspicionType::kFalse, rec.suspector, rec.round, rec.phase);
}

void SuspicionSensor::GarbageCollect(uint64_t round) {
  while (!suspected_.empty() && suspected_.begin()->first <= round) {
    suspected_.erase(suspected_.begin());
  }
}

}  // namespace optilog
