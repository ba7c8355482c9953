#include "src/core/suspicion_sensor.h"

#include <algorithm>

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
  proposal_ts_[round] = timestamp;
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

void SuspicionSensor::ExpectMessage(uint64_t round, ReplicaId from, PhaseTag phase,
                                    SimTime d_m) {
  auto ts = proposal_ts_.find(round);
  if (ts == proposal_ts_.end()) {
    return;  // no reference point yet; protocol registers after timestamp
  }
  Expectation e;
  e.round = round;
  e.from = from;
  e.phase = phase;
  e.deadline = ts->second + static_cast<SimTime>(delta_ * static_cast<double>(d_m));
  expectations_.push_back(e);
}

void SuspicionSensor::OnMessageArrived(uint64_t round, ReplicaId from,
                                       PhaseTag phase) {
  for (Expectation& e : expectations_) {
    if (e.round == round && e.from == from && e.phase == phase && !e.met) {
      e.met = true;
      return;
    }
  }
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

void SuspicionSensor::CheckDeadlines(SimTime now) {
  for (Expectation& e : expectations_) {
    if (!e.met && !e.suspected && now > e.deadline) {
      e.suspected = true;
      Emit(SuspicionType::kSlow, e.from, e.round, e.phase);
    }
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
  expectations_.erase(
      std::remove_if(expectations_.begin(), expectations_.end(),
                     [round](const Expectation& e) { return e.round <= round; }),
      expectations_.end());
  proposal_ts_.erase(proposal_ts_.begin(), proposal_ts_.upper_bound(round));
  while (!suspected_.empty() && suspected_.begin()->first <= round) {
    suspected_.erase(suspected_.begin());
  }
}

}  // namespace optilog
