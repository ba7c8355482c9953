#include "src/statemachine/group.h"

#include <algorithm>

#include "src/util/check.h"

namespace optilog {

RsmGroup::RsmGroup(Simulator* sim, Network* net, const FaultModel* faults,
                   uint32_t n, StateMachineOptions opts)
    : sim_(sim), net_(net), faults_(faults), n_(n), opts_(std::move(opts)) {
  OL_CHECK(n_ >= 1);
  OL_CHECK(opts_.transfer_chunk_bytes > 0);
  rsms_.reserve(n_);
  for (ReplicaId id = 0; id < n_; ++id) {
    rsms_.push_back(std::make_unique<ReplicaRsm>(id, opts_.checkpoint));
  }
  sessions_.resize(n_);
}

void RsmGroup::CommitAll(ReplicaId proposer, const BatchRecordPtr& record,
                         SimTime now, ReplyFn reply) {
  const uint64_t seq = next_seq_++;
  // The record's payload, decoded ops and chain step are pure functions of
  // the batch: built once, applied by every replica to its own state. Only
  // the first replica at this index encodes results and replies.
  for (ReplicaId id = 0; id < n_; ++id) {
    if (faults_->IsCrashedAt(id, now) || sessions_[id].active) {
      continue;  // missed entries arrive later via snapshot + suffix
    }
    if (reply && rsms_[id]->applied() == seq) {
      rsms_[id]->Commit(seq, proposer, record, now, std::move(reply));
      reply = nullptr;
    } else {
      rsms_[id]->Commit(seq, proposer, record, now, nullptr);
    }
  }
  if (reply) {
    for (const RequestRef& req : record->requests()) {
      reply(req, Bytes{});  // no replica executed this index
    }
  }
}

void RsmGroup::CommitAt(ReplicaId id, uint64_t seq, ReplicaId proposer,
                        BatchRecordPtr record, SimTime now, ReplyFn on_reply) {
  OL_CHECK(id < n_);
  rsms_[id]->Commit(seq, proposer, std::move(record), now, std::move(on_reply));
}

void RsmGroup::ScheduleRecovery(ReplicaId id, SimTime recover_at) {
  OL_CHECK(id < n_);
  OL_CHECK_MSG(recover_at > faults_->Of(id).crash_at,
               "recover_at must follow crash_at");
  sim_->ScheduleTimerAt(recover_at, this, RestartTag(id));
}

void RsmGroup::RequestCatchup(ReplicaId id, uint64_t decided_seq) {
  OL_CHECK(id < n_);
  Session& s = sessions_[id];
  if (s.active) {
    // The running session (recovery or catch-up) must now reach past the
    // newly-learned decided entry before it may complete.
    s.min_frontier = std::max(s.min_frontier, decided_seq + 1);
    return;
  }
  ++catchups_started_;
  BeginSession(id, sim_->now(), /*is_recovery=*/false);
  sessions_[id].min_frontier = decided_seq + 1;
}

void RsmGroup::BeginRecovery(ReplicaId id, SimTime now) {
  ++recoveries_started_;
  rsms_[id]->Amnesia();
  BeginSession(id, now, /*is_recovery=*/true);
}

void RsmGroup::BeginSession(ReplicaId id, SimTime now, bool is_recovery) {
  Session& s = sessions_[id];
  s = Session{};
  s.active = true;
  s.is_recovery = is_recovery;
  // A recovery needs the snapshot; a catch-up already holds a verified
  // prefix and only lacks the suffix.
  s.phase = is_recovery ? Phase::kSnapshot : Phase::kSuffix;
  s.session = ++session_counter_;
  s.started_at = now;
  s.donor = NextDonor(id, id, now);
  SendCurrentRequest(id);
}

ReplicaId RsmGroup::NextDonor(ReplicaId id, ReplicaId after,
                              SimTime now) const {
  for (uint32_t step = 1; step <= n_; ++step) {
    const ReplicaId candidate = (after + step) % n_;
    if (candidate == id) {
      continue;
    }
    if (faults_->IsCrashedAt(candidate, now) || sessions_[candidate].active) {
      continue;  // crashed or itself catching up: cannot donate
    }
    return candidate;
  }
  return kNoReplica;
}

void RsmGroup::SendCurrentRequest(ReplicaId id) {
  Session& s = sessions_[id];
  if (s.donor == kNoReplica) {
    // No live donor right now; retry after a timeout's worth of waiting.
    ArmTimeout(id);
    return;
  }
  if (s.phase == Phase::kSnapshot) {
    auto req = sim_->pool().Make<StateFetchMsg>();
    req->session = s.session;
    req->chunk = s.next_chunk;
    req->have_partial = s.have_meta;
    req->through_index = s.through_index;
    req->state_digest = s.state_digest;
    net_->Send(id, s.donor, std::move(req));
  } else {
    auto req = sim_->pool().Make<LogSuffixFetchMsg>();
    req->session = s.session;
    req->from_index = rsms_[id]->applied();
    net_->Send(id, s.donor, std::move(req));
  }
  ArmTimeout(id);
}

// Donor silence longer than this re-routes the session to the next donor.
constexpr SimTime kTransferTimeout = 500 * kMsec;

void RsmGroup::ArmTimeout(ReplicaId id) {
  Session& s = sessions_[id];
  if (s.timeout != kNoEvent) {
    sim_->Cancel(s.timeout);
  }
  s.timeout = sim_->ScheduleTimer(this, TimeoutTag(id), kTransferTimeout);
}

void RsmGroup::OnTimer(uint64_t tag, SimTime at) {
  const ReplicaId id = static_cast<ReplicaId>(tag / 2);
  OL_CHECK(id < n_);
  if (tag % 2 == 0) {
    // recover_at fired: the process restarts amnesiac. Ignore if the
    // operator scheduled a recovery for a replica that never crashed.
    if (faults_->Of(id).crash_at <= at && !sessions_[id].active) {
      BeginRecovery(id, at);
    }
    return;
  }
  // Transfer timeout: the donor crashed or went silent — re-route to the
  // next live donor and re-issue the current request. Progress (snapshot
  // chunks, replayed suffix) is kept; a donor on the same checkpoint
  // resumes where the dead one stopped.
  Session& s = sessions_[id];
  if (!s.active) {
    return;
  }
  s.timeout = kNoEvent;
  const ReplicaId next = NextDonor(id, s.donor == kNoReplica ? id : s.donor, at);
  if (next != s.donor && next != kNoReplica) {
    ++transfer_reroutes_;
  }
  s.donor = next;
  SendCurrentRequest(id);
}

void RsmGroup::OnStateMessage(ReplicaId receiver, ReplicaId from,
                              const MessagePtr& msg, SimTime at) {
  switch (msg->type()) {
    case kMsgStateFetch:
      ServeStateFetch(receiver, from, static_cast<const StateFetchMsg&>(*msg));
      break;
    case kMsgLogSuffixFetch:
      ServeSuffixFetch(receiver, from,
                       static_cast<const LogSuffixFetchMsg&>(*msg));
      break;
    case kMsgStateChunk:
      OnStateChunk(receiver, static_cast<const StateChunkMsg&>(*msg), at);
      break;
    case kMsgLogSuffixChunk:
      OnSuffixChunk(receiver, static_cast<const LogSuffixChunkMsg&>(*msg), at);
      break;
    default:
      break;
  }
}

// --- donor side --------------------------------------------------------------

void RsmGroup::ServeStateFetch(ReplicaId donor, ReplicaId to,
                               const StateFetchMsg& req) {
  if (sessions_[donor].active) {
    return;  // mid-session replicas hold no usable state; requester re-routes
  }
  const ReplicaRsm& rsm = *rsms_[donor];
  auto reply = sim_->pool().Make<StateChunkMsg>();
  reply->session = req.session;
  const std::optional<Checkpoint>& cp = rsm.latest_checkpoint();
  if (!cp.has_value()) {
    // Nothing snapshotted yet: the requester streams the full log instead.
    reply->has_checkpoint = false;
    net_->Send(donor, to, std::move(reply));
    return;
  }
  reply->has_checkpoint = true;
  reply->through_index = cp->through_index;
  reply->state_digest = cp->state_digest;
  reply->log_head = cp->log_head;
  const size_t chunk_bytes = opts_.transfer_chunk_bytes;
  const uint64_t total =
      std::max<uint64_t>(1, (cp->state.size() + chunk_bytes - 1) / chunk_bytes);
  reply->total_chunks = total;
  // A requester mid-download of a checkpoint this donor no longer holds
  // asks for a chunk that may be out of range here; serve chunk 0 of the
  // current checkpoint and let it restart the download.
  const bool same_checkpoint = req.have_partial &&
                               req.through_index == cp->through_index &&
                               req.state_digest == cp->state_digest;
  reply->chunk = (same_checkpoint && req.chunk < total) ? req.chunk : 0;
  const size_t begin = static_cast<size_t>(reply->chunk) * chunk_bytes;
  const size_t end = std::min(cp->state.size(), begin + chunk_bytes);
  reply->data.assign(cp->state.begin() + static_cast<long>(begin),
                     cp->state.begin() + static_cast<long>(end));
  net_->Send(donor, to, std::move(reply));
}

// Log entries per LogSuffixChunk.
constexpr uint32_t kSuffixChunkEntries = 64;

void RsmGroup::ServeSuffixFetch(ReplicaId donor, ReplicaId to,
                                const LogSuffixFetchMsg& req) {
  if (sessions_[donor].active) {
    return;
  }
  const Log& log = rsms_[donor]->log();
  auto reply = sim_->pool().Make<LogSuffixChunkMsg>();
  reply->session = req.session;
  reply->from_index = req.from_index;
  reply->donor_frontier = log.next_index();
  if (req.from_index < log.base_index()) {
    // This donor already truncated the requested range into a checkpoint;
    // the requester must restart from a snapshot.
    reply->truncated_past = true;
    net_->Send(donor, to, std::move(reply));
    return;
  }
  const uint64_t end = std::min<uint64_t>(
      log.next_index(), req.from_index + kSuffixChunkEntries);
  for (uint64_t i = req.from_index; i < end; ++i) {
    reply->entries.push_back(log.EntryAt(i));
  }
  reply->head_after = end > req.from_index ? log.HeadAt(end - 1) : log.head();
  net_->Send(donor, to, std::move(reply));
}

// --- recoverer side ----------------------------------------------------------

void RsmGroup::OnStateChunk(ReplicaId id, const StateChunkMsg& msg,
                            SimTime at) {
  Session& s = sessions_[id];
  if (!s.active || s.phase != Phase::kSnapshot || msg.session != s.session) {
    return;  // stale reply from an abandoned donor/session
  }
  ++transfer_chunks_;
  transfer_bytes_ += msg.WireSize();
  if (TraceRecorder* tr = sim_->trace()) {
    tr->EmitHere(at, TraceKind::kRecoveryChunk, /*snapshot=*/1, id, msg.chunk,
                 msg.WireSize());
  }
  if (!msg.has_checkpoint) {
    // Donor has no snapshot: replay its full log from index 0 instead (the
    // amnesiac log is already based at 0).
    s.phase = Phase::kSuffix;
    SendCurrentRequest(id);
    return;
  }
  const bool same_checkpoint = s.have_meta &&
                               msg.through_index == s.through_index &&
                               msg.state_digest == s.state_digest;
  if (!same_checkpoint) {
    // First chunk, or the donor checkpointed past our partial download:
    // restart the buffer on the new checkpoint's identity.
    s.have_meta = true;
    s.through_index = msg.through_index;
    s.state_digest = msg.state_digest;
    s.log_head = msg.log_head;
    s.total_chunks = msg.total_chunks;
    s.next_chunk = 0;
    s.buffer.clear();
  }
  if (msg.chunk != s.next_chunk) {
    SendCurrentRequest(id);  // not the chunk we need next: re-request
    return;
  }
  s.buffer.insert(s.buffer.end(), msg.data.begin(), msg.data.end());
  ++s.next_chunk;
  if (s.next_chunk < s.total_chunks) {
    SendCurrentRequest(id);
    return;
  }
  // Snapshot complete: verify the digest before trusting a byte of it.
  if (CpuMeter* cpu = net_->cpu()) {
    cpu->ChargeHash(id, at, s.buffer.size());
  }
  if (Sha256::Hash(s.buffer) != s.state_digest) {
    RestartSession(id, at);  // corrupt/byzantine donor: start over elsewhere
    return;
  }
  Checkpoint cp;
  cp.through_index = s.through_index;
  cp.state_digest = s.state_digest;
  cp.log_head = s.log_head;
  cp.state = std::move(s.buffer);
  s.buffer = Bytes{};
  rsms_[id]->InstallSnapshot(cp);
  s.phase = Phase::kSuffix;
  SendCurrentRequest(id);
}

void RsmGroup::OnSuffixChunk(ReplicaId id, const LogSuffixChunkMsg& msg,
                             SimTime at) {
  Session& s = sessions_[id];
  if (!s.active || s.phase != Phase::kSuffix || msg.session != s.session) {
    return;
  }
  ++transfer_chunks_;
  transfer_bytes_ += msg.WireSize();
  if (TraceRecorder* tr = sim_->trace()) {
    tr->EmitHere(at, TraceKind::kRecoveryChunk, /*suffix=*/2, id,
                 msg.from_index, msg.WireSize());
  }
  if (msg.truncated_past) {
    // The donor checkpointed while we streamed: its remaining suffix starts
    // past our frontier. Restart from its snapshot.
    RestartSession(id, at);
    return;
  }
  if (msg.from_index != rsms_[id]->applied()) {
    SendCurrentRequest(id);  // stale offset (e.g. duplicate reply): re-ask
    return;
  }
  for (const LogEntry& entry : msg.entries) {
    if (!rsms_[id]->ReplayEntry(entry)) {
      RestartSession(id, at);
      return;
    }
  }
  // Chain verification: our recomputed head after this chunk must match the
  // head the donor quoted for the same index.
  if (!msg.entries.empty() && rsms_[id]->log().head() != msg.head_after) {
    RestartSession(id, at);
    return;
  }
  // Done when we reached the donor's frontier — and, for the tree family's
  // centrally-executed commits, the group's own commit counter (a tree
  // replica rejoins execution only on completion, so completing short of
  // next_seq_ would leave a permanent gap). A PBFT recoverer at its donor's
  // frontier picks up the in-flight tail through its own live
  // participation (buffered commits drain in order; a missed Pre-Prepare
  // triggers the catch-up repair).
  const uint64_t needed =
      std::max({msg.donor_frontier, next_seq_, s.min_frontier});
  if (rsms_[id]->applied() < needed) {
    if (msg.entries.empty()) {
      // This donor is itself behind and sent nothing. Back off to the
      // timeout (which also rotates donors) instead of re-asking
      // immediately — a colocated zero-latency donor would otherwise turn
      // this into a same-instant message loop.
      ArmTimeout(id);
    } else {
      SendCurrentRequest(id);  // the frontier moved while we streamed: loop
    }
    return;
  }
  CompleteSession(id, at);
}

void RsmGroup::CompleteSession(ReplicaId id, SimTime at) {
  Session& s = sessions_[id];
  if (s.timeout != kNoEvent) {
    sim_->Cancel(s.timeout);
  }
  const bool was_recovery = s.is_recovery;
  const SimTime started = s.started_at;
  s = Session{};
  if (was_recovery) {
    ++recoveries_completed_;
    const double ms = ToMs(at - started);
    catchup_ms_total_ += ms;
    catchup_ms_max_ = std::max(catchup_ms_max_, ms);
    if (on_recovered_) {
      on_recovered_(id, at);
    }
  }
}

void RsmGroup::RestartSession(ReplicaId id, SimTime at) {
  Session& s = sessions_[id];
  const ReplicaId failed_donor = s.donor;
  const bool is_recovery = s.is_recovery;
  const SimTime started = s.started_at;
  const uint64_t min_frontier = s.min_frontier;
  if (s.timeout != kNoEvent) {
    sim_->Cancel(s.timeout);
  }
  s = Session{};
  s.active = true;
  s.is_recovery = is_recovery;
  s.min_frontier = min_frontier;
  // Always restart from the snapshot phase: the restart reasons (corrupt
  // download, broken chain, donor truncated past our frontier) all mean the
  // suffix alone cannot get us there. Installing a snapshot is safe even
  // for a no-amnesia catch-up — Restore is wholesale, never incremental.
  s.phase = Phase::kSnapshot;
  s.session = ++session_counter_;
  s.started_at = started;
  s.donor = NextDonor(id, failed_donor == kNoReplica ? id : failed_donor, at);
  if (s.donor != kNoReplica && s.donor != failed_donor) {
    ++transfer_reroutes_;
  }
  SendCurrentRequest(id);
}

// --- reporting ---------------------------------------------------------------

void RsmGroup::FillReport(StateMachineReport& out, SimTime now) const {
  out.enabled = true;
  out.recoveries_started = recoveries_started_;
  out.recoveries_completed = recoveries_completed_;
  out.catchups_started = catchups_started_;
  out.transfer_bytes = transfer_bytes_;
  out.transfer_chunks = transfer_chunks_;
  out.transfer_reroutes = transfer_reroutes_;
  out.catchup_ms_total = catchup_ms_total_;
  out.catchup_ms_max = catchup_ms_max_;

  // Live replicas only: a crashed or mid-recovery replica is expected to be
  // behind. The reference replica is the first at the max frontier.
  uint64_t frontier = 0;
  std::vector<ReplicaId> live;
  for (ReplicaId id = 0; id < n_; ++id) {
    out.peak_log_entries =
        std::max<uint64_t>(out.peak_log_entries, rsms_[id]->log().peak_size());
    if (faults_->IsCrashedAt(id, now) || sessions_[id].active) {
      continue;
    }
    live.push_back(id);
    frontier = std::max(frontier, rsms_[id]->applied());
  }
  out.applied = frontier;
  if (live.empty()) {
    return;
  }

  const ReplicaRsm* reference = nullptr;
  bool equal = true;
  Digest frontier_digest{};
  bool have_frontier_digest = false;
  for (ReplicaId id : live) {
    const ReplicaRsm& rsm = *rsms_[id];
    if (rsm.applied() != frontier) {
      continue;
    }
    if (reference == nullptr) {
      reference = &rsm;
      frontier_digest = rsm.StateDigest();
      have_frontier_digest = true;
    } else if (rsm.StateDigest() != frontier_digest) {
      equal = false;
    }
  }
  for (ReplicaId id : live) {
    const ReplicaRsm& rsm = *rsms_[id];
    if (rsm.applied() == frontier) {
      continue;
    }
    // Mid-flight on the last instances (PBFT quorums complete at different
    // times): verify its shorter prefix chains into the frontier replica's
    // history when that history is still in memory.
    if (reference != nullptr && rsm.applied() > 0 &&
        reference->log().Has(rsm.applied() - 1) &&
        reference->log().HeadAt(rsm.applied() - 1) != rsm.log().head()) {
      equal = false;
    }
  }
  out.digests_equal = (equal && have_frontier_digest) ? 1 : 0;
  if (out.digests_equal != 0) {
    out.state_digest_hex = DigestHex(frontier_digest);
  }
  if (reference != nullptr) {
    out.checkpoints = reference->checkpoints_taken();
    out.truncations = reference->log().truncations();
    out.live_log_entries = reference->log().size();
  }
}

}  // namespace optilog
