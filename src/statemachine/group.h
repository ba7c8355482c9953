// RsmGroup: the deployment's replicated-state-machine layer.
//
// One group owns a ReplicaRsm (command log + KV machine + checkpoints) per
// replica and the crash-recovery machinery that keeps them converged:
//
//   Execution — every replica commits a decided batch through one
//   ReplicaRsm::Commit, holding the batch's shared BatchRecord. The tree
//   family commits centrally, so CommitAll hands one record to every live
//   replica at the commit boundary and replies from the first at its index;
//   PBFT replicas commit independently, so each calls CommitAt with its own
//   protocol sequence number and the proposal's record. The per-replica
//   ReplicaRsm buffers any out-of-order arrivals.
//
//   Recovery — FaultProfile::recover_at arms a typed timer; when it fires
//   the replica restarts amnesiac and the group drives a transfer session
//   against a live donor: snapshot chunks, digest verification, then the
//   log suffix with chain-head verification per chunk, looping until the
//   replica reaches the live commit frontier. Sessions are resumable across
//   donors (same-checkpoint chunks are kept) and re-route on timeout when
//   the donor has crashed. A lighter "catch-up" session — same suffix
//   machinery, no amnesia — repairs a PBFT replica that learns a decided
//   instance it never saw the Pre-Prepare for (proposed inside its crash
//   window).
//
// All group state is per-deployment and all scheduling rides the typed
// Timer/Delivery lanes, so runs stay byte-identical at any --threads value.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/net/network.h"
#include "src/rsm/metrics.h"
#include "src/statemachine/messages.h"
#include "src/statemachine/replica_rsm.h"

namespace optilog {

struct StateMachineOptions {
  CheckpointPolicy checkpoint;
  // Snapshot transfer chunking (bytes of snapshot per StateChunk).
  size_t transfer_chunk_bytes = 4096;
};

class RsmGroup : public TimerTarget {
 public:
  using ReplyFn = ReplicaRsm::ReplyFn;

  RsmGroup(Simulator* sim, Network* net, const FaultModel* faults, uint32_t n,
           StateMachineOptions opts);

  // Central commit (tree family): hands `record` to every live replica, which
  // applies it at the group's next index or, when behind, buffers it. The
  // batch's decode, payload and chain step are done once for the whole
  // group (the record's SharedBatch). `reply` fires once per request, in
  // batch order, with the results of the first replica whose log is at this
  // index (identical on every replica by determinism), or with empty
  // results when no replica is.
  void CommitAll(ReplicaId proposer, const BatchRecordPtr& record, SimTime now,
                 ReplyFn reply);

  // Per-replica commit (PBFT family): `seq` is the protocol's instance
  // number, which doubles as the log index, and `record` the proposal's
  // batch record, whose decode, payload and chain step every replica
  // shares. on_reply fires per request when the entry actually applies
  // (immediately in order, later if buffered).
  void CommitAt(ReplicaId id, uint64_t seq, ReplicaId proposer,
                BatchRecordPtr record, SimTime now, ReplyFn on_reply);

  // Arms the restart timer for a replica whose FaultProfile carries a
  // recovery window.
  void ScheduleRecovery(ReplicaId id, SimTime recover_at);

  // Frontier repair without amnesia: fetch the log suffix from a donor when
  // a replica knows entry `decided_seq` is decided but cannot execute it
  // (missed Pre-Prepare). With a session already active, only raises that
  // session's completion floor — the transfer must deliver decided_seq
  // before it may finish, even against donors that are briefly behind.
  void RequestCatchup(ReplicaId id, uint64_t decided_seq);

  // Invoked when a recovering replica reaches the live frontier — protocol
  // harnesses rebind it (TreeRsm drops its exclusion / re-trees it).
  void SetOnRecovered(std::function<void(ReplicaId, SimTime)> cb) {
    on_recovered_ = std::move(cb);
  }

  // Entry point for kMsgState* / kMsgLogSuffix* deliveries, routed here by
  // the protocol replica actors.
  void OnStateMessage(ReplicaId receiver, ReplicaId from, const MessagePtr& msg,
                      SimTime at);

  void OnTimer(uint64_t tag, SimTime at) override;

  bool IsRecovering(ReplicaId id) const { return sessions_[id].active; }

  const ReplicaRsm& rsm(ReplicaId id) const { return *rsms_[id]; }
  uint32_t n() const { return n_; }
  const StateMachineOptions& options() const { return opts_; }

  void FillReport(StateMachineReport& out, SimTime now) const;

 private:
  enum class Phase { kSnapshot, kSuffix };

  struct Session {
    bool active = false;
    bool is_recovery = false;  // false: frontier catch-up (no amnesia)
    Phase phase = Phase::kSnapshot;
    uint64_t session = 0;
    ReplicaId donor = kNoReplica;
    SimTime started_at = 0;
    // Snapshot download progress (identity + received prefix).
    bool have_meta = false;
    uint64_t through_index = 0;
    Digest state_digest{};
    Digest log_head{};
    uint64_t next_chunk = 0;
    uint64_t total_chunks = 0;
    Bytes buffer;
    // Completion floor: the session may not finish until the replica has
    // applied at least this far (entries known decided when it started).
    uint64_t min_frontier = 0;
    EventId timeout = kNoEvent;
  };

  // Timer tags: replica id * 2 (+0 restart, +1 transfer timeout).
  static uint64_t RestartTag(ReplicaId id) { return uint64_t{id} * 2; }
  static uint64_t TimeoutTag(ReplicaId id) { return uint64_t{id} * 2 + 1; }

  void BeginRecovery(ReplicaId id, SimTime now);
  void BeginSession(ReplicaId id, SimTime now, bool is_recovery);
  // Next live donor after `after` (cycling, skipping self / crashed /
  // mid-session replicas); kNoReplica when none exists yet.
  ReplicaId NextDonor(ReplicaId id, ReplicaId after, SimTime now) const;
  void SendCurrentRequest(ReplicaId id);
  void ArmTimeout(ReplicaId id);
  void CompleteSession(ReplicaId id, SimTime now);
  // Abandons progress and restarts the session from scratch on the next
  // donor (verification failure / unusable donor).
  void RestartSession(ReplicaId id, SimTime now);

  // Donor-side handlers.
  void ServeStateFetch(ReplicaId donor, ReplicaId to, const StateFetchMsg& req);
  void ServeSuffixFetch(ReplicaId donor, ReplicaId to,
                        const LogSuffixFetchMsg& req);
  // Recoverer-side handlers.
  void OnStateChunk(ReplicaId id, const StateChunkMsg& msg, SimTime at);
  void OnSuffixChunk(ReplicaId id, const LogSuffixChunkMsg& msg, SimTime at);

  Simulator* sim_;
  Network* net_;
  const FaultModel* faults_;
  const uint32_t n_;
  StateMachineOptions opts_;

  std::vector<std::unique_ptr<ReplicaRsm>> rsms_;
  std::vector<Session> sessions_;
  uint64_t next_seq_ = 0;          // tree-mode central commit counter
  uint64_t session_counter_ = 0;   // nonce source

  std::function<void(ReplicaId, SimTime)> on_recovered_;

  uint64_t recoveries_started_ = 0;
  uint64_t recoveries_completed_ = 0;
  uint64_t catchups_started_ = 0;
  uint64_t transfer_bytes_ = 0;
  uint64_t transfer_chunks_ = 0;
  uint64_t transfer_reroutes_ = 0;
  double catchup_ms_total_ = 0.0;
  double catchup_ms_max_ = 0.0;
};

}  // namespace optilog
