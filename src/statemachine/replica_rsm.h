// Per-replica execution state: the committed command log, the deterministic
// state machine it drives, and the checkpoint schedule that bounds both.
//
// A ReplicaRsm applies committed entries strictly in log-index order.
// Protocol harnesses hand it commits as they happen — in order for the tree
// family (the harness is the single commit point), possibly out of order for
// PBFT (each replica's quorums complete independently) — and out-of-order
// entries wait in a bounded pending map until the gap fills, exactly like a
// real replica's execution queue.
//
// Every `interval` applied entries the replica takes a checkpoint: the
// state-machine snapshot, its digest, and the log chain head at that index.
// Checkpoints are byte-identical across replicas by construction (canonical
// snapshot encoding, commit-order application); the statemachine test suite
// pins that. With `truncate` set the log prefix covered by the checkpoint is
// dropped, which is what keeps peak log memory O(interval) instead of
// O(run length) — the `log_bound` scenario's claim.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/rsm/log.h"
#include "src/sim/message.h"
#include "src/statemachine/state_machine.h"
#include "src/workload/messages.h"

namespace optilog {

struct CheckpointPolicy {
  uint64_t interval = 0;   // applied entries per checkpoint; 0 disables
  bool truncate = true;    // drop the snapshotted log prefix
};

struct Checkpoint {
  uint64_t through_index = 0;  // last log index the snapshot covers
  Digest state_digest{};       // StateDigest() at that index
  Digest log_head{};           // chain head after through_index
  Bytes state;                 // SnapshotBytes() at that index
};

// Encodes a command batch's operations into a log-entry payload (and back).
Bytes EncodeOps(const std::vector<RequestRef>& batch);
std::vector<Bytes> DecodeOps(const Bytes& payload);

// What every replica applying one committed batch would otherwise compute
// for itself: the entry payload, each op decoded, and the entry's log-chain
// step (filled by the first replica that appends it). Each replica still
// applies the commands to its own machine and appends to its own log.
struct SharedBatch {
  Bytes payload;                    // EncodeOps(batch)
  std::vector<KvCommand> commands;  // one per request, in batch order
  ChainStep chain;
};
SharedBatch ShareBatch(const std::vector<RequestRef>& batch);

// One proposal's batch, shared by the replicas that commit it: the requests
// on board, the digest replicas vote on, and their SharedBatch. PBFT-family
// replicas commit it at different instants; the tree family hands one record
// to every replica at its commit boundary (RsmGroup::CommitAll). A commit
// buffered above a replica's frontier holds a reference too, since it may
// apply after the replica's instance is gone. Counted without atomics, like
// a message: a record stays on the thread that drives its simulator
// (src/sim/message.h).
class BatchRecord {
 public:
  BatchRecord(std::vector<RequestRef> requests, const Digest& digest)
      : requests_(std::move(requests)), digest_(digest) {}
  BatchRecord(const BatchRecord&) = delete;
  BatchRecord& operator=(const BatchRecord&) = delete;

  const std::vector<RequestRef>& requests() const { return requests_; }
  const Digest& digest() const { return digest_; }
  // ShareBatch(requests()), built on first use: a deployment without a
  // state machine never applies a batch.
  SharedBatch& shared() {
    if (!shared_.has_value()) {
      shared_ = ShareBatch(requests_);
    }
    return *shared_;
  }

 private:
  template <typename T>
  friend class IntrusivePtr;

  void AddRef(uint32_t k = 1) const { refs_ += k; }
  void Release() const {
    if (--refs_ == 0) {
      delete this;
    }
  }

  const std::vector<RequestRef> requests_;
  const Digest digest_;
  std::optional<SharedBatch> shared_;
  mutable uint32_t refs_ = 0;
};
using BatchRecordPtr = IntrusivePtr<BatchRecord>;

class ReplicaRsm {
 public:
  // Fired once per applied request, with the encoded state-machine result —
  // the value the committing replica's client reply carries. Without one,
  // results are not encoded.
  using ReplyFn = std::function<void(const RequestRef&, const Bytes& result)>;

  ReplicaRsm(ReplicaId id, const CheckpointPolicy& policy)
      : id_(id), policy_(policy) {}

  // Commit of log index `seq`, whose batch is `record` (shared with every
  // replica that commits it). Applies immediately when seq is the next
  // index; buffers, holding the record, when a gap is outstanding (drained
  // as soon as it fills); ignores duplicates below the frontier (a replayed
  // suffix can overlap buffered live commits).
  void Commit(uint64_t seq, ReplicaId proposer, BatchRecordPtr record,
              SimTime now, ReplyFn on_reply);

  // --- recovery --------------------------------------------------------------
  // Crash restart: the process loses everything volatile.
  void Amnesia();
  // Adopts a transferred snapshot: state restored (digest verified by the
  // caller), log restarted at through_index + 1 with the checkpoint's chain
  // head as base. Also records the checkpoint as this replica's latest, so
  // it can donate and truncate from the same base.
  void InstallSnapshot(const Checkpoint& cp);
  // Replays one transferred log entry (no client replies; clients were
  // answered when the entry first committed). Returns false when the entry
  // is not the next index.
  bool ReplayEntry(const LogEntry& entry);

  // --- inspection ------------------------------------------------------------
  ReplicaId id() const { return id_; }
  const Log& log() const { return log_; }
  // The applied frontier: every entry below this index is executed.
  uint64_t applied() const { return log_.next_index(); }
  const KvStateMachine& machine() const { return machine_; }
  Digest StateDigest() const { return machine_.StateDigest(); }
  const std::optional<Checkpoint>& latest_checkpoint() const {
    return latest_checkpoint_;
  }
  uint64_t checkpoints_taken() const { return checkpoints_taken_; }
  size_t pending_commits() const { return pending_.size(); }

 private:
  struct PendingCommit {
    ReplicaId proposer = kNoReplica;
    BatchRecordPtr record;
    SimTime now = 0;
    ReplyFn on_reply;
  };

  void ApplyNext(ReplicaId proposer, BatchRecord& record, SimTime now,
                 const ReplyFn& on_reply);
  // The one apply path: appends `entry`, applies shared.commands (replying
  // per request of `batch` when on_reply is set) and checkpoints.
  void Execute(LogEntry entry, SharedBatch& shared,
               const std::vector<RequestRef>& batch, const ReplyFn& on_reply);
  void DrainPending();
  void MaybeCheckpoint();

  const ReplicaId id_;
  CheckpointPolicy policy_;
  KvStateMachine machine_;
  Log log_;
  std::map<uint64_t, PendingCommit> pending_;
  std::optional<Checkpoint> latest_checkpoint_;
  uint64_t checkpoints_taken_ = 0;
};

}  // namespace optilog
