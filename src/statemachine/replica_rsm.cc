#include "src/statemachine/replica_rsm.h"

#include "src/util/check.h"

namespace optilog {

Bytes EncodeOps(const std::vector<RequestRef>& batch) {
  size_t size = 4;
  for (const RequestRef& req : batch) {
    size += 4 + req.op.size();
  }
  Bytes out;
  out.reserve(size);
  ByteWriter w(&out);
  w.U32(static_cast<uint32_t>(batch.size()));
  for (const RequestRef& req : batch) {
    w.Blob(req.op);
  }
  return out;
}

std::vector<Bytes> DecodeOps(const Bytes& payload) {
  ByteReader r(payload);
  const uint32_t count = r.U32();
  std::vector<Bytes> ops;
  // The payload comes from a peer: a count its bytes cannot hold (each op
  // has at least a 4-byte length) ends decoding before anything is reserved.
  if (!r.ok() || count > r.remaining() / 4) {
    return ops;
  }
  ops.reserve(count);
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    ops.push_back(r.Blob());
  }
  return ops;
}

SharedBatch ShareBatch(const std::vector<RequestRef>& batch) {
  SharedBatch shared;
  shared.payload = EncodeOps(batch);
  shared.commands.reserve(batch.size());
  for (const RequestRef& req : batch) {
    shared.commands.push_back(KvCommand::Decode(req.op));
  }
  return shared;
}

void ReplicaRsm::Commit(uint64_t seq, ReplicaId proposer, BatchRecordPtr record,
                        SimTime now, ReplyFn on_reply) {
  if (seq < applied()) {
    return;  // duplicate: a replayed suffix overlapped this live commit
  }
  if (seq > applied()) {
    // Gap outstanding (PBFT quorums complete out of order, or this replica
    // is live again after a crash window and not yet caught up): park the
    // commit until the gap fills.
    PendingCommit pending;
    pending.proposer = proposer;
    pending.record = std::move(record);
    pending.now = now;
    pending.on_reply = std::move(on_reply);
    pending_.emplace(seq, std::move(pending));
    return;
  }
  ApplyNext(proposer, *record, now, on_reply);
  DrainPending();
}

// Applies (and discards) every buffered commit the current frontier
// unblocks; duplicates below the frontier are dropped.
void ReplicaRsm::DrainPending() {
  for (auto it = pending_.begin();
       it != pending_.end() && it->first <= applied();) {
    if (it->first == applied()) {
      PendingCommit& p = it->second;
      ApplyNext(p.proposer, *p.record, p.now, p.on_reply);
    }
    it = pending_.erase(it);
  }
}

void ReplicaRsm::ApplyNext(ReplicaId proposer, BatchRecord& record,
                           SimTime now, const ReplyFn& on_reply) {
  SharedBatch& shared = record.shared();
  LogEntry entry;
  entry.kind = EntryKind::kCommandBatch;
  entry.proposer = proposer;
  entry.committed_at = now;
  entry.batch_size = static_cast<uint32_t>(record.requests().size());
  entry.payload = shared.payload;
  Execute(std::move(entry), shared, record.requests(), on_reply);
}

void ReplicaRsm::Execute(LogEntry entry, SharedBatch& shared,
                         const std::vector<RequestRef>& batch,
                         const ReplyFn& on_reply) {
  log_.Append(std::move(entry), &shared.chain);
  Bytes result;
  for (size_t i = 0; i < shared.commands.size(); ++i) {
    machine_.Apply(shared.commands[i], on_reply ? &result : nullptr);
    if (on_reply) {
      on_reply(batch[i], result);
    }
  }
  MaybeCheckpoint();
}

void ReplicaRsm::MaybeCheckpoint() {
  if (policy_.interval == 0 || applied() % policy_.interval != 0) {
    return;
  }
  Checkpoint cp;
  cp.through_index = applied() - 1;
  cp.state = machine_.SnapshotBytes();
  cp.state_digest = Sha256::Hash(cp.state);
  cp.log_head = log_.head();
  ++checkpoints_taken_;
  latest_checkpoint_ = std::move(cp);
  if (policy_.truncate) {
    log_.TruncateTo(latest_checkpoint_->through_index + 1);
  }
}

void ReplicaRsm::Amnesia() {
  machine_.Reset();
  log_.ResetToBase(0, Digest{});
  pending_.clear();
  latest_checkpoint_.reset();
  checkpoints_taken_ = 0;
}

void ReplicaRsm::InstallSnapshot(const Checkpoint& cp) {
  machine_.Restore(cp.state);
  log_.ResetToBase(cp.through_index + 1, cp.log_head);
  latest_checkpoint_ = cp;
  // The snapshot may have jumped the frontier past (or onto) commits that
  // were buffered live during the transfer.
  DrainPending();
}

bool ReplicaRsm::ReplayEntry(const LogEntry& entry) {
  if (entry.index != applied()) {
    return false;
  }
  SharedBatch replayed;
  for (const Bytes& op : DecodeOps(entry.payload)) {
    replayed.commands.push_back(KvCommand::Decode(op));
  }
  // No client replies: clients were answered when the entry first
  // committed.
  Execute(entry, replayed, {}, nullptr);
  // Live commits buffered while this replica caught up may now be
  // contiguous with the replayed prefix: apply them (their client replies
  // included) instead of waiting for the next live commit to drain them.
  DrainPending();
  return true;
}

}  // namespace optilog
