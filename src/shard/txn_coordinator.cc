#include "src/shard/txn_coordinator.h"

#include <algorithm>
#include <utility>

#include "src/shard/sharded_deployment.h"
#include "src/shard/txn_messages.h"
#include "src/util/check.h"
#include "src/workload/messages.h"

namespace optilog {

TxnCoordinator::TxnCoordinator(ShardedDeployment* owner, uint32_t shard,
                               ReplicaId id, ReplicaId anchor)
    : owner_(owner),
      sim_(&owner->sim()),
      shard_(shard),
      id_(id),
      anchor_(anchor) {}

bool TxnCoordinator::IsDown(SimTime at) const {
  // The coordinator shares its anchor replica's fate: down while the anchor
  // is crashed, and still down while the anchor's state transfer runs (its
  // volatile state is only rebuilt once the recovered tables exist).
  Deployment& home = owner_->shard(shard_);
  if (home.faults().IsCrashedAt(anchor_, at)) {
    return true;
  }
  const RsmGroup* group = home.state_machines();
  return group != nullptr && group->IsRecovering(anchor_);
}

uint64_t TxnCoordinator::NewTxnId() {
  // Shard index in the high bits keeps ids globally unique across
  // coordinators; the epoch (bumped per recovery) keeps post-crash ids
  // disjoint from pre-crash ones still materialized in participant logs.
  return (uint64_t{shard_} + 1) << 40 | next_txn_++;
}

void TxnCoordinator::OnMessage(ReplicaId from, const MessagePtr& msg,
                               SimTime at) {
  if (IsDown(at)) {
    return;  // crashed with the anchor: deliveries are lost
  }
  if (msg->type() == kMsgTxnRequest) {
    StartTxn(static_cast<const TxnRequestMsg&>(*msg), at);
    return;
  }
  if (msg->type() != kMsgClientReply) {
    return;
  }
  const auto& reply = static_cast<const ClientReplyMsg&>(*msg);
  auto it = records_.find(reply.request_id);
  if (it == records_.end()) {
    return;  // completed record, or one wiped by a recovery
  }
  Record& rec = it->second;
  if (!rec.replies.Add(from, reply.result, owner_->RepliesNeeded(rec.shard))) {
    return;
  }
  sim_->Cancel(rec.retry);
  const uint64_t record_id = it->first;
  const uint64_t txn_id = rec.txn_id;
  const uint32_t shard = rec.shard;
  const Bytes result = reply.result;
  records_.erase(it);
  if (fencing_ && record_id == fence_record_) {
    // The fence committed: every pre-crash record of ours has drained out of
    // the home shard's queue, so the tables are now complete. Resolve.
    fencing_ = false;
    RecoveryRebuild(at);
    return;
  }
  OnRecordDone(txn_id, shard, result, at);
}

void TxnCoordinator::OnTimer(uint64_t tag, SimTime at) {
  if (IsDown(at)) {
    return;  // the pending record set is wiped on recovery anyway
  }
  auto it = records_.find(tag);
  if (it == records_.end()) {
    return;
  }
  Record& rec = it->second;
  it->second.retry = kNoEvent;
  // Re-route to the next replica id in the shard (a crashed leader's
  // replicas forward to the live one); records retry until answered — a
  // 2PC decision must eventually reach every participant.
  rec.target = (rec.target + 1) % owner_->replicas_per_shard();
  SendAttempt(tag, at);
}

void TxnCoordinator::StartTxn(const TxnRequestMsg& req, SimTime at) {
  if (fencing_) {
    return;  // dedup table not rebuilt yet; the client's retry comes back
  }
  const auto key = std::make_pair(req.client, req.request_id);
  if (by_client_.count(key) > 0) {
    ++stats_.duplicates;  // retry of a known transaction: already in flight
    return;               // (or already answered; replies are reliable)
  }
  OL_CHECK(!req.ops.empty());

  const uint64_t txn_id = NewTxnId();
  Txn txn;
  txn.client = req.client;
  txn.client_req = req.request_id;
  txn.ops = req.ops;
  txn.op_shard.reserve(req.ops.size());
  for (const KvOp& op : req.ops) {
    txn.op_shard.push_back(owner_->router().ShardOf(op.key));
  }
  txn.participants = txn.op_shard;
  txn.participants.push_back(shard_);  // the durable home record, always
  std::sort(txn.participants.begin(), txn.participants.end());
  txn.participants.erase(
      std::unique(txn.participants.begin(), txn.participants.end()),
      txn.participants.end());
  txn.results.resize(txn.ops.size());

  by_client_.emplace(key, txn_id);
  auto [it, inserted] = txns_.emplace(txn_id, std::move(txn));
  OL_CHECK(inserted);
  if (TraceRecorder* tr = sim_->trace()) {
    // Coordinator-level lifecycle records keyed on the CLIENT's (request,
    // client) so the 2PC path maps onto the same six-stage chain as a
    // direct request: admission and batch-seal coincide (a coordinator has
    // no batching delay — the documented batch=0 model), commit/reply land
    // at the decision.
    tr->EmitHere(at, TraceKind::kQueueAdmit, 0, id_, req.request_id,
                 req.client);
    tr->EmitHere(at, TraceKind::kBatchSeal, 0, id_, req.request_id,
                 req.client);
  }
  BeginPhase(txn_id, it->second, Phase::kPrepareHome, at);
}

void TxnCoordinator::SendRecord(uint64_t txn_id, uint32_t shard, Bytes op,
                                SimTime now) {
  const uint64_t record_id = next_record_++;
  Record rec;
  rec.txn_id = txn_id;
  rec.shard = shard;
  rec.op = std::move(op);
  rec.target = owner_->Route(shard);
  records_.emplace(record_id, std::move(rec));
  SendAttempt(record_id, now);
}

void TxnCoordinator::SendAttempt(uint64_t record_id, SimTime now) {
  Record& rec = records_.at(record_id);
  auto msg = sim_->pool().Make<ClientRequestMsg>();
  msg->client = id_;
  msg->request_id = record_id;
  msg->sent_at = now;
  msg->op = rec.op;
  msg->shard = rec.shard;
  owner_->shard(rec.shard).net().Send(id_, rec.target, std::move(msg));
  rec.retry = sim_->ScheduleTimer(
      this, record_id, owner_->txn_options().retry_timeout);
}

void TxnCoordinator::BeginPhase(uint64_t txn_id, Txn& txn, Phase phase,
                                SimTime now) {
  txn.phase = phase;
  // Which shards this phase's record goes to.
  std::vector<uint32_t> targets;
  TxnTag tag = TxnTag::kEnd;
  switch (phase) {
    case Phase::kPrepareHome:
      targets = {shard_};
      tag = TxnTag::kPrepare;
      break;
    case Phase::kPrepareRest:
      for (uint32_t p : txn.participants) {
        if (p != shard_) {
          targets.push_back(p);
        }
      }
      tag = TxnTag::kPrepare;
      break;
    case Phase::kDecideHome:
      targets = {shard_};
      tag = TxnTag::kCommit;
      break;
    case Phase::kCommitRest:
      // Normal path: the home shard already committed in kDecideHome.
      // Recovery re-drive: hit every participant — commits are idempotent.
      for (uint32_t p : txn.participants) {
        if (txn.recovered || p != shard_) {
          targets.push_back(p);
        }
      }
      tag = TxnTag::kCommit;
      break;
    case Phase::kAbortAll:
      targets = txn.participants;
      tag = TxnTag::kAbort;
      break;
    case Phase::kEndAll:
      targets = txn.participants;
      tag = TxnTag::kEnd;
      break;
  }
  OL_CHECK(!targets.empty());
  txn.awaiting = static_cast<uint32_t>(targets.size());
  if (TraceRecorder* tr = sim_->trace()) {
    if (phase == Phase::kDecideHome) {
      tr->EmitHere(now, TraceKind::kTxnDecide, 0, id_, txn_id, 1);
    } else if (phase == Phase::kAbortAll) {
      tr->EmitHere(now, TraceKind::kTxnDecide, 0, id_, txn_id, 0);
    }
    if (tag == TxnTag::kPrepare) {
      for (uint32_t shard : targets) {
        tr->EmitHere(now, TraceKind::kTxnPrepare, 0, id_, txn_id, shard);
      }
    }
  }
  for (uint32_t shard : targets) {
    KvTxnOp record;
    record.tag = tag;
    record.txn_id = txn_id;
    if (tag == TxnTag::kPrepare) {
      for (size_t i = 0; i < txn.ops.size(); ++i) {
        if (txn.op_shard[i] == shard) {
          record.ops.push_back(txn.ops[i]);
        }
      }
      if (shard == shard_) {
        // The home record carries the coordinator's durable state.
        record.participants = txn.participants;
        record.client = txn.client;
        record.client_req = txn.client_req;
      }
      ++stats_.prepares_sent;
    }
    SendRecord(txn_id, shard, record.Encode(), now);
  }
}

void TxnCoordinator::OnRecordDone(uint64_t txn_id, uint32_t shard,
                                  const Bytes& result, SimTime at) {
  auto it = txns_.find(txn_id);
  if (it == txns_.end()) {
    return;  // record outlived its transaction (post-abort stragglers)
  }
  Txn& txn = it->second;
  KvMultiResult m;
  if (!KvMultiResult::Decode(result, &m)) {
    m = KvMultiResult{};
  }
  switch (txn.phase) {
    case Phase::kPrepareHome:
    case Phase::kPrepareRest: {
      if (!m.ok) {
        txn.vote_no = true;
        ++stats_.votes_no;
        break;
      }
      // A yes vote carries the shard's results in its op order: scatter
      // them to the transaction's op positions.
      size_t next = 0;
      for (size_t i = 0; i < txn.ops.size(); ++i) {
        if (txn.op_shard[i] == shard) {
          OL_CHECK(next < m.results.size());
          txn.results[i] = m.results[next++];
        }
      }
      OL_CHECK(next == m.results.size());
      break;
    }
    case Phase::kDecideHome:
    case Phase::kCommitRest:
    case Phase::kAbortAll:
    case Phase::kEndAll:
      break;  // acknowledgements only
  }
  OL_CHECK(txn.awaiting > 0);
  if (--txn.awaiting > 0) {
    return;
  }
  AdvanceTxn(txn_id, txn, at);
}

void TxnCoordinator::AdvanceTxn(uint64_t txn_id, Txn& txn, SimTime at) {
  switch (txn.phase) {
    case Phase::kPrepareHome: {
      if (txn.vote_no) {
        BeginPhase(txn_id, txn, Phase::kAbortAll, at);
        return;
      }
      if (txn.participants.size() > 1) {
        BeginPhase(txn_id, txn, Phase::kPrepareRest, at);
      } else {
        BeginPhase(txn_id, txn, Phase::kDecideHome, at);
      }
      return;
    }
    case Phase::kPrepareRest: {
      BeginPhase(txn_id, txn,
                 txn.vote_no ? Phase::kAbortAll : Phase::kDecideHome, at);
      return;
    }
    case Phase::kDecideHome: {
      // The decision is durable and the prepares fixed the results: answer
      // now, and let the remotes commit off the client's latency path.
      ReplyToClient(txn, /*committed=*/true, at);
      BeginPhase(txn_id, txn,
                 txn.participants.size() > 1 ? Phase::kCommitRest
                                             : Phase::kEndAll,
                 at);
      return;
    }
    case Phase::kCommitRest: {
      if (txn.recovered) {
        // A recovery re-drive answers (again, if the client already has
        // its results) once every participant holds the decision.
        ReplyToClient(txn, /*committed=*/true, at);
      }
      BeginPhase(txn_id, txn, Phase::kEndAll, at);
      return;
    }
    case Phase::kAbortAll: {
      ReplyToClient(txn, /*committed=*/false, at);
      txns_.erase(txn_id);
      return;
    }
    case Phase::kEndAll: {
      txns_.erase(txn_id);
      return;
    }
  }
}

void TxnCoordinator::ReplyToClient(const Txn& txn, bool committed,
                                   SimTime at) {
  if (txn.client == kNoReplica) {
    return;
  }
  if (TraceRecorder* tr = sim_->trace()) {
    if (committed) {
      tr->EmitHere(at, TraceKind::kCommit, 0, id_, txn.client_req,
                   txn.client);
    }
    tr->EmitHere(at, TraceKind::kReplySent, 0, id_, txn.client_req,
                 txn.client);
  }
  auto reply = sim_->pool().Make<TxnReplyMsg>();
  reply->request_id = txn.client_req;
  reply->committed = committed;
  if (committed && !txn.recovered) {
    KvMultiResult all;
    all.ok = true;
    all.results = txn.results;
    reply->results = all.Encode();
  }
  owner_->shard(shard_).net().Send(id_, txn.client, std::move(reply));
  (void)at;
}

void TxnCoordinator::OnAnchorRecovered(SimTime at) {
  // Amnesia: whatever the coordinator was doing died with the anchor.
  for (auto& [record_id, rec] : records_) {
    sim_->Cancel(rec.retry);
  }
  records_.clear();
  txns_.clear();
  by_client_.clear();
  ++epoch_;
  OL_CHECK_MSG(epoch_ < 256, "coordinator id space exhausted");
  next_txn_ = epoch_ << 32;
  next_record_ = epoch_ << 32;

  // Pre-crash records already admitted to the home shard's queue survive
  // the crash and commit after recovery — reading the tables NOW would miss
  // them (and leak their locks forever). Fence first: an idempotent no-op
  // record (abort of the never-issued txn 0) enqueued behind everything
  // pre-crash; its commit certifies the tables are complete.
  fencing_ = true;
  KvTxnOp fence;
  fence.tag = TxnTag::kAbort;
  fence.txn_id = 0;
  fence_record_ = next_record_;
  SendRecord(/*txn_id=*/0, shard_, fence.Encode(), at);
}

void TxnCoordinator::RecoveryRebuild(SimTime at) {
  // The durable half: the home shard's replicated tables, materialized by
  // the anchor's just-completed state transfer. Entries with a participant
  // list are ours (remote-participant records carry none).
  const RsmGroup* group = owner_->shard(shard_).state_machines();
  OL_CHECK(group != nullptr);
  const KvStateMachine& kv = group->rsm(anchor_).machine();

  // Decided but not yet ended: the commit record exists, so the decision
  // stands — re-drive commits to every participant (idempotent), re-answer
  // the client (no values: a client still waiting adopts its own ops; one
  // answered before the crash has moved on and ignores it), GC.
  for (const auto& [txn_id, d] : kv.decided()) {
    if (d.participants.empty()) {
      continue;
    }
    Txn txn;
    txn.client = d.client;
    txn.client_req = d.client_req;
    txn.participants = d.participants;
    txn.recovered = true;
    by_client_[{d.client, d.client_req}] = txn_id;
    ++stats_.recovered_commits;
    auto [it, inserted] = txns_.emplace(txn_id, std::move(txn));
    OL_CHECK(inserted);
    BeginPhase(txn_id, it->second, Phase::kCommitRest, at);
  }

  // Prepared but undecided (in-doubt): presumed abort — no commit record
  // exists, so no participant can have applied; abort everywhere and let
  // the client retry as a fresh transaction.
  for (const auto& [txn_id, p] : kv.prepared()) {
    if (p.participants.empty()) {
      continue;
    }
    Txn txn;
    txn.client = p.client;
    txn.client_req = p.client_req;
    txn.participants = p.participants;
    txn.recovered = true;
    by_client_[{p.client, p.client_req}] = txn_id;
    ++stats_.recovered_aborts;
    auto [it, inserted] = txns_.emplace(txn_id, std::move(txn));
    OL_CHECK(inserted);
    BeginPhase(txn_id, it->second, Phase::kAbortAll, at);
  }
}

}  // namespace optilog
