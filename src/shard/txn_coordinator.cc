#include "src/shard/txn_coordinator.h"

#include <algorithm>
#include <utility>

#include "src/shard/sharded_deployment.h"
#include "src/shard/txn_messages.h"
#include "src/util/check.h"
#include "src/workload/messages.h"

namespace optilog {
namespace {

// The txn_id of a kScan record in flight. No transaction has it: every id
// carries its coordinator's shard + 1 in the high bits.
constexpr uint64_t kScanTxn = 0;

}  // namespace

TxnCoordinator::TxnCoordinator(ShardedDeployment* owner, uint32_t shard,
                               ReplicaId id, ReplicaId anchor)
    : owner_(owner),
      sim_(&owner->sim()),
      shard_(shard),
      id_(id),
      anchor_(anchor) {}

bool TxnCoordinator::IsDown(SimTime at) const {
  // The coordinator shares its anchor replica's fate: down while the anchor
  // is crashed, and still down while the anchor's state transfer runs (it
  // restarts at the recovered hook, which fires when the transfer ends).
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
  const uint64_t txn_id = rec.txn_id;
  const uint32_t shard = rec.shard;
  const Bytes result = reply.result;
  records_.erase(it);
  if (txn_id == kScanTxn) {
    OnScanDone(shard, result, at);
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
  if (scans_pending_ > 0) {
    return;  // dedup table not rebuilt yet; the client's retry comes back
  }
  const auto newest = newest_request_.find(req.client);
  if (newest != newest_request_.end() && req.request_id <= newest->second) {
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

  newest_request_[req.client] = req.request_id;
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
  BeginPhase(txn_id, it->second, TxnTag::kPrepare, it->second.participants,
             at);
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

void TxnCoordinator::BeginPhase(uint64_t txn_id, Txn& txn, TxnTag phase,
                                const std::vector<uint32_t>& targets,
                                SimTime now) {
  OL_CHECK(!targets.empty());
  txn.phase = phase;
  txn.awaiting = static_cast<uint32_t>(targets.size());
  for (uint32_t shard : targets) {
    KvTxnOp record;
    record.tag = phase;
    record.txn_id = txn_id;
    if (phase == TxnTag::kPrepare) {
      if (TraceRecorder* tr = sim_->trace()) {
        tr->EmitHere(now, TraceKind::kTxnPrepare, 0, id_, txn_id, shard);
      }
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
  if (txn.phase == TxnTag::kPrepare && !m.ok) {
    txn.vote_no = true;
    ++stats_.votes_no;
  } else if (txn.phase == TxnTag::kPrepare) {
    // A yes vote carries the shard's results in its op order: scatter them
    // to the transaction's op positions. Other phases' replies are
    // acknowledgements only.
    size_t next = 0;
    for (size_t i = 0; i < txn.ops.size(); ++i) {
      if (txn.op_shard[i] == shard) {
        OL_CHECK(next < m.results.size());
        txn.results[i] = m.results[next++];
      }
    }
    OL_CHECK(next == m.results.size());
  }
  OL_CHECK(txn.awaiting > 0);
  if (--txn.awaiting > 0) {
    return;
  }
  AdvanceTxn(txn_id, txn, at);
}

void TxnCoordinator::AdvanceTxn(uint64_t txn_id, Txn& txn, SimTime at) {
  switch (txn.phase) {
    case TxnTag::kPrepare: {
      // The last vote: the outcome is decided.
      EmitDecide(txn_id, !txn.vote_no, at);
      if (txn.vote_no) {
        BeginPhase(txn_id, txn, TxnTag::kAbort, txn.participants, at);
        return;
      }
      // Every participant holds a durable yes row that only this
      // coordinator's commit or abort removes, and recovery commits such a
      // transaction. Answer now, with the prepares' results, and let the
      // commits run off the client's latency path.
      ReplyToClient(txn, /*committed=*/true, at);
      BeginPhase(txn_id, txn, TxnTag::kCommit, txn.participants, at);
      return;
    }
    case TxnTag::kCommit: {
      if (txn.recovered) {
        // A recovery re-drive answers (again, if the client already has
        // its results) once every participant holds the decision.
        ReplyToClient(txn, /*committed=*/true, at);
      }
      BeginPhase(txn_id, txn, TxnTag::kEnd, txn.participants, at);
      return;
    }
    case TxnTag::kAbort: {
      ReplyToClient(txn, /*committed=*/false, at);
      txns_.erase(txn_id);
      return;
    }
    case TxnTag::kEnd: {
      txns_.erase(txn_id);
      return;
    }
    case TxnTag::kMulti:
    case TxnTag::kScan:
      OL_CHECK(false);  // never a transaction's phase
  }
}

void TxnCoordinator::EmitDecide(uint64_t txn_id, bool commit, SimTime at) {
  if (TraceRecorder* tr = sim_->trace()) {
    tr->EmitHere(at, TraceKind::kTxnDecide, 0, id_, txn_id, commit ? 1 : 0);
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
  newest_request_.clear();
  ++epoch_;
  OL_CHECK_MSG(epoch_ < 256, "coordinator id space exhausted");
  next_txn_ = epoch_ << 32;
  next_record_ = epoch_ << 32;

  // What survives is in the participants' tables, and pre-crash records
  // already admitted to a shard's queue still commit after recovery:
  // reading a table NOW would miss them (and leak their locks forever).
  // Ask every shard through its log instead: the queue is FIFO, so a scan
  // commits behind everything of ours admitted before it.
  scans_.assign(owner_->shards(), KvScanResult{});
  scans_pending_ = owner_->shards();
  for (uint32_t s = 0; s < owner_->shards(); ++s) {
    SendScan(s, at);
  }
}

void TxnCoordinator::SendScan(uint32_t shard, SimTime now) {
  KvTxnOp scan;
  scan.tag = TxnTag::kScan;
  scan.txn_id = uint64_t{shard_} + 1;  // the id prefix NewTxnId writes
  SendRecord(kScanTxn, shard, scan.Encode(), now);
}

void TxnCoordinator::OnScanDone(uint32_t shard, const Bytes& result,
                                SimTime at) {
  KvScanResult scan;
  if (!KvScanResult::Decode(result, &scan) || !scan.ok) {
    // A scan a Byzantine proposer garbled commits as a no-op. Resolving
    // without this shard's rows could abort a transaction whose client was
    // answered commit: ask again.
    SendScan(shard, at);
    return;
  }
  scans_[shard] = std::move(scan);
  if (--scans_pending_ == 0) {
    Resolve(at);
  }
}

void TxnCoordinator::Resolve(SimTime at) {
  // Every row of ours, by transaction, with the shards holding it in
  // ascending order.
  struct Seen {
    std::vector<uint32_t> held;      // shards holding a row
    std::vector<uint32_t> prepared;  // shards holding it prepared
    bool decided = false;            // some shard committed it
    const KvScanRow* home = nullptr;  // the row naming the participants
  };
  std::map<uint64_t, Seen> seen;
  for (uint32_t s = 0; s < scans_.size(); ++s) {
    for (const KvScanRow& row : scans_[s].rows) {
      Seen& t = seen[row.txn_id];
      t.held.push_back(s);
      if (row.decided) {
        t.decided = true;
      } else {
        t.prepared.push_back(s);
      }
      if (!row.participants.empty()) {
        t.home = &row;
      }
    }
  }

  for (const auto& [txn_id, t] : seen) {
    // Committed if some shard decided it, or if every participant the home
    // row names holds a row (rows exist only at participants, and both
    // lists ascend): the client may have been answered commit at those yes
    // votes. Otherwise no client was answered commit (that answer needs
    // every yes row, and the rows stay until this coordinator commits or
    // aborts them), so the transaction aborts.
    const bool commit =
        t.decided || (t.home != nullptr && t.held == t.home->participants);
    Txn txn;
    txn.participants = t.held;
    txn.recovered = true;
    if (t.home != nullptr) {
      txn.client = t.home->client;
      txn.client_req = t.home->client_req;
      uint64_t& newest = newest_request_[txn.client];
      newest = std::max(newest, txn.client_req);
    }
    auto [it, inserted] = txns_.emplace(txn_id, std::move(txn));
    OL_CHECK(inserted);
    Txn& resolved = it->second;
    EmitDecide(txn_id, commit, at);
    if (!commit) {
      // Nothing is decided anywhere, so every row is a prepare.
      ++stats_.recovered_aborts;
      BeginPhase(txn_id, resolved, TxnTag::kAbort, t.prepared, at);
    } else if (!t.prepared.empty()) {
      ++stats_.recovered_commits;
      BeginPhase(txn_id, resolved, TxnTag::kCommit, t.prepared, at);
    } else {
      // Decided wherever it is held: re-answer and collect.
      ++stats_.recovered_commits;
      ReplyToClient(resolved, /*committed=*/true, at);
      BeginPhase(txn_id, resolved, TxnTag::kEnd, resolved.participants, at);
    }
  }
  scans_.clear();
}

}  // namespace optilog
