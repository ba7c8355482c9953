// TxnCoordinator: leader-driven two-phase commit across shards.
//
// One coordinator per shard, colocated with the shard's anchor replica (the
// initial leader/root). Clients send a cross-shard transaction to the
// coordinator of its home shard — the shard of the first op — which drives
// 2PC in one consensus round, every protocol action a record committed
// through a participant group's log:
//
//   1. kPrepare to every participant at once. The home record carries the
//      participant list and the client identity; the remote ones carry ops
//      only. Every yes vote carries its shard's per-op results: the values
//      the shard's commit will apply, fixed by the prepare's locks.
//   2. All yes votes: the transaction is decided. Durable yes votes at every
//      participant imply the commit, so the client is answered at once with
//      the prepares' results in op order, and kCommit goes to every
//      participant off the latency path. Any no vote: kAbort everywhere,
//      and the client is answered abort once every abort has committed.
//   3. kEnd to every participant garbage-collects the decided rows.
//
// Each record rides an ordinary ClientRequestMsg (the coordinator is just
// another client of each shard: monotonic request ids, the shard leader's
// RequestQueue dedups retries) and is answered by the shard's normal client
// replies. Crash model: the coordinator is down exactly while its anchor
// replica is crashed — deliveries and timers are dropped — and recovers
// through the deployment's recovery hook. It assumes no record it sent
// before the crash is still in flight when it recovers: each has reached
// its shard's queue, or was lost with a crashed receiver.
// Recovery sends a kScan through every shard's log and resolves what the
// scans report: a transaction some shard holds decided, or whose home row
// names participants that all hold it, commits; anything else aborts.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "src/sim/actor.h"
#include "src/statemachine/state_machine.h"
#include "src/workload/reply_quorum.h"

namespace optilog {

class ShardedDeployment;
class Simulator;
struct TxnRequestMsg;

class TxnCoordinator : public Actor {
 public:
  TxnCoordinator(ShardedDeployment* owner, uint32_t shard, ReplicaId id,
                 ReplicaId anchor);

  void OnMessage(ReplicaId from, const MessagePtr& msg, SimTime at) override;
  void OnTimer(uint64_t tag, SimTime at) override;

  // Recovery hook: wipe volatile state, then send a kScan through every
  // shard's log (each commits behind every pre-crash record of ours in that
  // shard's FIFO queue) and resolve from the scans' replies.
  void OnAnchorRecovered(SimTime at);

  ReplicaId id() const { return id_; }
  // Clients in the dedup table: at most one entry each.
  size_t clients_tracked() const { return newest_request_.size(); }

  struct Stats {
    uint64_t prepares_sent = 0;
    uint64_t votes_no = 0;
    uint64_t duplicates = 0;  // client retries deduped
    uint64_t recovered_commits = 0;
    uint64_t recovered_aborts = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Txn {
    ReplicaId client = kNoReplica;
    uint64_t client_req = 0;
    std::vector<KvOp> ops;
    std::vector<uint32_t> op_shard;  // ShardOf(ops[i].key)
    // Ascending, home included. After a recovery: the shards holding a row.
    std::vector<uint32_t> participants;
    // The tag of its outstanding records: kPrepare, kCommit (the client
    // already has its answer), kAbort (the client is answered after them)
    // or kEnd.
    TxnTag phase = TxnTag::kPrepare;
    bool vote_no = false;
    bool recovered = false;  // resolved after a crash: results are gone
    uint32_t awaiting = 0;   // outstanding records in this phase
    std::vector<KvResult> results;  // per op, from the prepares' yes votes
  };

  // One replicated record in flight against one shard.
  struct Record {
    uint64_t txn_id = 0;
    uint32_t shard = 0;
    Bytes op;  // the encoded KvTxnOp, kept for re-sends
    ReplyQuorum replies;
    ReplicaId target = kNoReplica;
    EventId retry = kNoEvent;
  };

  bool IsDown(SimTime at) const;
  void StartTxn(const TxnRequestMsg& req, SimTime at);
  void SendRecord(uint64_t txn_id, uint32_t shard, Bytes op, SimTime now);
  void SendAttempt(uint64_t record_id, SimTime now);
  void OnRecordDone(uint64_t txn_id, uint32_t shard, const Bytes& result,
                    SimTime at);
  void BeginPhase(uint64_t txn_id, Txn& txn, TxnTag phase,
                  const std::vector<uint32_t>& targets, SimTime now);
  void AdvanceTxn(uint64_t txn_id, Txn& txn, SimTime at);
  void EmitDecide(uint64_t txn_id, bool commit, SimTime at);
  void ReplyToClient(const Txn& txn, bool committed, SimTime at);
  void SendScan(uint32_t shard, SimTime now);
  void OnScanDone(uint32_t shard, const Bytes& result, SimTime at);
  void Resolve(SimTime at);
  uint64_t NewTxnId();

  ShardedDeployment* owner_;
  Simulator* sim_;  // the deployment's shared simulator
  const uint32_t shard_;    // home shard this coordinator serves
  const ReplicaId id_;      // network id on every shard
  const ReplicaId anchor_;  // colocated replica whose crashes are ours

  std::map<uint64_t, Txn> txns_;
  std::map<uint64_t, Record> records_;  // record id = request id sent
  // Client dedup: each client's newest request id. A client has one
  // transaction outstanding and its request ids only grow, so a request at
  // or below the newest is a retry of one already started (in flight or
  // answered) and is not run twice. One entry per client, rebuilt from the
  // home rows the scans report on recovery.
  std::map<ReplicaId, uint64_t> newest_request_;

  // Ids restart from a bumped epoch after each recovery so post-crash
  // transactions and records never collide with pre-crash ones still
  // materialized in participant logs.
  uint64_t epoch_ = 0;
  uint64_t next_txn_ = 0;
  uint64_t next_record_ = 0;

  // Recovery: between the anchor's recovery and the last scan's reply, the
  // coordinator does not know what it holds — new transactions wait.
  uint32_t scans_pending_ = 0;
  std::vector<KvScanResult> scans_;  // per shard

  Stats stats_;
};

}  // namespace optilog
