// TxnCoordinator: leader-driven two-phase commit across shards.
//
// One coordinator per shard, colocated with the shard's anchor replica (the
// initial leader/root). Clients send a cross-shard transaction to the
// coordinator of its home shard — the shard of the first op — which drives
// classic presumed-abort 2PC where every protocol action is a record
// committed through a participant group's log:
//
//   1. kPrepare to the HOME shard first, carrying the participant list and
//      the client identity. Once this record commits, the transaction is
//      durable: a coordinator crash can always be resolved from the home
//      shard's materialized prepared/decided tables.
//   2. kPrepare to the remote participants in parallel (ops only).
//      Every yes vote carries its shard's per-op results: the values the
//      shard's commit will apply, fixed by the prepare's locks.
//   3. All yes votes: kCommit to the home shard — the commit record IS the
//      durable decision. Once it commits, the client is answered with the
//      prepares' results in op order. Any no vote: kAbort everywhere, reply
//      abort, client retries.
//   4. kCommit to the remotes in parallel, off the latency path.
//   5. kEnd to every participant garbage-collects the decided record.
//
// Each record rides an ordinary ClientRequestMsg (the coordinator is just
// another client of each shard: monotonic request ids, the shard leader's
// RequestQueue dedups retries) and is answered by the shard's normal client
// replies. Crash model: the coordinator is down exactly while its anchor
// replica is crashed — deliveries and timers are dropped — and recovers
// through the deployment's recovery hook: volatile state is rebuilt from the
// anchor's recovered KvStateMachine, decided transactions are re-driven
// (idempotent commits), and in-doubt prepares are aborted.
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

  // Recovery hook: wipe volatile state, commit a fence record through the
  // home shard's log (every pre-crash record sits ahead of it in the FIFO
  // queue, so the tables are complete once it commits), then re-drive from
  // the anchor's rebuilt state machine (decided -> commit re-drive,
  // prepared -> abort).
  void OnAnchorRecovered(SimTime at);

  ReplicaId id() const { return id_; }
  ReplicaId anchor() const { return anchor_; }

  struct Stats {
    uint64_t prepares_sent = 0;
    uint64_t votes_no = 0;
    uint64_t duplicates = 0;  // client retries deduped
    uint64_t recovered_commits = 0;
    uint64_t recovered_aborts = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // Which 2PC step a transaction is in; doubles as the meaning of its
  // outstanding records.
  enum class Phase : uint8_t {
    kPrepareHome,   // waiting on the home shard's prepare
    kPrepareRest,   // waiting on the remote prepares
    kDecideHome,    // waiting on the home commit (the durable decision)
    kCommitRest,    // waiting on the remote commits
    kAbortAll,      // waiting on aborts everywhere
    kEndAll,        // waiting on the GC records
  };

  struct Txn {
    ReplicaId client = kNoReplica;
    uint64_t client_req = 0;
    std::vector<KvOp> ops;
    std::vector<uint32_t> op_shard;      // ShardOf(ops[i].key)
    std::vector<uint32_t> participants;  // ascending, home included
    Phase phase = Phase::kPrepareHome;
    bool vote_no = false;
    bool recovered = false;  // re-driven after a crash: results are gone
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
  void BeginPhase(uint64_t txn_id, Txn& txn, Phase phase, SimTime now);
  void AdvanceTxn(uint64_t txn_id, Txn& txn, SimTime at);
  void ReplyToClient(const Txn& txn, bool committed, SimTime at);
  void RecoveryRebuild(SimTime at);
  uint64_t NewTxnId();

  ShardedDeployment* owner_;
  Simulator* sim_;  // the deployment's shared simulator
  const uint32_t shard_;    // home shard this coordinator serves
  const ReplicaId id_;      // network id on every shard
  const ReplicaId anchor_;  // colocated replica whose crashes are ours

  std::map<uint64_t, Txn> txns_;
  std::map<uint64_t, Record> records_;  // record id = request id sent
  // Client dedup: (client, client request id) -> txn. Entries survive
  // until the transaction fully ends so late retries are answered, and are
  // rebuilt from the home shard's tables on recovery.
  std::map<std::pair<ReplicaId, uint64_t>, uint64_t> by_client_;

  // Ids restart from a bumped epoch after each recovery so post-crash
  // transactions and records never collide with pre-crash ones still
  // materialized in participant logs.
  uint64_t epoch_ = 0;
  uint64_t next_txn_ = 0;
  uint64_t next_record_ = 0;

  // Recovery fence: between the anchor's recovery and the fence record's
  // commit, the tables may still be growing from pre-crash records draining
  // out of the home shard's queue — new transactions wait.
  bool fencing_ = false;
  uint64_t fence_record_ = 0;

  Stats stats_;
};

}  // namespace optilog
