// The sharding subsystem (src/shard/): key routing, the transactional KV
// state-machine extension, per-(client, shard) request dedup, cross-shard
// 2PC atomicity and drain, coordinator crash recovery, every family's shard
// latency, and thread-count invariance of the shard_scaling sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "src/api/deployment.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/shard/key_router.h"
#include "src/shard/sharded_deployment.h"
#include "src/shard/txn_messages.h"
#include "src/statemachine/group.h"
#include "src/statemachine/replica_rsm.h"
#include "src/statemachine/state_machine.h"
#include "src/workload/request_queue.h"

namespace optilog {
namespace {

// --- KeyRouter ---------------------------------------------------------------

TEST(KeyRouter, HashCoversEveryShardAndStaysInRange) {
  KeyRouter router(4);
  std::set<uint32_t> hit;
  for (uint64_t k = 0; k < 1000; ++k) {
    const uint32_t s = router.ShardOf(k * 0x9e3779b97f4a7c15ULL + k);
    ASSERT_LT(s, 4u);
    hit.insert(s);
  }
  EXPECT_EQ(hit.size(), 4u);
}

TEST(KeyRouter, SingleShardRoutesEverythingToZero) {
  KeyRouter router(1);
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(router.ShardOf(k * 123456789), 0u);
  }
}

// --- KvStateMachine transaction records --------------------------------------

Bytes TxnRecord(TxnTag tag, uint64_t txn_id, std::vector<KvOp> ops = {},
                std::vector<uint32_t> participants = {}) {
  KvTxnOp op;
  op.tag = tag;
  op.txn_id = txn_id;
  op.ops = std::move(ops);
  op.participants = std::move(participants);
  return op.Encode();
}

KvMultiResult ApplyTxnRecord(KvStateMachine& sm, const Bytes& record) {
  KvMultiResult m;
  EXPECT_TRUE(KvMultiResult::Decode(sm.Apply(record), &m));
  return m;
}

KvOp Put(uint64_t key, uint64_t arg) {
  KvOp op;
  op.kind = KvOpKind::kPut;
  op.key = key;
  op.arg = arg;
  return op;
}

KvOp Add(uint64_t key, uint64_t arg) { return {KvOpKind::kAdd, key, arg}; }

KvOp Get(uint64_t key) { return {KvOpKind::kGet, key, 0}; }

TEST(KvTxn, PrepareLocksCommitAppliesEndCollects) {
  KvStateMachine sm;
  const Bytes prepare = TxnRecord(TxnTag::kPrepare, 7, {Put(1, 10)}, {0, 1});
  const Bytes vote_bytes = sm.Apply(prepare);
  KvMultiResult vote;
  ASSERT_TRUE(KvMultiResult::Decode(vote_bytes, &vote));
  // The yes vote carries the results the commit will apply.
  EXPECT_TRUE(vote.ok);
  ASSERT_EQ(vote.results.size(), 1u);
  EXPECT_FALSE(vote.results[0].found);
  EXPECT_EQ(vote.results[0].value, 10u);
  EXPECT_EQ(sm.prepared().size(), 1u);
  EXPECT_EQ(sm.locks().count(1), 1u);

  // A locked key refuses both a kMulti fast-path txn and a second prepare,
  // whose no vote carries no results.
  EXPECT_FALSE(ApplyTxnRecord(sm, TxnRecord(TxnTag::kMulti, 0, {Put(1, 9)})).ok);
  const KvMultiResult no =
      ApplyTxnRecord(sm, TxnRecord(TxnTag::kPrepare, 8, {Put(1, 9)}));
  EXPECT_FALSE(no.ok);
  EXPECT_TRUE(no.results.empty());
  // Re-delivery of the same prepare is an idempotent yes vote, byte for byte.
  EXPECT_EQ(sm.Apply(prepare), vote_bytes);
  EXPECT_EQ(sm.prepared().size(), 1u);

  // The commit applies and replies ok alone: the prepare carried the values.
  KvMultiResult commit =
      ApplyTxnRecord(sm, TxnRecord(TxnTag::kCommit, 7));
  EXPECT_TRUE(commit.ok);
  EXPECT_TRUE(commit.results.empty());
  EXPECT_TRUE(sm.prepared().empty());
  EXPECT_TRUE(sm.locks().empty());
  EXPECT_EQ(sm.decided().size(), 1u);

  // An idempotent commit re-drive is a yes that applies nothing again;
  // abort after a decision is refused; unknown commits are refused.
  const Digest decided_state = sm.StateDigest();
  KvMultiResult again = ApplyTxnRecord(sm, TxnRecord(TxnTag::kCommit, 7));
  EXPECT_TRUE(again.ok);
  EXPECT_TRUE(again.results.empty());
  EXPECT_EQ(sm.StateDigest(), decided_state);
  EXPECT_FALSE(ApplyTxnRecord(sm, TxnRecord(TxnTag::kAbort, 7)).ok);
  EXPECT_FALSE(ApplyTxnRecord(sm, TxnRecord(TxnTag::kCommit, 99)).ok);

  EXPECT_TRUE(ApplyTxnRecord(sm, TxnRecord(TxnTag::kEnd, 7)).ok);
  EXPECT_TRUE(sm.decided().empty());

  // The committed write is visible to the plain KV path.
  KvResult res;
  ASSERT_TRUE(KvResult::Decode(
      sm.Apply(KvOp{KvOpKind::kGet, 1, 0}.Encode()), &res));
  EXPECT_TRUE(res.found);
  EXPECT_EQ(res.value, 10u);
}

// A yes vote's results are exactly what its commit applies: the same as
// the ops run as one kMulti on the same state, each op seeing the earlier
// ops of its record, a key used twice included.
TEST(KvTxn, PrepareRepliesTheResultsItsCommitApplies) {
  const std::vector<KvOp> ops = {
      Get(1),      // present
      Put(2, 5),   // absent
      Add(1, 3),   // present
      Get(2),      // written by this record
      Add(3, 4),   // absent
      Add(3, 1),   // the same key again
      Put(1, 8),   // overwrites this record's add
      Get(9),      // absent throughout
  };
  KvStateMachine prepared, multi;
  for (KvStateMachine* sm : {&prepared, &multi}) {
    sm->Apply(Put(1, 40).Encode());
  }
  const KvMultiResult vote = ApplyTxnRecord(
      prepared, TxnRecord(TxnTag::kPrepare, 5, ops, {0, 1}));
  const KvMultiResult applied =
      ApplyTxnRecord(multi, TxnRecord(TxnTag::kMulti, 0, ops));
  ASSERT_TRUE(vote.ok);
  ASSERT_TRUE(applied.ok);
  ASSERT_EQ(vote.results.size(), ops.size());
  ASSERT_EQ(applied.results.size(), ops.size());
  const std::vector<std::pair<bool, uint64_t>> expect = {
      {true, 40}, {false, 5}, {true, 43}, {true, 5},
      {false, 4}, {true, 5},  {true, 8},  {false, 0},
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(vote.results[i].found, expect[i].first);
    EXPECT_EQ(vote.results[i].value, expect[i].second);
    EXPECT_EQ(vote.results[i].found, applied.results[i].found);
    EXPECT_EQ(vote.results[i].value, applied.results[i].value);
  }
  // Nothing is applied until the commit, which applies those very values.
  EXPECT_EQ(prepared.size(), 1u);
  EXPECT_TRUE(ApplyTxnRecord(prepared, TxnRecord(TxnTag::kCommit, 5)).ok);
  EXPECT_TRUE(ApplyTxnRecord(prepared, TxnRecord(TxnTag::kEnd, 5)).ok);
  EXPECT_EQ(prepared.StateDigest(), multi.StateDigest());
}

// While a transaction stays prepared, its locks refuse every other write to
// its keys, so a duplicate prepare evaluates to the same bytes whatever
// else committed in between.
TEST(KvTxn, DuplicatePrepareRepliesTheSameBytes) {
  KvStateMachine sm;
  sm.Apply(Put(1, 7).Encode());
  const Bytes prepare =
      TxnRecord(TxnTag::kPrepare, 4, {Add(1, 2), Get(2), Add(2, 6)}, {0, 1});
  const Bytes vote = sm.Apply(prepare);
  EXPECT_FALSE(ApplyTxnRecord(sm, TxnRecord(TxnTag::kMulti, 0, {Put(1, 0)})).ok);
  EXPECT_FALSE(
      ApplyTxnRecord(sm, TxnRecord(TxnTag::kPrepare, 6, {Add(2, 1)})).ok);
  EXPECT_TRUE(ApplyTxnRecord(sm, TxnRecord(TxnTag::kMulti, 0, {Add(3, 1)})).ok);
  EXPECT_EQ(sm.Apply(prepare), vote);
  KvMultiResult m;
  ASSERT_TRUE(KvMultiResult::Decode(vote, &m));
  ASSERT_EQ(m.results.size(), 3u);
  EXPECT_EQ(m.results[0].value, 9u);
  EXPECT_FALSE(m.results[1].found);
  EXPECT_EQ(m.results[2].value, 6u);
}

TEST(KvTxn, AbortReleasesLocksAndIsIdempotent) {
  KvStateMachine sm;
  ApplyTxnRecord(sm, TxnRecord(TxnTag::kPrepare, 3, {Put(5, 1)}, {0}));
  EXPECT_EQ(sm.locks().count(5), 1u);
  EXPECT_TRUE(ApplyTxnRecord(sm, TxnRecord(TxnTag::kAbort, 3)).ok);
  EXPECT_TRUE(sm.prepared().empty());
  EXPECT_TRUE(sm.locks().empty());
  EXPECT_TRUE(ApplyTxnRecord(sm, TxnRecord(TxnTag::kAbort, 3)).ok);
  // The aborted write never happened.
  KvResult res;
  ASSERT_TRUE(KvResult::Decode(
      sm.Apply(KvOp{KvOpKind::kGet, 5, 0}.Encode()), &res));
  EXPECT_FALSE(res.found);
}

TEST(KvTxn, SnapshotCarriesTablesAndRebuildsLocks) {
  KvStateMachine a;
  a.Apply(KvOp{KvOpKind::kPut, 100, 7}.Encode());
  const Bytes prepare11 =
      TxnRecord(TxnTag::kPrepare, 11, {Put(1, 10), Add(100, 5)}, {0, 2});
  const Bytes vote11 = a.Apply(prepare11);
  ApplyTxnRecord(a, TxnRecord(TxnTag::kPrepare, 12, {Put(2, 20)}, {1, 2}));
  ApplyTxnRecord(a, TxnRecord(TxnTag::kCommit, 12));

  KvStateMachine b;
  b.Restore(a.SnapshotBytes());
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  EXPECT_EQ(b.prepared().size(), 1u);
  EXPECT_EQ(b.decided().size(), 1u);
  // Locks are derived state: the restored machine still refuses writes to
  // txn 11's keys.
  EXPECT_FALSE(
      ApplyTxnRecord(b, TxnRecord(TxnTag::kMulti, 0, {Put(1, 9)})).ok);
  EXPECT_FALSE(
      ApplyTxnRecord(b, TxnRecord(TxnTag::kMulti, 0, {Add(100, 1)})).ok);
  // A duplicate of txn 11's prepare replies the bytes the donor replied.
  EXPECT_EQ(b.Apply(prepare11), vote11);
  KvMultiResult vote;
  ASSERT_TRUE(KvMultiResult::Decode(vote11, &vote));
  ASSERT_EQ(vote.results.size(), 2u);
  EXPECT_EQ(vote.results[0].value, 10u);
  EXPECT_EQ(vote.results[1].value, 12u);
  // And the commit of txn 12 is still an idempotent yes.
  KvMultiResult replay = ApplyTxnRecord(b, TxnRecord(TxnTag::kCommit, 12));
  EXPECT_TRUE(replay.ok);
  EXPECT_TRUE(replay.results.empty());
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
}

TEST(KvTxn, LegacySnapshotBytesUnchangedWhenTablesAreEmpty) {
  // A machine whose transaction tables drained back to empty must snapshot
  // byte-identically to one that never saw a transaction — the guarantee
  // that keeps pre-sharding snapshots and digests stable.
  KvStateMachine never;
  never.Apply(KvOp{KvOpKind::kPut, 42, 1}.Encode());

  KvStateMachine drained;
  drained.Apply(KvOp{KvOpKind::kPut, 42, 1}.Encode());
  ApplyTxnRecord(drained, TxnRecord(TxnTag::kPrepare, 5, {Put(9, 9)}, {0}));
  ApplyTxnRecord(drained, TxnRecord(TxnTag::kAbort, 5));

  EXPECT_EQ(never.SnapshotBytes(), drained.SnapshotBytes());
  EXPECT_EQ(never.StateDigest(), drained.StateDigest());
}

// --- RequestQueue (client, shard) dedup --------------------------------------

TEST(RequestQueueShard, SameIdOnDifferentShardsIsNotADuplicate) {
  RequestQueue q(BatchPolicy{});
  RequestRef req;
  req.client = 9;
  req.request_id = 5;
  req.shard = 0;
  EXPECT_EQ(q.Push(req, 0), RequestQueue::Admit::kAccepted);
  // Retry on the same shard: deduped.
  EXPECT_EQ(q.Push(req, 1), RequestQueue::Admit::kDuplicate);
  // The same (client, id) fanned out to another shard: admitted — the
  // transaction layer reuses one id space across several groups.
  req.shard = 1;
  EXPECT_EQ(q.Push(req, 2), RequestQueue::Admit::kAccepted);
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.duplicates(), 1u);
}

// --- Sharded deployments -----------------------------------------------------

Deployment::Builder BaseBuilder(uint64_t seed) {
  WorkloadOptions w;
  w.arrival = ArrivalProcess::kClosedLoop;
  w.outstanding = 1;
  w.think_time = 10 * kMsec;
  w.batch.max_batch = 32;
  w.batch.max_delay = 10 * kMsec;
  StateMachineOptions sm;
  sm.checkpoint.interval = 64;
  sm.checkpoint.truncate = true;
  Deployment::Builder b;
  b.WithGeo(Europe21())
      .WithReplicas(7, 2)
      .WithProtocol(Protocol::kHotStuff)
      .WithSeed(seed)
      .WithWorkload(w)
      .WithStateMachine(sm);
  return b;
}

void ExpectTxnTablesDrained(ShardedDeployment& sd) {
  for (uint32_t s = 0; s < sd.shards(); ++s) {
    const RsmGroup* group = sd.shard(s).state_machines();
    ASSERT_NE(group, nullptr);
    for (ReplicaId r = 0; r < sd.replicas_per_shard(); ++r) {
      const KvStateMachine& kv = group->rsm(r).machine();
      EXPECT_TRUE(kv.prepared().empty()) << "shard " << s << " replica " << r;
      EXPECT_TRUE(kv.locks().empty()) << "shard " << s << " replica " << r;
      EXPECT_TRUE(kv.decided().empty()) << "shard " << s << " replica " << r;
    }
  }
}

// Stands in for every transaction client on every shard's network and
// forwards each delivery to the client. At each committed cross-shard reply
// it checks where the transaction's remote half stands, and it counts the
// re-answers of transactions a client already had an answer for.
class ReplyTaps {
 public:
  explicit ReplyTaps(ShardedDeployment& sd) : sd_(sd) {
    TxnFleet& fleet = *sd.txn_fleet();
    for (uint32_t s = 0; s < sd.shards(); ++s) {
      for (uint32_t i = 0; i < fleet.size(); ++i) {
        taps_.push_back(std::make_unique<Tap>(this, s, i, &fleet.client(i)));
        sd.shard(s).net().Register(fleet.client(i).id(), taps_.back().get());
      }
    }
  }

  // Committed replies that arrived while every replica of some remote
  // shard still held the transaction's prepare: its commit had landed
  // nowhere yet.
  uint64_t before_remote_commit() const { return before_remote_commit_; }
  uint64_t re_answered() const { return re_answered_; }

 private:
  struct Tap : Actor {
    Tap(ReplyTaps* owner, uint32_t home, uint32_t index, TxnClient* client)
        : owner(owner), home(home), index(index), client(client) {}
    void OnMessage(ReplicaId from, const MessagePtr& msg,
                   SimTime at) override {
      if (msg->type() == kMsgTxnReply) {
        const auto& reply = static_cast<const TxnReplyMsg&>(*msg);
        if (reply.committed) {
          owner->OnCommittedReply(*this, reply);
        }
      }
      client->OnMessage(from, msg, at);
    }
    ReplyTaps* owner;
    uint32_t home;   // the shard whose network delivers here
    uint32_t index;  // the client's index: its private keys' high half - 1
    TxnClient* client;
  };

  void OnCommittedReply(const Tap& tap, const TxnReplyMsg& reply) {
    if (!answered_.insert({tap.index, reply.request_id}).second) {
      ++re_answered_;
      return;
    }
    for (uint32_t s = 0; s < sd_.shards(); ++s) {
      if (s != tap.home && AllReplicasHoldPrepare(s, tap.index)) {
        ++before_remote_commit_;
        return;
      }
    }
  }

  // True when every replica of `shard` holds a remote prepare (no
  // participant list) over a private key of client `index`.
  bool AllReplicasHoldPrepare(uint32_t shard, uint32_t index) const {
    const RsmGroup* group = sd_.shard(shard).state_machines();
    for (ReplicaId r = 0; r < sd_.replicas_per_shard(); ++r) {
      bool held = false;
      for (const auto& [txn_id, p] : group->rsm(r).machine().prepared()) {
        held = held || (p.participants.empty() &&
                        std::any_of(p.ops.begin(), p.ops.end(),
                                    [index](const KvOp& op) {
                                      return op.key >> 32 == index + 1;
                                    }));
      }
      if (!held) {
        return false;
      }
    }
    return true;
  }

  ShardedDeployment& sd_;
  std::vector<std::unique_ptr<Tap>> taps_;
  std::set<std::pair<uint32_t, uint64_t>> answered_;  // (client, request)
  uint64_t before_remote_commit_ = 0;
  uint64_t re_answered_ = 0;
};

TEST(ShardedDeployment, CrossShardTransactionsAreAtomicAndDrain) {
  TxnWorkloadOptions txn;
  txn.clients_per_shard = 4;
  txn.keys_per_txn = 2;
  txn.hot_pct = 20;
  txn.think_time = 5 * kMsec;
  txn.stop_at = 6 * kSec;  // stop generating, then drain

  auto sd = BaseBuilder(13)
                .WithShards(2)
                .WithCrossShardRatio(0.5)
                .WithTxnWorkload(txn)
                .BuildSharded();
  sd->Start();
  sd->RunUntil(12 * kSec);

  const MetricsReport m = sd->Metrics();
  EXPECT_GT(m.txn.committed, 100u);
  EXPECT_GT(m.txn.committed_cross, 10u);
  EXPECT_GT(m.txn.kv_checks, 0u);
  EXPECT_EQ(m.txn.kv_mismatches, 0u);
  EXPECT_EQ(m.statemachine.digests_equal, 1u);
  // Every 2PC conversation ran to completion: no leaked locks, no lingering
  // prepared or decided entries anywhere.
  ExpectTxnTablesDrained(*sd);
}

// A cross-shard client is answered once the home shard's commit record (the
// durable decision) commits, before any remote replica has applied its
// commit: the prepares carried the results.
TEST(ShardedDeployment, CrossShardReplyPrecedesRemoteCommits) {
  TxnWorkloadOptions txn;
  txn.clients_per_shard = 4;
  txn.keys_per_txn = 2;
  txn.think_time = 5 * kMsec;
  txn.stop_at = 4 * kSec;

  auto sd = BaseBuilder(19)
                .WithShards(2)
                .WithCrossShardRatio(0.5)
                .WithTxnWorkload(txn)
                .BuildSharded();
  ReplyTaps taps(*sd);
  sd->Start();
  sd->RunUntil(8 * kSec);

  const MetricsReport m = sd->Metrics();
  EXPECT_GT(m.txn.committed_cross, 10u);
  EXPECT_EQ(taps.before_remote_commit(), m.txn.committed_cross);
  EXPECT_EQ(taps.re_answered(), 0u);
  EXPECT_EQ(m.txn.kv_mismatches, 0u);
  EXPECT_EQ(m.statemachine.digests_equal, 1u);
  ExpectTxnTablesDrained(*sd);
}

TEST(ShardedDeployment, CoordinatorCrashRecoversInFlightTransactions) {
  TxnWorkloadOptions txn;
  txn.clients_per_shard = 6;
  txn.keys_per_txn = 2;
  txn.think_time = 0;  // maximum pressure: some 2PC is always in flight
  txn.stop_at = 10 * kSec;

  // Crash shard 0's anchor replica — the coordinator dies with it, mid-2PC —
  // and bring it back through state transfer. The sweep over crash instants
  // stops at the first run whose crash fell between a transaction's answer
  // and its remote commits: recovery re-drives that decided transaction and
  // re-answers a client that already had its results.
  bool answered_then_recovered = false;
  for (SimTime crash = 3 * kSec;
       crash < 4 * kSec && !answered_then_recovered; crash += 50 * kMsec) {
    SCOPED_TRACE(crash);
    auto sd = BaseBuilder(17)
                  .WithShards(2)
                  .WithCrossShardRatio(0.5)
                  .WithTxnWorkload(txn)
                  .BuildSharded();
    const ReplicaId anchor = sd->Route(0);
    sd->shard(0).ScheduleCrash(anchor, crash, 6 * kSec);
    ReplyTaps taps(*sd);
    sd->Start();
    sd->RunUntil(20 * kSec);

    const MetricsReport m = sd->Metrics();
    // Recovery resolves what the crash caught from the home shard's durable
    // tables: decided transactions re-driven (and re-answered), in-doubt
    // ones aborted.
    EXPECT_EQ(m.statemachine.recoveries_completed, 1u);
    EXPECT_LE(taps.re_answered(), m.txn.recovered_commits);
    answered_then_recovered = taps.re_answered() >= 1;
    // Traffic resumed after recovery and the cross-shard oracle stayed clean.
    EXPECT_GT(m.txn.committed, 100u);
    EXPECT_EQ(m.txn.kv_mismatches, 0u);
    EXPECT_EQ(m.statemachine.digests_equal, 1u);
    ExpectTxnTablesDrained(*sd);
  }
  EXPECT_TRUE(answered_then_recovered);
}

// A shard has no client fleet, so each reports its engine's own consensus
// latency: for the PBFT family, Pre-Prepare timestamp to the leader's
// commit. The deployment's commit-weighted mean is then a real latency for
// both families, not 0 for PBFT shards.
TEST(ShardedDeployment, EveryFamilyReportsShardConsensusLatency) {
  TxnWorkloadOptions txn;
  txn.clients_per_shard = 4;
  for (Protocol protocol : {Protocol::kHotStuff, Protocol::kPbft}) {
    SCOPED_TRACE(protocol == Protocol::kPbft ? "PBFT" : "HotStuff");
    auto sd = BaseBuilder(13)
                  .WithProtocol(protocol)
                  .WithShards(2)
                  .WithTxnWorkload(txn)
                  .BuildSharded();
    sd->Start();
    sd->RunUntil(5 * kSec);
    const MetricsReport m = sd->Metrics();
    EXPECT_GT(m.committed, 100u);
    // Europe-wide quorum rounds: tens of milliseconds.
    EXPECT_GT(m.mean_latency_ms, 5.0);
    EXPECT_LT(m.mean_latency_ms, 200.0);
  }
}

TEST(ShardedDeployment, ShardScalingSweepIsThreadCountInvariant) {
  const Scenario* s = ScenarioRegistry::Instance().Find("shard_scaling");
  ASSERT_NE(s, nullptr);
  const ScenarioRunResult a = RunScenario(*s, 1);
  const ScenarioRunResult b = RunScenario(*s, 4);
  EXPECT_EQ(DeterministicJson(a), DeterministicJson(b));
  for (const PointResult& p : a.points) {
    EXPECT_EQ(p.digest.size(), 64u);
  }
}

}  // namespace
}  // namespace optilog
