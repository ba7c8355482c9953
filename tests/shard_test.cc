// The sharding subsystem (src/shard/): key routing, the transactional KV
// state-machine extension, per-(client, shard) request dedup, cross-shard
// 2PC atomicity and drain, coordinator crash recovery, every family's shard
// latency, and thread-count invariance of the shard_scaling sweep.
#include <gtest/gtest.h>

#include <set>

#include "src/api/deployment.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"
#include "src/shard/key_router.h"
#include "src/shard/sharded_deployment.h"
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

TEST(KvTxn, PrepareLocksCommitAppliesEndCollects) {
  KvStateMachine sm;
  const Bytes prepare = TxnRecord(TxnTag::kPrepare, 7, {Put(1, 10)}, {0, 1});
  EXPECT_TRUE(ApplyTxnRecord(sm, prepare).ok);
  EXPECT_EQ(sm.prepared().size(), 1u);
  EXPECT_EQ(sm.locks().count(1), 1u);

  // A locked key refuses both a kMulti fast-path txn and a second prepare.
  EXPECT_FALSE(ApplyTxnRecord(sm, TxnRecord(TxnTag::kMulti, 0, {Put(1, 9)})).ok);
  EXPECT_FALSE(
      ApplyTxnRecord(sm, TxnRecord(TxnTag::kPrepare, 8, {Put(1, 9)})).ok);
  // Re-delivery of the same prepare is an idempotent yes vote.
  EXPECT_TRUE(ApplyTxnRecord(sm, prepare).ok);
  EXPECT_EQ(sm.prepared().size(), 1u);

  KvMultiResult commit =
      ApplyTxnRecord(sm, TxnRecord(TxnTag::kCommit, 7));
  EXPECT_TRUE(commit.ok);
  ASSERT_EQ(commit.results.size(), 1u);
  EXPECT_EQ(commit.results[0].value, 10u);
  EXPECT_TRUE(sm.prepared().empty());
  EXPECT_TRUE(sm.locks().empty());
  EXPECT_EQ(sm.decided().size(), 1u);

  // Idempotent commit replays the original results; abort after a decision
  // is refused; unknown commits are refused.
  KvMultiResult again = ApplyTxnRecord(sm, TxnRecord(TxnTag::kCommit, 7));
  EXPECT_TRUE(again.ok);
  ASSERT_EQ(again.results.size(), 1u);
  EXPECT_EQ(again.results[0].value, 10u);
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
  ApplyTxnRecord(a, TxnRecord(TxnTag::kPrepare, 11, {Put(1, 10)}, {0, 2}));
  ApplyTxnRecord(a, TxnRecord(TxnTag::kPrepare, 12, {Put(2, 20)}, {1, 2}));
  ApplyTxnRecord(a, TxnRecord(TxnTag::kCommit, 12));

  KvStateMachine b;
  b.Restore(a.SnapshotBytes());
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  EXPECT_EQ(b.prepared().size(), 1u);
  EXPECT_EQ(b.decided().size(), 1u);
  // Locks are derived state: the restored machine still refuses writes to
  // txn 11's key.
  EXPECT_FALSE(
      ApplyTxnRecord(b, TxnRecord(TxnTag::kMulti, 0, {Put(1, 9)})).ok);
  // And the idempotent commit of txn 12 still replays its results.
  KvMultiResult replay = ApplyTxnRecord(b, TxnRecord(TxnTag::kCommit, 12));
  EXPECT_TRUE(replay.ok);
  ASSERT_EQ(replay.results.size(), 1u);
  EXPECT_EQ(replay.results[0].value, 20u);
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

TEST(ShardedDeployment, CoordinatorCrashRecoversInFlightTransactions) {
  TxnWorkloadOptions txn;
  txn.clients_per_shard = 6;
  txn.keys_per_txn = 2;
  txn.think_time = 0;  // maximum pressure: some 2PC is always in flight
  txn.stop_at = 10 * kSec;

  auto sd = BaseBuilder(17)
                .WithShards(2)
                .WithCrossShardRatio(0.5)
                .WithTxnWorkload(txn)
                .BuildSharded();
  // Crash shard 0's anchor replica — the coordinator dies with it, mid-2PC —
  // and bring it back through state transfer.
  const ReplicaId anchor = sd->Route(0);
  sd->shard(0).ScheduleCrash(anchor, 3 * kSec, 6 * kSec);
  sd->Start();
  sd->RunUntil(20 * kSec);

  const MetricsReport m = sd->Metrics();
  // The crash window caught live transactions, and recovery resolved them
  // from the home shard's durable tables: decided ones re-driven, in-doubt
  // ones aborted.
  EXPECT_GE(m.txn.recovered_commits + m.txn.recovered_aborts, 1u);
  EXPECT_EQ(m.statemachine.recoveries_completed, 1u);
  // Traffic resumed after recovery and the cross-shard oracle stayed clean.
  EXPECT_GT(m.txn.committed, 100u);
  EXPECT_EQ(m.txn.kv_mismatches, 0u);
  EXPECT_EQ(m.statemachine.digests_equal, 1u);
  ExpectTxnTablesDrained(*sd);
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
