// The sharding subsystem (src/shard/): key routing, the transactional KV
// state-machine extension, per-(client, shard) request dedup, cross-shard
// 2PC atomicity and drain, coordinator crash recovery, every family's shard
// latency, and thread-count invariance of the shard_scaling sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
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

// A kScan lists exactly the prepared and decided rows whose ids carry its
// prefix, in id order, each with the participants and client identity its
// prepare recorded (empty at a remote), and changes nothing.
TEST(KvTxn, ScanListsOneCoordinatorsRowsAndChangesNothing) {
  const uint64_t ours = uint64_t{2} << 40;  // the coordinator of shard 1
  KvStateMachine sm;
  KvTxnOp home;
  home.tag = TxnTag::kPrepare;
  home.txn_id = ours | 5;
  home.ops = {Put(1, 10)};
  home.participants = {0, 1};
  home.client = 42;
  home.client_req = 9;
  ASSERT_TRUE(ApplyTxnRecord(sm, home.Encode()).ok);
  ApplyTxnRecord(sm, TxnRecord(TxnTag::kPrepare, ours | 3, {Put(2, 20)}));
  ApplyTxnRecord(sm, TxnRecord(TxnTag::kCommit, ours | 3));
  ApplyTxnRecord(sm, TxnRecord(TxnTag::kPrepare, ours | 7, {Put(3, 30)}));
  ApplyTxnRecord(sm, TxnRecord(TxnTag::kPrepare, ours | 8, {Put(4, 40)}));
  ApplyTxnRecord(sm, TxnRecord(TxnTag::kAbort, ours | 8));
  // Other coordinators' rows, on either side of the prefix.
  ApplyTxnRecord(sm, TxnRecord(TxnTag::kPrepare, uint64_t{1} << 40 | 4,
                               {Put(5, 50)}, {0, 1}));
  const uint64_t after = uint64_t{3} << 40;
  ApplyTxnRecord(sm, TxnRecord(TxnTag::kPrepare, after, {Put(6, 60)}));
  ApplyTxnRecord(sm, TxnRecord(TxnTag::kCommit, after));

  const auto scan = [&sm](uint64_t prefix) {
    const Bytes before = sm.SnapshotBytes();
    KvScanResult out;
    EXPECT_TRUE(KvScanResult::Decode(
        sm.Apply(TxnRecord(TxnTag::kScan, prefix)), &out));
    EXPECT_TRUE(out.ok);
    EXPECT_EQ(sm.SnapshotBytes(), before);
    return out;
  };
  KvScanResult listed = scan(2);
  ASSERT_EQ(listed.rows.size(), 3u);
  EXPECT_EQ(listed.rows[0].txn_id, ours | 3);
  EXPECT_TRUE(listed.rows[0].decided);
  EXPECT_EQ(listed.rows[1].txn_id, ours | 5);
  EXPECT_FALSE(listed.rows[1].decided);
  EXPECT_EQ(listed.rows[2].txn_id, ours | 7);
  EXPECT_FALSE(listed.rows[2].decided);
  for (size_t i : {0, 2}) {
    EXPECT_TRUE(listed.rows[i].participants.empty()) << i;
    EXPECT_EQ(listed.rows[i].client, kNoReplica) << i;
  }
  EXPECT_EQ(listed.rows[1].participants, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(listed.rows[1].client, 42u);
  EXPECT_EQ(listed.rows[1].client_req, 9u);

  // The home row keeps the participants and client once it is decided.
  ApplyTxnRecord(sm, TxnRecord(TxnTag::kCommit, ours | 5));
  listed = scan(2);
  ASSERT_EQ(listed.rows.size(), 3u);
  EXPECT_TRUE(listed.rows[1].decided);
  EXPECT_EQ(listed.rows[1].participants, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(listed.rows[1].client, 42u);
  EXPECT_EQ(listed.rows[1].client_req, 9u);

  ASSERT_EQ(scan(1).rows.size(), 1u);
  EXPECT_TRUE(scan(4).rows.empty());
  EXPECT_TRUE(scan(~uint64_t{0}).rows.empty());  // no id can carry it
}

// A truncated scan is the transaction family's no-op reply, which decodes
// as a refused scan.
TEST(KvTxn, TruncatedScanIsTheNoOpReply) {
  KvStateMachine sm;
  ApplyTxnRecord(sm, TxnRecord(TxnTag::kPrepare, uint64_t{1} << 40 | 1,
                               {Put(1, 1)}, {0, 1}));
  const Bytes before = sm.SnapshotBytes();
  Bytes cut = TxnRecord(TxnTag::kScan, 1);
  cut.pop_back();
  const Bytes reply = sm.Apply(cut);
  EXPECT_EQ(reply, KvMultiResult{}.Encode());
  KvScanResult scan;
  ASSERT_TRUE(KvScanResult::Decode(reply, &scan));
  EXPECT_FALSE(scan.ok);
  EXPECT_TRUE(scan.rows.empty());
  EXPECT_EQ(sm.SnapshotBytes(), before);
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
// it checks where the transaction's home and remote halves stand, and it
// counts the committed answers each (client, request) receives.
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

  // First committed replies that arrived while every replica of the home
  // shard still held the transaction's home prepare, and those that arrived
  // while every replica of some remote shard still held its remote
  // prepare: the commit had landed on no replica of that shard yet.
  uint64_t before_home_commit() const { return before_home_commit_; }
  uint64_t before_remote_commit() const { return before_remote_commit_; }
  // Committed answers beyond the first, over every (client, request).
  uint64_t re_answered() const { return re_answered_; }
  // Committed answers client `client` received for `request`.
  uint32_t answers(ReplicaId client, uint64_t request) const {
    const auto it = answers_.find({client, request});
    return it == answers_.end() ? 0 : it->second;
  }

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
    if (++answers_[{tap.client->id(), reply.request_id}] > 1) {
      ++re_answered_;
      return;
    }
    if (AllReplicasHoldHomePrepare(tap.home, tap.client->id(),
                                   reply.request_id)) {
      ++before_home_commit_;
    }
    for (uint32_t s = 0; s < sd_.shards(); ++s) {
      if (s != tap.home && AllReplicasHoldPrepare(s, tap.index)) {
        ++before_remote_commit_;
        return;
      }
    }
  }

  // True when every replica of `shard` holds the home prepare of
  // `client`'s `request`.
  bool AllReplicasHoldHomePrepare(uint32_t shard, ReplicaId client,
                                  uint64_t request) const {
    const RsmGroup* group = sd_.shard(shard).state_machines();
    for (ReplicaId r = 0; r < sd_.replicas_per_shard(); ++r) {
      const auto& prepared = group->rsm(r).machine().prepared();
      if (std::none_of(prepared.begin(), prepared.end(),
                       [&](const auto& row) {
                         return row.second.client == client &&
                                row.second.client_req == request;
                       })) {
        return false;
      }
    }
    return true;
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
  // (client, request) -> committed answers received
  std::map<std::pair<ReplicaId, uint64_t>, uint32_t> answers_;
  uint64_t before_home_commit_ = 0;
  uint64_t before_remote_commit_ = 0;
  uint64_t re_answered_ = 0;
};

// The id prefix of shard `s`'s coordinator: the high bits of its
// transaction ids.
uint64_t CoordinatorPrefix(uint32_t s) { return s + 1; }

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

// A cross-shard client is answered at the last yes vote, before any replica
// of the home shard or of a remote shard has applied the commit: the
// prepares carried the results.
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
  EXPECT_EQ(taps.before_home_commit(), m.txn.committed_cross);
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

// Transactions of shard 0's coordinator whose client already holds the
// commit answer while no replica of any shard has applied their commit, as
// (client, request) pairs.
std::vector<std::pair<ReplicaId, uint64_t>> AnsweredButCommittedNowhere(
    ShardedDeployment& sd, const ReplyTaps& taps) {
  std::set<uint64_t> decided;
  std::map<uint64_t, std::pair<ReplicaId, uint64_t>> home_rows;
  for (uint32_t s = 0; s < sd.shards(); ++s) {
    const RsmGroup* group = sd.shard(s).state_machines();
    for (ReplicaId r = 0; r < sd.replicas_per_shard(); ++r) {
      const KvStateMachine& kv = group->rsm(r).machine();
      for (const auto& [txn_id, d] : kv.decided()) {
        decided.insert(txn_id);
      }
      for (const auto& [txn_id, p] : kv.prepared()) {
        if (txn_id >> 40 == CoordinatorPrefix(0) &&
            !p.participants.empty()) {
          home_rows[txn_id] = {p.client, p.client_req};
        }
      }
    }
  }
  std::vector<std::pair<ReplicaId, uint64_t>> out;
  for (const auto& [txn_id, client] : home_rows) {
    if (decided.count(txn_id) == 0 &&
        taps.answers(client.first, client.second) > 0) {
      out.push_back(client);
    }
  }
  return out;
}

// A crash after a transaction's answer and before its commit has applied
// anywhere: the commit records already sent may still land while the
// coordinator is down, or may not, and recovery must commit the
// transaction from what the scans report either way. The sweep over crash
// instants stops at the first run that catches such a transaction. Its
// client was answered at the votes and is answered once more, without
// values, by the recovered coordinator.
TEST(ShardedDeployment, CrashAfterTheAnswerCommitsFromTheScans) {
  TxnWorkloadOptions txn;
  txn.clients_per_shard = 6;
  txn.keys_per_txn = 2;
  txn.think_time = 0;
  txn.stop_at = 10 * kSec;

  bool caught = false;
  for (SimTime crash = 3 * kSec; crash < 4 * kSec && !caught;
       crash += 10 * kMsec) {
    SCOPED_TRACE(crash);
    auto sd = BaseBuilder(17)
                  .WithShards(2)
                  .WithCrossShardRatio(0.5)
                  .WithTxnWorkload(txn)
                  .BuildSharded();
    sd->shard(0).ScheduleCrash(sd->Route(0), crash, 6 * kSec);
    ReplyTaps taps(*sd);
    sd->Start();
    sd->RunUntil(crash);
    const auto window = AnsweredButCommittedNowhere(*sd, taps);
    sd->RunUntil(20 * kSec);

    const MetricsReport m = sd->Metrics();
    for (const auto& [client, request] : window) {
      EXPECT_EQ(taps.answers(client, request), 2u)
          << "client " << client << " request " << request;
    }
    caught = !window.empty();
    EXPECT_EQ(m.statemachine.recoveries_completed, 1u);
    EXPECT_GE(m.txn.recovered_commits, window.size());
    EXPECT_GT(m.txn.committed, 100u);
    EXPECT_EQ(m.txn.kv_mismatches, 0u);
    EXPECT_EQ(m.statemachine.digests_equal, 1u);
    ExpectTxnTablesDrained(*sd);
  }
  EXPECT_TRUE(caught);
}

// Stands in for transaction client 0 on every shard's network, so a test
// can script what shard 0's coordinator receives, and records the
// coordinator's answers.
struct ScriptedClient : Actor {
  explicit ScriptedClient(ShardedDeployment& sd)
      : sd(sd), id(sd.txn_fleet()->client(0).id()) {
    for (uint32_t s = 0; s < sd.shards(); ++s) {
      sd.shard(s).net().Register(id, this);
    }
  }
  void Send(uint64_t request, std::vector<KvOp> ops) {
    auto msg = MakeMessage<TxnRequestMsg>();
    msg->client = id;
    msg->request_id = request;
    msg->sent_at = sd.sim().now();
    msg->ops = std::move(ops);
    sd.shard(0).net().Send(id, sd.coordinator_id(0), std::move(msg));
  }
  void OnMessage(ReplicaId, const MessagePtr& msg, SimTime) override {
    if (msg->type() == kMsgTxnReply) {
      const auto& reply = static_cast<const TxnReplyMsg&>(*msg);
      answers[reply.request_id].push_back(
          {reply.committed, !reply.results.empty()});
    }
  }
  struct Answer {
    bool committed = false;
    bool with_values = false;
  };
  ShardedDeployment& sd;
  const ReplicaId id;
  std::map<uint64_t, std::vector<Answer>> answers;  // by request id
};

// Three transactions of one client reach shard 0's coordinator back to
// back. The first locks a home key and a remote key. The second shares the
// home key, so its home prepare votes no while its remote prepare votes
// yes; the third shares the remote key, so its remote prepare votes no
// while its home prepare votes yes. Shard 0's anchor crashes as soon as a
// replica of the remote shard applies them, before any remote vote can
// reach the coordinator (a one-way delay is at least 0.5 ms). Recovery
// learns all three from the scans alone:
//   - the first has a yes row at every participant its home row names, so
//     it commits and its client is answered;
//   - the second has a remote yes row and no home row, so it aborts, which
//     releases the remote lock, and no client is named to answer;
//   - the third has a home row that names a participant holding no row,
//     so it aborts and its client is answered abort.
TEST(ShardedDeployment, RecoveryResolvesVotesTheCoordinatorNeverSaw) {
  TxnWorkloadOptions txn;
  txn.clients_per_shard = 1;
  txn.stop_at = 1;  // the fleet stays idle: the test scripts the traffic
  auto sd = BaseBuilder(23)
                .WithShards(2)
                .WithCrossShardRatio(0.5)
                .WithTxnWorkload(txn)
                .BuildSharded();
  const ReplicaId anchor = sd->Route(0);
  ScriptedClient client(*sd);
  const auto key_on = [&sd](uint32_t shard, uint64_t from) {
    while (sd->router().ShardOf(from) != shard) {
      ++from;
    }
    return from;
  };
  const uint64_t home_key = key_on(0, 1000);
  const uint64_t first_remote = key_on(1, 1000);
  const uint64_t second_remote = key_on(1, first_remote + 1);
  const uint64_t third_home = key_on(0, home_key + 1);
  sd->Start();
  sd->RunUntil(100 * kMsec);
  client.Send(0, {Put(home_key, 1), Put(first_remote, 2)});
  client.Send(1, {Put(home_key, 3), Put(second_remote, 4)});
  client.Send(2, {Put(third_home, 5), Put(first_remote, 6)});

  const auto machine = [&sd](uint32_t shard,
                             ReplicaId r) -> const KvStateMachine& {
    return sd->shard(shard).state_machines()->rsm(r).machine();
  };
  // Shard 0's coordinator's prepared rows at one replica, in id order.
  const auto prepared = [&machine](uint32_t shard, ReplicaId r) {
    std::vector<KvTxnOp> out;
    for (const auto& [txn_id, p] : machine(shard, r).prepared()) {
      if (txn_id >> 40 == CoordinatorPrefix(0)) {
        out.push_back(p);
      }
    }
    return out;
  };
  const uint32_t n = sd->replicas_per_shard();
  const auto remote_applied = [&] {
    for (ReplicaId r = 0; r < n; ++r) {
      if (!prepared(1, r).empty()) {
        return true;
      }
    }
    return false;
  };
  while (!remote_applied()) {
    ASSERT_LT(sd->sim().now(), kSec);
    sd->RunUntil(sd->sim().now() + 100 * kUsec);
  }
  const SimTime crash = sd->sim().now();
  sd->shard(0).ScheduleCrash(anchor, crash, crash + 3 * kSec);

  // Every pre-crash record has landed before the anchor recovers: this is
  // what the scans will find.
  sd->RunUntil(crash + 2 * kSec);
  EXPECT_TRUE(client.answers.empty());
  for (ReplicaId r = 0; r < n; ++r) {
    SCOPED_TRACE(r);
    EXPECT_TRUE(machine(0, r).decided().empty());
    EXPECT_TRUE(machine(1, r).decided().empty());
    const std::vector<KvTxnOp> remote = prepared(1, r);
    ASSERT_EQ(remote.size(), 2u);
    EXPECT_EQ(remote[1].ops[0].key, second_remote);
    const auto& locks = machine(1, r).locks();
    ASSERT_EQ(locks.count(second_remote), 1u);
    EXPECT_EQ(locks.at(second_remote), remote[1].txn_id);
    if (r == anchor) {
      continue;  // crashed: its tables return through state transfer
    }
    const std::vector<KvTxnOp> home = prepared(0, r);
    ASSERT_EQ(home.size(), 2u);
    EXPECT_EQ(home[0].txn_id, remote[0].txn_id);
    EXPECT_GT(home[1].txn_id, remote[1].txn_id);
    for (uint64_t i : {0, 1}) {
      EXPECT_EQ(home[i].participants, (std::vector<uint32_t>{0, 1}));
      EXPECT_EQ(home[i].client, client.id);
      EXPECT_EQ(home[i].client_req, 2 * i);
    }
  }

  sd->RunUntil(crash + 10 * kSec);
  const MetricsReport m = sd->Metrics();
  EXPECT_EQ(m.statemachine.recoveries_completed, 1u);
  EXPECT_EQ(m.txn.recovered_commits, 1u);
  EXPECT_EQ(m.txn.recovered_aborts, 2u);
  ASSERT_EQ(client.answers.size(), 2u);
  ASSERT_EQ(client.answers[0].size(), 1u);
  EXPECT_TRUE(client.answers[0][0].committed);
  EXPECT_FALSE(client.answers[0][0].with_values);
  ASSERT_EQ(client.answers[2].size(), 1u);
  EXPECT_FALSE(client.answers[2][0].committed);
  EXPECT_EQ(m.statemachine.digests_equal, 1u);
  ExpectTxnTablesDrained(*sd);
}

// Every cross-shard transaction passes its home coordinator's dedup table,
// which keeps one entry per client however many transactions run: here
// about a hundred per client.
TEST(ShardedDeployment, CoordinatorDedupHoldsOneEntryPerClient) {
  TxnWorkloadOptions txn;
  txn.clients_per_shard = 3;
  txn.keys_per_txn = 2;
  txn.think_time = 0;
  auto sd = BaseBuilder(29)
                .WithShards(4)
                .WithCrossShardRatio(0.5)
                .WithTxnWorkload(txn)
                .BuildSharded();
  sd->Start();
  sd->RunUntil(60 * kSec);

  const MetricsReport m = sd->Metrics();
  const uint32_t clients = sd->txn_fleet()->size();
  EXPECT_GT(m.txn.committed_cross, 100u * clients);
  for (uint32_t s = 0; s < sd->shards(); ++s) {
    EXPECT_LE(sd->coordinator(s).clients_tracked(), clients) << "shard " << s;
    EXPECT_GT(sd->coordinator(s).clients_tracked(), 0u) << "shard " << s;
  }
  EXPECT_EQ(m.txn.kv_mismatches, 0u);
  EXPECT_EQ(m.statemachine.digests_equal, 1u);
}

// A retry of an answered request, and a late retry of an older one after
// a newer request was answered, are dropped: no prepare is sent and no
// second answer comes back.
TEST(ShardedDeployment, AnsweredRetryIsNotRunTwice) {
  TxnWorkloadOptions txn;
  txn.clients_per_shard = 1;
  txn.stop_at = 1;  // the fleet stays idle: the test scripts the traffic
  auto sd = BaseBuilder(31)
                .WithShards(2)
                .WithCrossShardRatio(0.5)
                .WithTxnWorkload(txn)
                .BuildSharded();
  ScriptedClient client(*sd);
  const auto key_on = [&sd](uint32_t shard, uint64_t from) {
    while (sd->router().ShardOf(from) != shard) {
      ++from;
    }
    return from;
  };
  const std::vector<KvOp> first = {Put(key_on(0, 100), 1), Put(key_on(1, 100), 2)};
  const std::vector<KvOp> second = {Put(key_on(0, 200), 3), Put(key_on(1, 200), 4)};
  sd->Start();
  sd->RunUntil(100 * kMsec);
  client.Send(0, first);
  sd->RunUntil(kSec);
  ASSERT_EQ(client.answers[0].size(), 1u);
  EXPECT_TRUE(client.answers[0][0].committed);
  const uint64_t prepares = sd->Metrics().txn.prepares_sent;
  EXPECT_EQ(prepares, 2u);

  client.Send(0, first);  // the answered request again
  sd->RunUntil(2 * kSec);
  client.Send(1, second);
  sd->RunUntil(3 * kSec);
  client.Send(0, first);  // a late retry behind a newer answered request
  sd->RunUntil(4 * kSec);

  const MetricsReport m = sd->Metrics();
  EXPECT_EQ(client.answers[0].size(), 1u);
  ASSERT_EQ(client.answers[1].size(), 1u);
  EXPECT_TRUE(client.answers[1][0].committed);
  EXPECT_EQ(m.txn.coord_duplicates, 2u);
  EXPECT_EQ(m.txn.prepares_sent, prepares + 2);
  EXPECT_EQ(sd->coordinator(0).clients_tracked(), 1u);
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
