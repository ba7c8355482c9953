// The replicated-state-machine subsystem (src/statemachine/): KV machine
// determinism, checkpoint byte-equality across replicas in both protocol
// families, log truncation invariants, and crash-recovery state transfer.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "src/api/deployment.h"
#include "src/runner/scenario.h"
#include "src/statemachine/group.h"
#include "src/statemachine/replica_rsm.h"
#include "src/statemachine/state_machine.h"
#include "tests/test_support.h"

namespace optilog {
namespace {

// --- KvStateMachine ----------------------------------------------------------

Bytes Op(KvOpKind kind, uint64_t key, uint64_t arg = 0) {
  KvOp op;
  op.kind = kind;
  op.key = key;
  op.arg = arg;
  return op.Encode();
}

KvResult Apply(KvStateMachine& sm, KvOpKind kind, uint64_t key,
               uint64_t arg = 0) {
  KvResult res;
  EXPECT_TRUE(KvResult::Decode(sm.Apply(Op(kind, key, arg)), &res));
  return res;
}

TEST(KvStateMachine, OperationsAndResults) {
  KvStateMachine sm;
  KvResult res = Apply(sm, KvOpKind::kGet, 7);
  EXPECT_FALSE(res.found);

  res = Apply(sm, KvOpKind::kPut, 7, 42);
  EXPECT_FALSE(res.found);  // fresh key
  EXPECT_EQ(res.value, 42u);

  res = Apply(sm, KvOpKind::kGet, 7);
  EXPECT_TRUE(res.found);
  EXPECT_EQ(res.value, 42u);

  res = Apply(sm, KvOpKind::kAdd, 7, 8);
  EXPECT_TRUE(res.found);
  EXPECT_EQ(res.value, 50u);

  res = Apply(sm, KvOpKind::kAdd, 9, 5);  // RMW on an absent key starts at 0
  EXPECT_FALSE(res.found);
  EXPECT_EQ(res.value, 5u);
}

TEST(KvStateMachine, SnapshotRestoreRoundTripAndDigest) {
  KvStateMachine a;
  Apply(a, KvOpKind::kPut, 1, 10);
  Apply(a, KvOpKind::kPut, 2, 20);
  Apply(a, KvOpKind::kAdd, 1, 5);

  KvStateMachine b;
  EXPECT_NE(a.StateDigest(), b.StateDigest());
  b.Restore(a.SnapshotBytes());
  EXPECT_EQ(a.SnapshotBytes(), b.SnapshotBytes());
  EXPECT_EQ(a.StateDigest(), b.StateDigest());

  Apply(b, KvOpKind::kPut, 3, 30);
  EXPECT_NE(a.StateDigest(), b.StateDigest());
  b.Reset();
  EXPECT_EQ(b.size(), 0u);
}

// Every snapshot has one layout: the store, then the prepared and decided
// tables, which a machine that applied only plain ops writes as two zero
// counts.
TEST(KvStateMachine, SnapshotAlwaysCarriesTransactionTables) {
  EXPECT_EQ(KvStateMachine().SnapshotBytes(), Bytes(24, 0));

  KvStateMachine a;
  Apply(a, KvOpKind::kPut, 1, 10);
  Apply(a, KvOpKind::kPut, 2, 20);
  Apply(a, KvOpKind::kAdd, 3, 5);
  const Bytes snapshot = a.SnapshotBytes();
  ASSERT_EQ(snapshot.size(), 8 + 16 * a.size() + 16);
  EXPECT_EQ(Bytes(snapshot.end() - 16, snapshot.end()), Bytes(16, 0));

  KvStateMachine b;
  b.Restore(snapshot);
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.SnapshotBytes(), snapshot);
  EXPECT_EQ(Apply(b, KvOpKind::kGet, 3).value, 5u);
}

TEST(KvStateMachine, MalformedOpIsADeterministicNoop) {
  KvStateMachine sm;
  const Digest before = sm.StateDigest();
  KvResult res;
  ASSERT_TRUE(KvResult::Decode(sm.Apply(Bytes{0xff, 0x01}), &res));
  EXPECT_FALSE(res.found);
  EXPECT_EQ(sm.StateDigest(), before);

  // The reply bytes of each family's malformed input. Tags 0x10..0x15 are
  // transaction records: KvMultiResult{} (ok 0, no results). Everything
  // else, an unknown tag and empty input included, is a plain op:
  // KvResult{} (found 0, value 0).
  const Bytes txn_noop(5, 0);
  const Bytes plain_noop(9, 0);
  EXPECT_EQ(sm.Apply(Bytes{0x11, 0x01}), txn_noop);  // prepare cut short
  EXPECT_EQ(sm.Apply(Bytes{0x10, 0xff, 0xff, 0xff, 0xff}), txn_noop);
  KvTxnOp end_txn;
  end_txn.tag = TxnTag::kEnd;
  Bytes end = end_txn.Encode();
  end.push_back(0);  // trailing byte
  EXPECT_EQ(sm.Apply(end), txn_noop);
  EXPECT_EQ(sm.Apply(Bytes{0x15}), txn_noop);          // scan cut short
  EXPECT_EQ(sm.Apply(Bytes{0xff, 0x01}), plain_noop);  // unknown tag
  EXPECT_EQ(sm.Apply(Bytes{0x16}), plain_noop);        // just past the range
  EXPECT_EQ(sm.Apply(Bytes{}), plain_noop);
  EXPECT_EQ(sm.Apply(Bytes{0x01, 0x02}), plain_noop);  // put cut short
  EXPECT_EQ(sm.StateDigest(), before);
}

// A replica whose replies nobody reads skips encoding them (a prepare's
// results and a scan's rows included); its state must be exactly that of
// one that encodes every reply, transaction tables included.
TEST(KvStateMachine, UnreadRepliesLeaveTheSameState) {
  auto txn = [](TxnTag tag, uint64_t id, std::vector<KvOp> ops = {}) {
    KvTxnOp t;
    t.tag = tag;
    t.txn_id = id;
    t.ops = std::move(ops);
    t.participants = {0, 1};
    return t.Encode();
  };
  const std::vector<Bytes> ops = {
      Op(KvOpKind::kPut, 1, 10),
      txn(TxnTag::kMulti, 0, {{KvOpKind::kAdd, 1, 5}, {KvOpKind::kGet, 2, 0}}),
      txn(TxnTag::kPrepare, 7, {{KvOpKind::kPut, 3, 30}}),
      txn(TxnTag::kMulti, 0, {{KvOpKind::kPut, 3, 1}}),  // locked: no
      txn(TxnTag::kCommit, 7),
      txn(TxnTag::kCommit, 7),  // re-drive
      txn(TxnTag::kPrepare, 8, {{KvOpKind::kAdd, 4, 2}}),
      txn(TxnTag::kAbort, 8),
      txn(TxnTag::kAbort, 7),  // decided: cannot abort
      txn(TxnTag::kPrepare, 9, {{KvOpKind::kAdd, 1, 1}}),
      txn(TxnTag::kScan, 0),  // lists 7 (decided) and 9 (prepared)
      Bytes{0x11, 0x01},
      Op(KvOpKind::kAdd, 2, 3),
  };
  KvStateMachine read, unread;
  for (size_t i = 0; i < ops.size(); ++i) {
    const KvCommand cmd = KvCommand::Decode(ops[i]);
    Bytes reply;
    read.Apply(cmd, &reply);
    unread.Apply(cmd, nullptr);
    EXPECT_EQ(read.SnapshotBytes(), unread.SnapshotBytes()) << "op " << i;
  }
  EXPECT_EQ(read.prepared().size(), 1u);
  EXPECT_EQ(read.decided().size(), 1u);
  EXPECT_EQ(read.StateDigest(), unread.StateDigest());
}

// A donor's snapshot is untrusted: a count larger than the bytes left can
// hold ends decoding instead of sizing a vector from it.
TEST(KvStateMachine, RestoreRejectsCountsTheSnapshotCannotHold) {
  Bytes snapshot;
  ByteWriter w(&snapshot);
  w.U64(0);            // no keys
  w.U64(1);            // one prepared transaction
  w.U64(7);            // its id
  w.U32(0xffffffffu);  // claims 2^32 - 1 ops
  w.U32(0);
  ASSERT_EQ(snapshot.size(), 32u);

  KvStateMachine sm;
  Apply(sm, KvOpKind::kPut, 1, 10);
  sm.Restore(snapshot);
  EXPECT_EQ(sm.size(), 0u);
  EXPECT_EQ(sm.StateDigest(), KvStateMachine().StateDigest());
}

// Log-suffix entries come from a donor too: a payload whose op count its
// bytes cannot hold decodes to no ops.
TEST(ReplicaRsm, DecodeOpsRejectsCountsThePayloadCannotHold) {
  EXPECT_TRUE(DecodeOps(Bytes{0xff, 0xff, 0xff, 0xff}).empty());

  RequestRef req;
  req.op = Op(KvOpKind::kPut, 3, 4);
  const std::vector<Bytes> ops = DecodeOps(EncodeOps({req, req}));
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[1], req.op);
}

// --- Log truncation ----------------------------------------------------------

LogEntry CommandEntry(uint32_t batch, uint8_t tag) {
  LogEntry e;
  e.kind = EntryKind::kCommandBatch;
  e.batch_size = batch;
  e.payload = {tag};
  return e;
}

TEST(LogTruncation, ChainHeadIsInvariantToTruncationPoints) {
  // Three logs, same appends, truncated at different points (or never):
  // the chain head must be byte-identical regardless.
  Log never, early, late;
  for (uint8_t i = 0; i < 12; ++i) {
    never.Append(CommandEntry(10, i));
    early.Append(CommandEntry(10, i));
    late.Append(CommandEntry(10, i));
    if (i == 3) {
      early.TruncateTo(4);
    }
    if (i == 9) {
      late.TruncateTo(8);
    }
  }
  EXPECT_EQ(never.head(), early.head());
  EXPECT_EQ(never.head(), late.head());
  EXPECT_EQ(never.next_index(), early.next_index());

  EXPECT_EQ(early.base_index(), 4u);
  EXPECT_EQ(early.size(), 8u);
  EXPECT_EQ(late.base_index(), 8u);
  EXPECT_EQ(late.size(), 4u);
  // base_head records the chain at the cut; appends continue from head().
  EXPECT_EQ(early.base_head(), never.HeadAt(3));
  EXPECT_EQ(late.base_head(), never.HeadAt(7));
}

TEST(LogTruncation, EntryAtIsBaseOffsetAware) {
  Log log;
  for (uint8_t i = 0; i < 10; ++i) {
    log.Append(CommandEntry(1, i));
  }
  log.TruncateTo(6);
  EXPECT_FALSE(log.Has(5));
  ASSERT_TRUE(log.Has(6));
  EXPECT_EQ(log.EntryAt(6).index, 6u);
  EXPECT_EQ(log.EntryAt(9).payload, Bytes{9});
  EXPECT_EQ(log.next_index(), 10u);
  // Appends after truncation keep absolute indexing.
  log.Append(CommandEntry(1, 10));
  EXPECT_EQ(log.EntryAt(10).index, 10u);
  EXPECT_EQ(log.peak_size(), 10u);  // high-water mark predates truncation
  EXPECT_EQ(log.truncations(), 1u);
}

TEST(LogTruncation, ResetToBaseContinuesTheDonorChain) {
  Log donor;
  for (uint8_t i = 0; i < 8; ++i) {
    donor.Append(CommandEntry(2, i));
  }
  // A recovering replica adopts the chain position at index 4 and replays
  // the suffix; heads must converge entry by entry.
  Log recovered;
  recovered.ResetToBase(5, donor.HeadAt(4));
  for (uint64_t i = 5; i < 8; ++i) {
    recovered.Append(donor.EntryAt(i));
    EXPECT_EQ(recovered.head(), donor.HeadAt(i));
  }
  EXPECT_EQ(recovered.head(), donor.head());
}

// --- Log chain steps ---------------------------------------------------------

TEST(LogChainStep, TakenOnlyOnItsOwnHeadAndIndex) {
  // Two logs start with different entries, then append one entry through
  // one step: each must reach the head hashing alone gives it.
  Log a, b, a_alone, b_alone;
  a.Append(CommandEntry(1, 1));
  a_alone.Append(CommandEntry(1, 1));
  b.Append(CommandEntry(1, 2));
  b_alone.Append(CommandEntry(1, 2));
  ChainStep step;
  a.Append(CommandEntry(3, 7), &step);
  b.Append(CommandEntry(3, 7), &step);
  a_alone.Append(CommandEntry(3, 7));
  b_alone.Append(CommandEntry(3, 7));
  EXPECT_EQ(a.head(), a_alone.head());
  EXPECT_EQ(b.head(), b_alone.head());
  EXPECT_NE(a.head(), b.head());
  // b did not match, so it recorded its own link.
  EXPECT_EQ(step.from, b_alone.HeadAt(0));
  EXPECT_EQ(step.index, 1u);
  EXPECT_EQ(step.to, b.head());

  // A log on the step's head at another index hashes for itself.
  const ChainStep at_one = step;
  Log c, c_alone;
  c.ResetToBase(5, at_one.from);
  c_alone.ResetToBase(5, at_one.from);
  c.Append(CommandEntry(3, 7), &step);
  c_alone.Append(CommandEntry(3, 7));
  EXPECT_EQ(c.head(), c_alone.head());
  EXPECT_NE(c.head(), at_one.to);
  EXPECT_EQ(step.index, 5u);

  // A log on the step's head and index takes the recorded link as is.
  Log d, d_alone;
  d.Append(CommandEntry(1, 2));
  d_alone.Append(CommandEntry(1, 2));
  step = at_one;
  d.Append(CommandEntry(3, 8), &step);
  d_alone.Append(CommandEntry(3, 8));
  EXPECT_EQ(d.head(), at_one.to);
  EXPECT_NE(d.head(), d_alone.head());  // a step holds for one entry only
}

// --- RsmGroup ------------------------------------------------------------------

std::vector<RequestRef> PutBatch(uint64_t key, uint64_t value) {
  RequestRef req;
  req.client = 9;
  req.request_id = key;
  req.op = Op(KvOpKind::kPut, key, value);
  return {req};
}

BatchRecordPtr PutRecord(uint64_t key, uint64_t value) {
  return BatchRecordPtr(new BatchRecord(PutBatch(key, value), Digest{}));
}

// The group shares each batch's decode and chain step across replicas;
// that must never make a diverged replica look converged.
TEST(RsmGroup, OneDivergedReplicaIsReported) {
  Simulator sim;
  FaultModel faults;
  MatrixLatencyModel latency(4, kMsec);
  Network net(&sim, &latency, &faults);
  RsmGroup group(&sim, &net, &faults, 4, StateMachineOptions{});
  // Replica 3 commits a different put at seq 0; the group's own seq 0 then
  // finds it past that index and skips it there.
  group.CommitAt(3, 0, /*proposer=*/0, PutRecord(7, 99), 0, nullptr);
  for (uint64_t i = 0; i < 10; ++i) {
    group.CommitAll(/*proposer=*/0, PutRecord(100 + i, i), 0, nullptr);
  }
  StateMachineReport report;
  group.FillReport(report, 0);
  EXPECT_EQ(report.applied, 10u);
  EXPECT_EQ(report.digests_equal, 0u);
  const ReplicaRsm& diverged = group.rsm(3);
  EXPECT_EQ(diverged.applied(), 10u);
  EXPECT_NE(diverged.StateDigest(), group.rsm(0).StateDigest());
  EXPECT_NE(diverged.log().head(), group.rsm(0).log().head());
  for (ReplicaId id : {1u, 2u}) {
    EXPECT_EQ(group.rsm(id).StateDigest(), group.rsm(0).StateDigest());
    EXPECT_EQ(group.rsm(id).log().head(), group.rsm(0).log().head());
  }
}

// CommitAll replies once per request, in batch order, from the first live
// replica whose log is at the commit's index: here replica 1 at seq 0 (the
// diverged replica 0 is already past it) and replica 0 at seq 1, whose
// state the reply then reads. With no replica at the index, every request
// still gets its reply, with an empty result.
TEST(RsmGroup, CommitAllRepliesFromTheFirstReplicaAtItsIndex) {
  Simulator sim;
  FaultModel faults;
  MatrixLatencyModel latency(4, kMsec);
  Network net(&sim, &latency, &faults);
  RsmGroup group(&sim, &net, &faults, 4, StateMachineOptions{});
  group.CommitAt(0, 0, /*proposer=*/0, PutRecord(5, 99), 0, nullptr);

  std::vector<std::pair<uint64_t, Bytes>> replies;
  const auto record_reply = [&replies](const RequestRef& req,
                                       const Bytes& result) {
    replies.emplace_back(req.request_id, result);
  };
  const auto batch = [](std::vector<Bytes> ops) {
    std::vector<RequestRef> reqs(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      reqs[i].client = 9;
      reqs[i].request_id = 10 + i;
      reqs[i].op = std::move(ops[i]);
    }
    return BatchRecordPtr(new BatchRecord(std::move(reqs), Digest{}));
  };
  const auto expect_replies = [&replies](const std::vector<Bytes>& results) {
    ASSERT_EQ(replies.size(), results.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(replies[i].first, 10 + i) << "reply " << i;
      EXPECT_EQ(replies[i].second, results[i]) << "reply " << i;
    }
    replies.clear();
  };

  // Replica 1's machine, as a reference: the three ops on an empty store.
  KvStateMachine reference;
  const std::vector<Bytes> ops = {Op(KvOpKind::kPut, 5, 7),
                                  Op(KvOpKind::kGet, 5),
                                  Op(KvOpKind::kAdd, 5, 3)};
  std::vector<Bytes> expected;
  for (const Bytes& op : ops) {
    expected.push_back(reference.Apply(op));
  }
  group.CommitAll(/*proposer=*/0, batch(ops), 0, record_reply);
  expect_replies(expected);

  // Seq 1: replica 0 is the first at the index, and its key 5 holds 99.
  KvStateMachine diverged;
  diverged.Apply(Op(KvOpKind::kPut, 5, 99));
  group.CommitAll(/*proposer=*/0, batch({Op(KvOpKind::kGet, 5)}), 0,
                  record_reply);
  expect_replies({diverged.Apply(Op(KvOpKind::kGet, 5))});

  for (ReplicaId id = 0; id < 4; ++id) {
    faults.Mutable(id).crash_at = 0;
  }
  group.CommitAll(/*proposer=*/0,
                  batch({Op(KvOpKind::kGet, 5), Op(KvOpKind::kGet, 6)}), 0,
                  record_reply);
  expect_replies({Bytes{}, Bytes{}});
}

// Routes a replica's deliveries to the group, as a protocol replica does.
struct StateRouter : Actor {
  RsmGroup* group = nullptr;
  ReplicaId id = 0;
  void OnMessage(ReplicaId from, const MessagePtr& msg, SimTime at) override {
    group->OnStateMessage(id, from, msg, at);
  }
};

// A tree-family replica live again after a crash window, with no restart
// timer armed, is behind at CommitAll: it buffers each shared record above
// its frontier. A catch-up session then replays the gap from a donor and
// drains the buffer, which leaves it at its peers' state and log head.
TEST(RsmGroup, BehindReplicaBuffersCommitsUntilCatchupDrainsThem) {
  Simulator sim;
  FaultModel faults;
  MatrixLatencyModel latency(4, kMsec);
  Network net(&sim, &latency, &faults);
  RsmGroup group(&sim, &net, &faults, 4, StateMachineOptions{});
  std::vector<StateRouter> routers(4);
  for (ReplicaId id = 0; id < 4; ++id) {
    routers[id].group = &group;
    routers[id].id = id;
    net.Register(id, &routers[id]);
  }
  faults.Mutable(3).crash_at = 10 * kMsec;
  faults.Mutable(3).recover_at = 20 * kMsec;
  uint64_t key = 100;
  const auto commit = [&](int count) {
    for (int i = 0; i < count; ++i, ++key) {
      group.CommitAll(/*proposer=*/0, PutRecord(key, key), sim.now(), nullptr);
    }
  };
  commit(3);  // seqs 0-2 everywhere
  sim.RunUntil(15 * kMsec);
  commit(4);  // seqs 3-6: replica 3 is crashed
  sim.RunUntil(25 * kMsec);
  commit(5);  // seqs 7-11: replica 3 is live but behind

  const ReplicaRsm& behind = group.rsm(3);
  EXPECT_EQ(behind.applied(), 3u);
  EXPECT_EQ(behind.pending_commits(), 5u);
  EXPECT_FALSE(group.IsRecovering(3));

  group.RequestCatchup(3, /*decided_seq=*/11);
  EXPECT_TRUE(group.IsRecovering(3));
  sim.RunUntil(5 * kSec);
  EXPECT_FALSE(group.IsRecovering(3));
  EXPECT_EQ(behind.pending_commits(), 0u);
  EXPECT_EQ(behind.applied(), 12u);
  EXPECT_EQ(behind.StateDigest(), group.rsm(0).StateDigest());
  EXPECT_EQ(behind.log().head(), group.rsm(0).log().head());
  StateMachineReport report;
  group.FillReport(report, sim.now());
  EXPECT_EQ(report.catchups_started, 1u);
  EXPECT_EQ(report.applied, 12u);
  EXPECT_EQ(report.digests_equal, 1u);
}

// --- FaultModel recovery window ----------------------------------------------

TEST(FaultWindow, IsCrashedHonorsCrashRecoverWindow) {
  FaultModel faults;
  faults.Mutable(1).crash_at = 1000;
  faults.Mutable(1).recover_at = 5000;
  EXPECT_FALSE(faults.IsCrashedAt(1, 999));
  EXPECT_TRUE(faults.IsCrashedAt(1, 1000));
  EXPECT_TRUE(faults.IsCrashedAt(1, 4999));
  EXPECT_FALSE(faults.IsCrashedAt(1, 5000));
  EXPECT_FALSE(faults.IsCrashedAt(1, 9999));
  // Without recover_at the crash stays a one-way door.
  faults.Mutable(2).crash_at = 1000;
  EXPECT_TRUE(faults.IsCrashedAt(2, 1'000'000'000));
}

// Delivery semantics across the window, loopback included (the loopback's
// crash-at-delivery contract extended to recovery).
struct RecordingActor : Actor {
  void OnMessage(ReplicaId, const MessagePtr&, SimTime at) override {
    deliveries.push_back(at);
  }
  std::vector<SimTime> deliveries;
};

struct PingMsg : Message {
  int type() const override { return 99; }
  MsgFamily family() const override { return MsgFamily::kState; }
  void EncodeTo(ByteWriter& w) const override { w.ZeroPad(8); }
};

TEST(FaultWindow, DeliveriesResumeAfterRecovery) {
  Simulator sim;
  FaultModel faults;
  MatrixLatencyModel latency(2, /*one_way=*/100);
  Network net(&sim, &latency, &faults);
  RecordingActor a0, a1;
  net.Register(0, &a0);
  net.Register(1, &a1);
  faults.Mutable(1).crash_at = 500;
  faults.Mutable(1).recover_at = 1500;

  // Lands at 100: before the window — delivered.
  net.Send(0, 1, MakeMessage<PingMsg>());
  sim.RunUntil(900);
  // Sent at 900, lands at 1000: inside the window — dropped. Replica 1's
  // own multicast at 900 is dropped at source, loopback copy included.
  net.Send(0, 1, MakeMessage<PingMsg>());
  net.Multicast(1, {0, 1}, MakeMessage<PingMsg>());
  sim.RunUntil(1600);
  // Sent at 1600 (after recovery), lands at 1700 — delivered.
  net.Send(0, 1, MakeMessage<PingMsg>());
  // Loopback honors the same window: replica 1's multicast at 1700 delivers
  // its own copy at 1700 and replica 0's at 1800.
  sim.RunUntil(1700);
  net.Multicast(1, {0, 1}, MakeMessage<PingMsg>());
  sim.RunUntil(2000);

  ASSERT_EQ(a1.deliveries.size(), 3u);
  EXPECT_EQ(a1.deliveries[0], 100u);
  EXPECT_EQ(a1.deliveries[1], 1700u);
  EXPECT_EQ(a1.deliveries[2], 1700u);
  ASSERT_EQ(a0.deliveries.size(), 1u);
  EXPECT_EQ(a0.deliveries[0], 1800u);
}

// --- checkpoint determinism across replicas ----------------------------------

WorkloadOptions ClosedLoopKv() {
  WorkloadOptions w;
  w.arrival = ArrivalProcess::kClosedLoop;
  w.outstanding = 1;
  w.think_time = 10 * kMsec;
  w.retry_timeout = 800 * kMsec;
  w.batch.max_batch = 32;
  w.batch.max_delay = 5 * kMsec;
  return w;
}

StateMachineOptions CheckpointedEvery(uint64_t interval, bool truncate) {
  StateMachineOptions opts;
  opts.checkpoint.interval = interval;
  opts.checkpoint.truncate = truncate;
  return opts;
}

// Each replica's checkpoints, keyed by the last log index they cover.
using CheckpointsByIndex = std::map<uint64_t, Checkpoint>;

// Runs a started deployment to `until` in 1 ms steps and collects the
// checkpoint each replica holds after every step.
std::vector<CheckpointsByIndex> RunCollectingCheckpoints(Deployment& d, SimTime until) {
  const RsmGroup* group = d.state_machines();
  std::vector<CheckpointsByIndex> seen(d.n());
  for (SimTime t = kMsec; t <= until; t += kMsec) {
    d.RunUntil(t);
    for (ReplicaId id = 0; id < d.n(); ++id) {
      const std::optional<Checkpoint>& cp = group->rsm(id).latest_checkpoint();
      if (cp.has_value()) {
        seen[id].try_emplace(cp->through_index, *cp);
      }
    }
  }
  return seen;
}

// Every replica that stayed live must checkpoint at the same indices (each
// through_index one short of a multiple of the interval) and hold
// byte-identical checkpoints at every index it shares with replica 0.
void ExpectCheckpointsIdentical(const std::vector<CheckpointsByIndex>& seen,
                                uint64_t interval) {
  const CheckpointsByIndex& reference = seen[0];
  ASSERT_FALSE(reference.empty()) << "run too short: no checkpoints taken";
  for (ReplicaId id = 0; id < seen.size(); ++id) {
    // PBFT replicas may lag by in-flight instances, and a step may pass
    // over a checkpoint: compare the indices both replicas were seen at.
    size_t shared = 0;
    for (const auto& [index, mine] : seen[id]) {
      EXPECT_EQ(mine.through_index % interval, interval - 1)
          << "replica " << id << " checkpointed off the interval at " << index;
      const auto it = reference.find(index);
      if (it == reference.end()) {
        continue;
      }
      ++shared;
      const Checkpoint& ref = it->second;
      EXPECT_EQ(mine.state_digest, ref.state_digest) << "replica " << id << " at " << index;
      EXPECT_EQ(mine.log_head, ref.log_head) << "replica " << id << " at " << index;
      EXPECT_EQ(mine.state, ref.state)
          << "replica " << id << ": snapshot bytes diverge at " << index;
    }
    ASSERT_GE(shared, 1u) << "replica " << id << " shares no checkpoint with replica 0";
  }
}

TEST(CheckpointDeterminism, MiniKauriIdenticalSnapshotsEverywhere) {
  auto d = Deployment::Builder()
               .WithReplicas(7, 2)
               .WithProtocol(Protocol::kKauri)
               .WithSeed(11)
               .WithWorkload(ClosedLoopKv())
               .WithStateMachine(CheckpointedEvery(4, /*truncate=*/true))
               .Build();
  d->Start();
  ExpectCheckpointsIdentical(RunCollectingCheckpoints(*d, 8 * kSec), 4);

  const MetricsReport m = d->Metrics();
  EXPECT_TRUE(m.statemachine.enabled);
  EXPECT_GT(m.statemachine.applied, 0u);
  EXPECT_GT(m.statemachine.checkpoints, 0u);
  EXPECT_EQ(m.statemachine.digests_equal, 1u);
  EXPECT_EQ(m.statemachine.state_digest_hex.size(), 64u);
  EXPECT_GT(m.workload.kv_checks, 0u);
  EXPECT_EQ(m.workload.kv_mismatches, 0u);
}

TEST(CheckpointDeterminism, MiniPbftIdenticalSnapshotsEverywhere) {
  auto d = Deployment::Builder()
               .WithReplicas(7, 2)
               .WithProtocol(Protocol::kPbft)
               .WithSeed(12)
               .WithWorkload(ClosedLoopKv())
               .WithStateMachine(CheckpointedEvery(4, /*truncate=*/true))
               .Build();
  d->Start();
  ExpectCheckpointsIdentical(RunCollectingCheckpoints(*d, 8 * kSec), 4);

  const MetricsReport m = d->Metrics();
  EXPECT_GT(m.statemachine.applied, 0u);
  EXPECT_EQ(m.statemachine.digests_equal, 1u);
  EXPECT_GT(m.workload.kv_checks, 0u);
  EXPECT_EQ(m.workload.kv_mismatches, 0u);
}

TEST(CheckpointDeterminism, TruncationBoundsPeakLogMemory) {
  auto base = Deployment::Builder()
                  .WithReplicas(7, 2)
                  .WithProtocol(Protocol::kKauri)
                  .WithSeed(13)
                  .WithWorkload(ClosedLoopKv());
  auto bounded = base.Clone()
                     .WithStateMachine(CheckpointedEvery(8, true))
                     .Build();
  auto unbounded = base.Clone()
                       .WithStateMachine(CheckpointedEvery(8, false))
                       .Build();
  for (auto* d : {bounded.get(), unbounded.get()}) {
    d->Start();
    d->RunUntil(10 * kSec);
  }
  const MetricsReport mb = bounded->Metrics();
  const MetricsReport mu = unbounded->Metrics();
  // Identical schedule (truncation never changes execution)...
  EXPECT_EQ(mb.statemachine.applied, mu.statemachine.applied);
  EXPECT_EQ(mb.statemachine.state_digest_hex, mu.statemachine.state_digest_hex);
  ASSERT_GT(mu.statemachine.applied, 16u) << "run too short to show the bound";
  // ...but bounded memory: peak in-memory entries never exceed one interval
  // plus the entries since the last checkpoint, while the untruncated log
  // grows with the run.
  EXPECT_LE(mb.statemachine.peak_log_entries, 2 * 8u);
  EXPECT_EQ(mu.statemachine.peak_log_entries, mu.statemachine.applied);
  EXPECT_GT(mb.statemachine.truncations, 0u);
  EXPECT_EQ(mu.statemachine.truncations, 0u);
}

// --- crash recovery ----------------------------------------------------------

TEST(Recovery, TreeReplicaRejoinsViaSnapshotAndSuffix) {
  const SimTime crash_at = 4 * kSec;
  const SimTime recover_at = 10 * kSec;
  ReplicaId victim = kNoReplica;
  auto d = Deployment::Builder()
               .WithReplicas(7, 2)
               .WithProtocol(Protocol::kOptiTree)
               .WithSeed(21)
               .WithInitialSearch(AnnealingParams::ForBudget(2000))
               .WithOptiLogReconfig(/*search_window=*/500 * kMsec)
               .WithWorkload(ClosedLoopKv())
               .WithStateMachine(CheckpointedEvery(8, true))
               .WithFaults([&](Deployment& dep) {
                 victim = dep.tree().topology().root();
                 dep.faults().Mutable(victim).crash_at = crash_at;
                 dep.faults().Mutable(victim).recover_at = recover_at;
               })
               .Build();
  d->Start();
  d->RunUntil(25 * kSec);

  const MetricsReport m = d->Metrics();
  EXPECT_EQ(m.statemachine.recoveries_started, 1u);
  EXPECT_EQ(m.statemachine.recoveries_completed, 1u);
  EXPECT_GT(m.statemachine.transfer_bytes, 0u);
  EXPECT_GT(m.statemachine.transfer_chunks, 0u);
  EXPECT_GT(m.statemachine.catchup_ms_max, 0.0);
  // The recovered replica holds the same state as everyone else.
  EXPECT_EQ(m.statemachine.digests_equal, 1u);
  ASSERT_NE(victim, kNoReplica);
  EXPECT_EQ(d->state_machines()->rsm(victim).applied(), m.statemachine.applied);
  EXPECT_EQ(m.workload.kv_mismatches, 0u);
}

TEST(Recovery, PbftReplicaRejoinsAndCatchesUp) {
  auto d = Deployment::Builder()
               .WithReplicas(7, 2)
               .WithProtocol(Protocol::kPbft)
               .WithSeed(22)
               .WithWorkload(ClosedLoopKv())
               .WithStateMachine(CheckpointedEvery(8, true))
               .WithFaults([](Deployment& dep) {
                 dep.faults().Mutable(3).crash_at = 3 * kSec;
                 dep.faults().Mutable(3).recover_at = 8 * kSec;
               })
               .Build();
  d->Start();
  d->RunUntil(20 * kSec);

  const MetricsReport m = d->Metrics();
  EXPECT_EQ(m.statemachine.recoveries_started, 1u);
  EXPECT_EQ(m.statemachine.recoveries_completed, 1u);
  EXPECT_GT(m.statemachine.transfer_bytes, 0u);
  EXPECT_EQ(m.statemachine.digests_equal, 1u);
  // The recovered replica reached (at least) every decided instance that
  // is stable across the cluster.
  const uint64_t victim_applied = d->state_machines()->rsm(3).applied();
  EXPECT_GT(victim_applied, 0u);
  EXPECT_EQ(m.workload.kv_mismatches, 0u);
}

TEST(Recovery, RunsAreDeterministic) {
  auto run = [] {
    auto d = Deployment::Builder()
                 .WithReplicas(7, 2)
                 .WithProtocol(Protocol::kPbft)
                 .WithSeed(33)
                 .WithWorkload(ClosedLoopKv())
                 .WithStateMachine(CheckpointedEvery(8, true))
                 .WithFaults([](Deployment& dep) {
                   dep.faults().Mutable(2).crash_at = 3 * kSec;
                   dep.faults().Mutable(2).recover_at = 7 * kSec;
                 })
                 .Build();
    d->Start();
    d->RunUntil(15 * kSec);
    return MetricsFingerprint(d->Metrics());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace optilog
