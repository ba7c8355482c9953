// Flight recorder (src/obs/): the determinism contracts the tracing layer
// rides on.
//
//  * Schedule neutrality: enabling the TraceRecorder never perturbs the
//    committed metrics fingerprint — tracing is free to leave on in any
//    experiment without invalidating its baseline.
//  * Causality: record ids are unique, every nonzero parent resolves to an
//    earlier record, and on a sharded deployment (one shared simulator)
//    parent edges run from a 2PC coordinator into another shard's replicas.
//  * Stage breakdown: per-stage sums and p50/p99 over the lifecycle chains.
//  * Gauge sampling: reads on sim-time timers, in registration order.
// Rerun determinism of sharded traces and gauge series is pinned in
// shard_determinism_test.cc.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/api/deployment.h"
#include "src/obs/chrome_export.h"
#include "src/obs/stage_breakdown.h"
#include "src/obs/trace.h"
#include "src/rsm/metrics.h"
#include "src/runner/scenario.h"
#include "src/shard/sharded_deployment.h"
#include "tests/test_support.h"

namespace optilog {
namespace {

// Small single-group deployment: a closed-loop fleet on HotStuff.
std::unique_ptr<Deployment> BuildSingle(bool trace, SimTime gauge_interval) {
  WorkloadOptions w;
  w.arrival = ArrivalProcess::kClosedLoop;
  w.outstanding = 1;
  w.think_time = 10 * kMsec;
  w.batch.max_batch = 16;
  w.batch.max_delay = 5 * kMsec;
  Deployment::Builder b;
  b.WithGeo(Europe21())
      .WithReplicas(7, 2)
      .WithProtocol(Protocol::kHotStuff)
      .WithSeed(5)
      .WithWorkload(w)
      .WithStateMachine();
  if (gauge_interval > 0) {
    b.WithGaugeSampling(gauge_interval);
  } else if (trace) {
    b.WithTrace();
  }
  return b.Build();
}

// 2-shard 50%-cross 2PC deployment: trace records of both groups, the
// coordinators, and the clients share one stream, and their parents cross
// between them.
std::unique_ptr<ShardedDeployment> BuildSharded() {
  WorkloadOptions w;
  w.arrival = ArrivalProcess::kClosedLoop;
  w.outstanding = 1;
  w.batch.max_batch = 32;
  w.batch.max_delay = 10 * kMsec;
  TxnWorkloadOptions txn;
  txn.clients_per_shard = 4;
  txn.keys_per_txn = 2;
  txn.hot_pct = 20;
  txn.think_time = 5 * kMsec;
  txn.stop_at = 4 * kSec;
  StateMachineOptions sm;
  sm.checkpoint.interval = 64;
  sm.checkpoint.truncate = true;
  Deployment::Builder b;
  b.WithGeo(Europe21())
      .WithReplicas(7, 2)
      .WithProtocol(Protocol::kHotStuff)
      .WithSeed(29)
      .WithWorkload(w)
      .WithStateMachine(sm)
      .WithShards(2)
      .WithCrossShardRatio(0.5)
      .WithTxnWorkload(txn)
      .WithTrace();
  return b.BuildSharded();
}

TEST(Obs, TracingIsScheduleNeutral) {
  auto plain = BuildSingle(/*trace=*/false, /*gauge_interval=*/0);
  plain->Start();
  plain->RunUntil(5 * kSec);
  const std::string f0 = MetricsFingerprint(plain->Metrics());
  EXPECT_TRUE(plain->TraceRecords().empty());

  auto traced = BuildSingle(/*trace=*/true, /*gauge_interval=*/0);
  traced->Start();
  traced->RunUntil(5 * kSec);
  EXPECT_EQ(MetricsFingerprint(traced->Metrics()), f0);
  EXPECT_FALSE(traced->TraceRecords().empty());
}

TEST(Obs, StageBreakdownCoversCommittedRequests) {
  auto d = BuildSingle(/*trace=*/true, /*gauge_interval=*/0);
  d->Start();
  d->RunUntil(5 * kSec);
  const StageBreakdown sb = ComputeStageBreakdown(d->TraceRecords());
  EXPECT_GT(sb.requests, 50u);
  // The telescoped total equals the stage sum by construction.
  EXPECT_NEAR(sb.total_ms,
              sb.client_net_ms + sb.queue_ms + sb.batch_ms + sb.consensus_ms +
                  sb.apply_ms + sb.reply_ms,
              1e-6);
  // >= 99% of committed requests reconstruct fully.
  EXPECT_GE(100.0 * static_cast<double>(sb.requests) /
                static_cast<double>(sb.requests + sb.incomplete),
            99.0);
}

// Per-stage p50/p99 interpolate linearly between the exact sorted values,
// as tools/trace_stats.py does. Three chains whose queue stage is 1, 2 and
// 10 ms (client_net, consensus and reply 1 ms, apply 0): the queue p50 is
// the middle value and its p99 sits 98% of the way from 2 to 10.
TEST(Obs, StagePercentilesInterpolateTheSortedStages) {
  std::vector<TraceRecord> records;
  uint64_t request = 0;
  for (SimTime queue : {10 * kMsec, 1 * kMsec, 2 * kMsec}) {
    const SimTime steps[] = {0, 1 * kMsec, queue, 1 * kMsec, 0, 1 * kMsec};
    SimTime t = 0;
    for (uint16_t k = 0; k < 6; ++k) {
      t += steps[k];
      TraceRecord r;
      r.t = t;
      r.kind = static_cast<uint16_t>(TraceKind::kClientSend) + k;
      r.a = request;
      r.b = 7;  // client id
      records.push_back(r);
    }
    ++request;
  }
  const StageBreakdown sb = ComputeStageBreakdown(records);
  ASSERT_EQ(sb.requests, 3u);
  EXPECT_DOUBLE_EQ(sb.queue_ms, 13.0);
  EXPECT_DOUBLE_EQ(sb.queue.p50_ms, 2.0);
  EXPECT_DOUBLE_EQ(sb.queue.p99_ms, 2.0 + 0.98 * 8.0);
  EXPECT_DOUBLE_EQ(sb.total.p50_ms, 5.0);
  EXPECT_DOUBLE_EQ(sb.total.p99_ms, 5.0 + 0.98 * 8.0);
  EXPECT_DOUBLE_EQ(sb.consensus.p50_ms, 1.0);
  EXPECT_DOUBLE_EQ(sb.apply.p99_ms, 0.0);
}

// Both readers of a trace fold request chains alike: the first record of
// each kind wins (a retry's second send, a slower replica's commit and
// reply), and the Chrome export's stage bars span the breakdown's stages.
TEST(Obs, BreakdownAndChromeExportKeepTheFirstRecordOfEachKind) {
  std::vector<TraceRecord> records;
  const auto add = [&records](TraceKind kind, SimTime t) {
    TraceRecord r;
    r.t = t;
    r.kind = static_cast<uint16_t>(kind);
    r.a = 1;  // request id
    r.b = 7;  // client id
    records.push_back(r);
  };
  add(TraceKind::kClientSend, 0);
  add(TraceKind::kQueueAdmit, 2 * kMsec);
  add(TraceKind::kClientSend, 3 * kMsec);  // a retry
  add(TraceKind::kBatchSeal, 5 * kMsec);
  add(TraceKind::kCommit, 20 * kMsec);
  add(TraceKind::kReplySent, 20 * kMsec);
  add(TraceKind::kCommit, 30 * kMsec);  // a slower replica
  add(TraceKind::kReplySent, 30 * kMsec);
  add(TraceKind::kClientComplete, 40 * kMsec);

  const RequestChains chains = FoldRequestChains(records);
  ASSERT_EQ(chains.size(), 1u);
  const RequestChain& c = chains.at({7, 1});
  EXPECT_EQ(c.send, 0);
  EXPECT_EQ(c.commit, 20 * kMsec);
  EXPECT_EQ(c.reply, 20 * kMsec);
  const StageBreakdown sb = ComputeStageBreakdown(records);
  ASSERT_EQ(sb.requests, 1u);
  EXPECT_DOUBLE_EQ(sb.consensus_ms, 15.0);
  EXPECT_DOUBLE_EQ(sb.reply_ms, 20.0);
  EXPECT_DOUBLE_EQ(sb.total_ms, 40.0);
  const std::string json = ChromeTraceJson(records);
  EXPECT_NE(json.find(R"({"name":"consensus","ph":"X","ts":5000,"dur":15000,)"
                      R"("pid":"requests","tid":7,"args":{"request":1}})"),
            std::string::npos);
  EXPECT_NE(json.find(R"({"name":"reply","ph":"X","ts":20000,"dur":20000,)"),
            std::string::npos);
}

TEST(Obs, CausalForestIsConnectedAcrossShards) {
  auto sd = BuildSharded();
  sd->Start();
  sd->RunUntil(8 * kSec);
  const std::vector<TraceRecord> records = sd->TraceRecords();
  ASSERT_GT(records.size(), 1000u);
  const uint32_t n = sd->replicas_per_shard();
  const uint32_t shards = sd->shards();

  // Shards each coordinator dispatch sent a prepare record to, keyed by the
  // dispatch record's id (kTxnPrepare: actor = coordinator, b = shard).
  std::map<uint64_t, std::set<uint64_t>> prepare_targets;
  for (const TraceRecord& r : records) {
    if (r.kind == static_cast<uint16_t>(TraceKind::kTxnPrepare)) {
      prepare_targets[r.parent].insert(r.b);
    }
  }

  std::map<uint64_t, const TraceRecord*> by_id;
  std::map<uint64_t, size_t> replica_deliveries;  // per prepare dispatch
  for (const TraceRecord& r : records) {
    EXPECT_TRUE(by_id.emplace(r.id, &r).second)
        << "duplicate record id " << r.id;
    if (r.parent == 0) {
      continue;
    }
    // Parents are always earlier in the record stream, so a one-pass check
    // against the ids seen so far proves the forest is well-founded.
    const auto parent = by_id.find(r.parent);
    ASSERT_NE(parent, by_id.end())
        << "dangling parent " << r.parent << " of " << r.id;
    // A coordinator (id n + s) delivery whose handler prepared, parenting
    // a delivery it sent to a replica.
    const TraceRecord& p = *parent->second;
    const auto delivery = static_cast<uint16_t>(TraceKind::kDispatchDelivery);
    if (p.kind == delivery && r.kind == delivery && p.actor >= n &&
        p.actor < n + shards && r.actor < n && r.a == p.actor &&
        prepare_targets.count(p.id) > 0) {
      ++replica_deliveries[p.id];
    }
  }
  // A handler prepares each shard once, so one that prepared k >= 2 shards
  // and whose k prepares all reached a replica sent k - 1 of them to
  // replicas of shard groups other than its coordinator's own.
  size_t cross_shard_edges = 0;
  for (const auto& [dispatch, targets] : prepare_targets) {
    const size_t reached = replica_deliveries[dispatch];
    if (targets.size() >= 2 && reached == targets.size()) {
      cross_shard_edges += reached - 1;
    }
  }
  EXPECT_GT(cross_shard_edges, 0u);
}

TEST(Obs, GaugeSamplingOnSingleDeployment) {
  auto d = BuildSingle(/*trace=*/true, /*gauge_interval=*/kSec);
  d->Start();
  d->RunUntil(5 * kSec);
  const MetricsReport m = d->Metrics();
  ASSERT_TRUE(m.timeseries.enabled);
  EXPECT_EQ(m.timeseries.interval, kSec);
  // Registration order is the series order: 7 commit frontiers, then the
  // queue depth, pending events, and pool hit rate (no crypto model here).
  ASSERT_GE(m.timeseries.series.size(), 9u);
  EXPECT_EQ(m.timeseries.series[0].name, "commit_frontier.r0");
  for (const TimeseriesReport::Series& s : m.timeseries.series) {
    EXPECT_EQ(s.values.size(), 5u) << s.name;
  }
  // Commit frontiers are monotone — the sampler reads live protocol state.
  const auto& frontier = m.timeseries.series[0].values;
  for (size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GE(frontier[i], frontier[i - 1]);
  }
  EXPECT_GT(frontier.back(), 0.0);
}

TEST(Obs, ThroughputRecorderClampsFarFutureCommits) {
  ThroughputRecorder rec;
  rec.RecordCommit(2 * kSec, 3);
  // A corrupt / absurd commit timestamp must not balloon the per-second
  // vector (it used to resize to at/kSec entries unconditionally).
  const SimTime far = static_cast<SimTime>(1) << 60;
  rec.RecordCommit(far, 5);
  rec.RecordCommit(-5 * kSec, 1);  // negative folds into bucket 0
  EXPECT_LE(rec.per_second().size(), ThroughputRecorder::kMaxTrackedSeconds);
  EXPECT_EQ(rec.total(), 9u);
  EXPECT_EQ(rec.per_second()[2], 3u);
  EXPECT_EQ(rec.per_second()[0], 1u);
  EXPECT_EQ(rec.per_second().back(), 5u);
}

TEST(Obs, TraceBytesIsCanonical) {
  TraceRecorder rec;
  const uint64_t first = rec.Emit(5, TraceKind::kMsgSend, 0, 2, 3, 100, 0);
  const uint64_t second =
      rec.Emit(10, TraceKind::kDispatchTimer, 0, 1, 42, 0, first);
  // Ids are the 1-based emission counter.
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(second, 2u);
  const std::vector<TraceRecord>& records = rec.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].parent, first);
  const std::string bytes = TraceBytes(records);
  ASSERT_EQ(bytes.size(), records.size() * 48);
  // Little-endian fixed width: t, then id, then parent.
  EXPECT_EQ(bytes[0], 5);
  EXPECT_EQ(bytes[8], 1);
  EXPECT_EQ(bytes[48 + 16], 1);
}

}  // namespace
}  // namespace optilog
