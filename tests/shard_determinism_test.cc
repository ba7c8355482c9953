// Sharded deployments run every shard group, 2PC coordinator, and
// transaction client on one simulator, so a sharded run is exactly as
// reproducible as a single group's: two runs of one seed must agree on the
// metrics fingerprint at a mid-run snapshot and at the end, on the
// flight-recorder bytes, and on every gauge series. Covered for both
// protocol families and for an anchor crash that takes a coordinator down
// mid-2PC and brings it back through state transfer.
#include <gtest/gtest.h>

#include <string>

#include "src/api/deployment.h"
#include "src/obs/trace.h"
#include "src/runner/scenario.h"
#include "src/shard/sharded_deployment.h"
#include "src/statemachine/state_machine.h"
#include "tests/test_support.h"

namespace optilog {
namespace {

Deployment::Builder ShardBuilder(uint64_t seed, Protocol protocol) {
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
      .WithProtocol(protocol)
      .WithSeed(seed)
      .WithWorkload(w)
      .WithStateMachine(sm);
  return b;
}

struct ShardRun {
  std::string fingerprint;  // mid-run snapshot | end of run
  std::string trace_bytes;
  MetricsReport metrics;
};

// One 2-shard, 50%-cross transaction run with tracing and gauge sampling.
// With crash_anchor, shard 0's anchor goes down mid-run (taking its
// coordinator down mid-2PC) and recovers through state transfer.
ShardRun RunSharded(Protocol protocol, bool crash_anchor) {
  TxnWorkloadOptions txn;
  txn.clients_per_shard = crash_anchor ? 6 : 4;
  txn.keys_per_txn = 2;
  txn.hot_pct = 20;
  // Crash runs keep maximum pressure so some 2PC is always in flight when
  // the anchor dies.
  txn.think_time = crash_anchor ? 0 : 5 * kMsec;
  txn.stop_at = crash_anchor ? 10 * kSec : 6 * kSec;

  auto sd = ShardBuilder(29, protocol)
                .WithShards(2)
                .WithCrossShardRatio(0.5)
                .WithTxnWorkload(txn)
                .WithGaugeSampling(500 * kMsec)
                .BuildSharded();
  if (crash_anchor) {
    const ReplicaId anchor = sd->Route(0);
    sd->shard(0).ScheduleCrash(anchor, 3 * kSec, 6 * kSec);
  }
  sd->Start();
  // Two run segments with a Metrics() call between them: the snapshot pins
  // agreement at an intermediate horizon (pending work included), not just
  // after the drain.
  const SimTime mid_at = txn.stop_at;
  sd->RunUntil(mid_at);
  const MetricsReport mid = sd->Metrics();
  sd->RunUntil(2 * mid_at);

  ShardRun run;
  run.metrics = sd->Metrics();
  run.fingerprint =
      MetricsFingerprint(mid) + "|" + MetricsFingerprint(run.metrics);
  run.trace_bytes = TraceBytes(sd->TraceRecords());
  return run;
}

void ExpectDeterministic(Protocol protocol, bool crash_anchor) {
  const ShardRun a = RunSharded(protocol, crash_anchor);
  EXPECT_GT(a.metrics.txn.committed, 50u);
  EXPECT_GT(a.metrics.txn.committed_cross, 5u);
  EXPECT_EQ(a.metrics.txn.kv_mismatches, 0u);
  if (crash_anchor) {
    EXPECT_GE(a.metrics.txn.recovered_commits + a.metrics.txn.recovered_aborts,
              1u);
    EXPECT_EQ(a.metrics.statemachine.recoveries_completed, 1u);
  }
  ASSERT_FALSE(a.trace_bytes.empty());
  ASSERT_TRUE(a.metrics.timeseries.enabled);
  ASSERT_FALSE(a.metrics.timeseries.series.empty());

  const ShardRun b = RunSharded(protocol, crash_anchor);
  EXPECT_EQ(b.fingerprint, a.fingerprint);
  EXPECT_EQ(b.trace_bytes, a.trace_bytes);
  ASSERT_EQ(b.metrics.timeseries.series.size(),
            a.metrics.timeseries.series.size());
  for (size_t i = 0; i < a.metrics.timeseries.series.size(); ++i) {
    EXPECT_EQ(b.metrics.timeseries.series[i].name,
              a.metrics.timeseries.series[i].name);
    EXPECT_EQ(b.metrics.timeseries.series[i].values,
              a.metrics.timeseries.series[i].values);
  }
}

TEST(ShardDeterminism, TreeFamilyCrossShardTxns) {
  ExpectDeterministic(Protocol::kKauri, /*crash_anchor=*/false);
}

TEST(ShardDeterminism, PbftFamilyCrossShardTxns) {
  ExpectDeterministic(Protocol::kPbft, /*crash_anchor=*/false);
}

TEST(ShardDeterminism, CoordinatorCrashAndRecovery) {
  ExpectDeterministic(Protocol::kHotStuff, /*crash_anchor=*/true);
}

TxnWorkloadOptions SmallTxnFleet() {
  TxnWorkloadOptions txn;
  txn.clients_per_shard = 2;
  txn.think_time = 5 * kMsec;
  return txn;
}

TEST(ShardDeterminism, EveryShardSchedulesOnOneSimulator) {
  for (uint32_t shards : {1u, 3u}) {
    auto sd = ShardBuilder(31, Protocol::kHotStuff)
                  .WithShards(shards)
                  .WithCrossShardRatio(0.5)
                  .WithTxnWorkload(SmallTxnFleet())
                  .BuildSharded();
    for (uint32_t s = 0; s < shards; ++s) {
      EXPECT_EQ(&sd->shard(s).sim(), &sd->sim())
          << "shards=" << shards << " s=" << s;
    }
    sd->Start();
    sd->RunUntil(2 * kSec);
    EXPECT_EQ(sd->Metrics().event_core.partitions, 1u);
    EXPECT_GT(sd->sim().events_executed(), 0u);
  }
}

// On a multi-group deployment the simulator-wide gauges describe the whole
// simulator: they are sampled once, unprefixed, after the per-shard series.
TEST(ShardDeterminism, SimulatorGaugesAreSampledOncePerDeployment) {
  auto sd = ShardBuilder(31, Protocol::kHotStuff)
                .WithShards(2)
                .WithTxnWorkload(SmallTxnFleet())
                .WithGaugeSampling(kSec)
                .BuildSharded();
  sd->Start();
  sd->RunUntil(3 * kSec);
  const MetricsReport m = sd->Metrics();
  ASSERT_TRUE(m.timeseries.enabled);
  size_t pending = 0;
  size_t pool = 0;
  for (const TimeseriesReport::Series& s : m.timeseries.series) {
    EXPECT_EQ(s.values.size(), 3u) << s.name;
    pending += s.name.find("pending_events") != std::string::npos ? 1 : 0;
    pool += s.name.find("pool_hit_rate") != std::string::npos ? 1 : 0;
  }
  EXPECT_EQ(pending, 1u);
  EXPECT_EQ(pool, 1u);
  const size_t count = m.timeseries.series.size();
  ASSERT_GE(count, 2u);
  EXPECT_EQ(m.timeseries.series[count - 2].name, "pending_events");
  EXPECT_EQ(m.timeseries.series[count - 1].name, "pool_hit_rate");
  EXPECT_EQ(m.timeseries.series[0].name.substr(0, 3), "s0.");
}

}  // namespace
}  // namespace optilog
