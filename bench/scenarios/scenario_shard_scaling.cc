// Shard scaling: the sharded deployment's headline sweep. A partitioned KV
// store of {1,2,4,8} consensus groups (HotStuff n=7 each, Europe21 cities,
// all on one simulator) serves a closed-loop transaction fleet whose
// cross-shard ratio sweeps {0%,10%,50%}. At 0% every transaction takes
// the single-shard fast path — one kMulti record through one group's log —
// and aggregate committed-transaction throughput should scale near-linearly
// with the shard count (the baseline pins >= 3.2x at 4 shards). Raising the
// ratio routes transactions through the home shard's 2PC coordinator
// (every participant prepared at once, the client answered at the votes,
// then commits everywhere): the extra coordinator hop, the slowest of the
// parallel prepares and lock conflicts bend the curve and show up in the
// cross-shard latency percentiles. kv_mismatches pins the cross-shard
// oracle; digests_eq pins per-shard replica agreement.
#include "bench/scenarios/common.h"
#include "src/api/deployment.h"
#include "src/shard/sharded_deployment.h"
#include "src/util/check.h"

namespace optilog {
namespace {

constexpr SimTime kRunTime = 12 * kSec;
constexpr size_t kMeasureFrom = 2;   // skip the warm-up seconds
constexpr size_t kMeasureTo = 12;

PointResult RunPoint(const Params& p) {
  const uint32_t shards = static_cast<uint32_t>(p.GetInt("shards"));
  const double ratio = p.GetInt("cross_pct") / 100.0;

  WorkloadOptions w;
  w.arrival = ArrivalProcess::kClosedLoop;
  w.outstanding = 1;
  w.batch.max_batch = 32;
  w.batch.max_delay = 10 * kMsec;

  StateMachineOptions sm;
  sm.checkpoint.interval = 64;
  sm.checkpoint.truncate = true;

  TxnWorkloadOptions txn;
  txn.clients_per_shard = 6;
  txn.keys_per_txn = 2;
  txn.keys_per_client_shard = 8;
  txn.hot_pct = 10;
  txn.hot_keys = 8;
  txn.think_time = 5 * kMsec;

  auto deployment = Deployment::Builder()
                        .WithGeo(Europe21())
                        .WithReplicas(7, 2)
                        .WithProtocol(Protocol::kHotStuff)
                        .WithSeed(11)
                        .WithWorkload(w)
                        .WithStateMachine(sm)
                        .WithShards(shards)
                        .WithCrossShardRatio(ratio)
                        .WithTxnWorkload(txn)
                        .BuildSharded();
  deployment->Start();
  deployment->RunUntil(kRunTime / 4);
  const size_t warm_slab = deployment->sim().slab_capacity();
  deployment->RunUntil(kRunTime);
  if (shards >= 4) {
    // Every group adds a ReserveHint sized from its own topology
    // (4 * (n + clients) + 64 slots) to the shared simulator; at scale the
    // warm-up quarter must have touched everything the steady state needs —
    // zero slab growth after it.
    OL_CHECK(deployment->sim().slab_capacity() == warm_slab);
  }

  const MetricsReport m = deployment->Metrics();
  const TxnReport& t = m.txn;
  const double txn_per_s =
      MeanOpsPerSec(t.committed_per_sec, kMeasureFrom, kMeasureTo);
  PointResult pr;
  pr.rows.push_back({p.Get("shards"), p.Get("cross_pct"), Fixed(txn_per_s, 1),
                     std::to_string(t.committed), std::to_string(t.aborted),
                     std::to_string(t.committed_cross),
                     Fixed(t.single_p50_ms, 1), Fixed(t.cross_shard_p50_ms, 1),
                     Fixed(t.cross_shard_p99_ms, 1),
                     std::to_string(m.statemachine.digests_equal),
                     std::to_string(t.kv_mismatches)});
  pr.metrics = {
      {"txn_per_s", txn_per_s},
      {"txn_committed", static_cast<double>(t.committed)},
      {"txn_aborted", static_cast<double>(t.aborted)},
      {"txn_committed_cross", static_cast<double>(t.committed_cross)},
      {"single_p50_ms", t.single_p50_ms},
      {"cross_shard_p50_ms", t.cross_shard_p50_ms},
      {"cross_shard_p99_ms", t.cross_shard_p99_ms},
      {"digests_equal", static_cast<double>(m.statemachine.digests_equal)},
      {"kv_mismatches", static_cast<double>(t.kv_mismatches)},
  };
  FillOutcome(pr, m);
  return pr;
}

double MetricOf(const PointResult& pr, const std::string& name) {
  for (const auto& [k, v] : pr.metrics) {
    if (k == name) {
      return v;
    }
  }
  return 0.0;
}

// Scale factors relative to the 1-shard 0% point, per cross-shard ratio —
// the two headline numbers: near-linear scaling at 0% and the 2PC bend.
SummaryTable Finalize(const std::vector<PointResult>& results) {
  SummaryTable t;
  t.columns = {"cross_pct", "tps_1shard", "tps_2", "tps_4", "tps_8",
               "scale_4x"};
  const double base = MetricOf(results[0], "txn_per_s");
  // Point order: (1,0), then (2|4|8) x (0|10|50).
  const std::vector<int> pcts = {0, 10, 50};
  for (size_t c = 0; c < pcts.size(); ++c) {
    const double s2 = MetricOf(results[1 + c], "txn_per_s");
    const double s4 = MetricOf(results[4 + c], "txn_per_s");
    const double s8 = MetricOf(results[7 + c], "txn_per_s");
    t.rows.push_back({std::to_string(pcts[c]), Fixed(base, 1), Fixed(s2, 1),
                      Fixed(s4, 1), Fixed(s8, 1),
                      Fixed(base > 0 ? s4 / base : 0.0, 2)});
  }
  return t;
}

Scenario Make() {
  Scenario s;
  s.name = "shard_scaling";
  s.description =
      "partitioned KV over {1,2,4,8} HotStuff groups x "
      "cross-shard 2PC ratio {0,10,50}%: committed-txn throughput scaling, "
      "abort rate, cross-shard latency percentiles, oracle + digest checks";
  s.tags = {"shard", "sweep", "tier1"};
  s.columns = {"shards",     "cross_pct", "txn_per_s",  "committed",
               "aborted",    "cross",     "sp50_ms",    "xp50_ms",
               "xp99_ms",    "digests_eq", "kv_miss"};
  const std::vector<std::string> shard_counts = {"2", "4", "8"};
  const std::vector<std::string> ratios = {"0", "10", "50"};
  Params base;
  base.Set("shards", "1").Set("cross_pct", "0");
  s.points.push_back(base);
  for (const auto& n : shard_counts) {
    for (const auto& r : ratios) {
      Params p;
      p.Set("shards", n).Set("cross_pct", r);
      s.points.push_back(p);
    }
  }
  s.run = RunPoint;
  s.finalize = Finalize;
  return s;
}

const ScenarioRegistrar reg(Make());

}  // namespace
}  // namespace optilog
