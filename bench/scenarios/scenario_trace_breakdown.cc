// Flight-recorder breakdown: the observability layer's own tier-1 gate.
// Three representative points — a pipelined-Kauri open-loop saturation
// point, a 2-shard 50%-cross 2PC transaction point and an OptiAware
// closed-loop point (the PBFT family's request lifecycle) — each run three
// times from the same seed:
//
//   1. untraced           -> the reference fingerprint F0
//   2. WithTrace          -> fingerprint must equal F0 byte-for-byte (the
//                            recorder's schedule-neutrality contract; the
//                            run OL_CHECKs it and exports fp_stable = 1)
//   3. WithGaugeSampling  -> the measured run: per-committed-request stage
//                            breakdown folded from the trace
//                            (client_net / queue / consensus / apply /
//                            reply), gauge time-series into the JSON body,
//                            and this run's own fingerprint as the digest
//                            (sampling schedules real timers, so it is a
//                            different — but still deterministic — schedule)
//
// The stage sums, and the queue and end-to-end p50/p99 (the spread a
// pipeline's cadence sets), are exact-gated metrics; reconstructed_pct pins
// that the six-record lifecycle chains cover >= 99% of committed requests. The
// scenario also registers the --trace hook, so
//   optilog_bench --trace trace_breakdown:0:out.json
// exports the Chrome trace-event JSON that tools/trace_stats.py recomputes
// the same decomposition from.
#include "bench/scenarios/common.h"
#include "src/api/deployment.h"
#include "src/obs/chrome_export.h"
#include "src/obs/stage_breakdown.h"
#include "src/shard/sharded_deployment.h"
#include "src/util/check.h"

namespace optilog {
namespace {

constexpr SimTime kGaugeInterval = 500 * kMsec;

enum class TraceMode { kOff, kTrace, kTraceAndGauges };

struct TracedRun {
  std::string fingerprint;
  MetricsReport metrics;
  std::vector<TraceRecord> records;
};

// The single-group point: saturation's Kauri pipeline at one mid-knee load.
TracedRun RunKauri(TraceMode mode) {
  WorkloadOptions w;
  w.clients = 40;
  w.arrival = ArrivalProcess::kOpenPoisson;
  w.rate_per_client = 2000.0 / 40;
  w.record_samples = false;
  w.batch.max_batch = 150;
  w.batch.max_delay = 20 * kMsec;
  w.batch.max_queue = 20'000;
  TreeRsmOptions topts;
  topts.pipeline_depth = 2;
  StateMachineOptions sm;
  sm.checkpoint.interval = 256;
  sm.checkpoint.truncate = true;
  Deployment::Builder b;
  b.WithGeo(Europe21())
      .WithProtocol(Protocol::kKauri)
      .WithSeed(17)
      .WithTreeOptions(topts)
      .WithWorkload(w)
      .WithStateMachine(sm);  // gives the per-replica commit-frontier gauges
  if (mode == TraceMode::kTrace) {
    b.WithTrace();
  } else if (mode == TraceMode::kTraceAndGauges) {
    b.WithGaugeSampling(kGaugeInterval);
  }
  auto d = b.Build();
  d->Start();
  d->RunUntil(10 * kSec);
  TracedRun run;
  run.metrics = d->Metrics();
  run.fingerprint = MetricsFingerprint(run.metrics);
  run.records = d->TraceRecords();
  return run;
}

// The sharded point: 2 HotStuff groups, 50% cross-shard 2PC — the trace
// covers both groups, the coordinators and the clients, and the chains cross
// between them.
TracedRun RunShardTxn(TraceMode mode) {
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
  Deployment::Builder b;
  b.WithGeo(Europe21())
      .WithReplicas(7, 2)
      .WithProtocol(Protocol::kHotStuff)
      .WithSeed(11)
      .WithWorkload(w)
      .WithStateMachine(sm)
      .WithShards(2)
      .WithCrossShardRatio(0.5)
      .WithTxnWorkload(txn);
  if (mode == TraceMode::kTrace) {
    b.WithTrace();
  } else if (mode == TraceMode::kTraceAndGauges) {
    b.WithGaugeSampling(kGaugeInterval);
  }
  auto sd = b.BuildSharded();
  sd->Start();
  sd->RunUntil(8 * kSec);
  TracedRun run;
  run.metrics = sd->Metrics();
  run.fingerprint = MetricsFingerprint(run.metrics);
  run.records = sd->TraceRecords();
  return run;
}

// The PBFT-family point: OptiAware behind the default-sized closed-loop
// fleet. Every replica commits and replies, so the trace carries one commit
// and one reply record per replica and request.
TracedRun RunOptiAware(TraceMode mode) {
  WorkloadOptions w;
  w.think_time = 50 * kMsec;
  PbftOptions popts;
  popts.optimize_at = 5 * kSec;
  Deployment::Builder b;
  b.WithGeo(Europe21())
      .WithProtocol(Protocol::kOptiAware)
      .WithSeed(23)
      .WithPbftOptions(popts)
      .WithWorkload(w)
      .WithStateMachine();
  if (mode == TraceMode::kTrace) {
    b.WithTrace();
  } else if (mode == TraceMode::kTraceAndGauges) {
    b.WithGaugeSampling(kGaugeInterval);
  }
  auto d = b.Build();
  d->Start();
  d->RunUntil(15 * kSec);
  TracedRun run;
  run.metrics = d->Metrics();
  run.fingerprint = MetricsFingerprint(run.metrics);
  run.records = d->TraceRecords();
  return run;
}

TracedRun RunMode(const std::string& point, TraceMode mode) {
  if (point == "kauri_saturation") {
    return RunKauri(mode);
  }
  if (point == "optiaware_closed_loop") {
    return RunOptiAware(mode);
  }
  OL_CHECK_MSG(point == "shard_txn", "trace_breakdown: unknown point");
  return RunShardTxn(mode);
}

PointResult RunPoint(const Params& p) {
  const std::string point = p.Get("point");

  const TracedRun plain = RunMode(point, TraceMode::kOff);
  OL_CHECK_MSG(plain.records.empty(), "untraced run produced trace records");

  // Schedule-neutrality pin: tracing on, fingerprint unchanged.
  const TracedRun traced = RunMode(point, TraceMode::kTrace);
  OL_CHECK_MSG(traced.fingerprint == plain.fingerprint,
               "tracing perturbed the committed fingerprint");
  OL_CHECK_MSG(!traced.records.empty(), "traced run produced no records");

  // The measured run: gauges sample on real timers, so it has its own
  // (deterministic) schedule — its fingerprint is the point's digest.
  const TracedRun sampled = RunMode(point, TraceMode::kTraceAndGauges);
  const StageBreakdown sb = ComputeStageBreakdown(sampled.records);
  OL_CHECK_MSG(sb.requests > 0, "no complete request chains in the trace");
  const double reconstructed =
      100.0 * static_cast<double>(sb.requests) /
      static_cast<double>(sb.requests + sb.incomplete);
  // The acceptance bar: the six-record lifecycle must reconstruct >= 99% of
  // committed requests (the shortfall is requests committed so close to the
  // horizon that their reply was still in flight).
  OL_CHECK_MSG(reconstructed >= 99.0, "trace chain reconstruction < 99%");

  PointResult pr;
  const double n = static_cast<double>(sb.requests);
  pr.rows.push_back(
      {point, std::to_string(sb.requests), std::to_string(sb.incomplete),
       Fixed(reconstructed, 1), Fixed(sb.client_net_ms / n, 2),
       Fixed(sb.queue_ms / n, 2), Fixed(sb.consensus_ms / n, 2),
       Fixed(sb.apply_ms / n, 2), Fixed(sb.reply_ms / n, 2),
       Fixed(sb.total_ms / n, 2), Fixed(sb.queue.p50_ms, 2),
       Fixed(sb.queue.p99_ms, 2), Fixed(sb.total.p50_ms, 2),
       Fixed(sb.total.p99_ms, 2)});
  pr.metrics = {
      {"requests", static_cast<double>(sb.requests)},
      {"incomplete", static_cast<double>(sb.incomplete)},
      {"reconstructed_pct", reconstructed},
      {"fp_stable", traced.fingerprint == plain.fingerprint ? 1.0 : 0.0},
      {"trace_records", static_cast<double>(sampled.records.size())},
      {"stage_client_net_ms", sb.client_net_ms},
      {"stage_queue_ms", sb.queue_ms},
      {"stage_batch_ms", sb.batch_ms},
      {"stage_consensus_ms", sb.consensus_ms},
      {"stage_apply_ms", sb.apply_ms},
      {"stage_reply_ms", sb.reply_ms},
      {"stage_total_ms", sb.total_ms},
      {"stage_queue_p50_ms", sb.queue.p50_ms},
      {"stage_queue_p99_ms", sb.queue.p99_ms},
      {"stage_total_p50_ms", sb.total.p50_ms},
      {"stage_total_p99_ms", sb.total.p99_ms},
  };
  for (const TimeseriesReport::Series& s : sampled.metrics.timeseries.series) {
    pr.timeseries.emplace_back(s.name, s.values);
  }
  FillOutcome(pr, sampled.metrics);
  return pr;
}

Scenario Make() {
  Scenario s;
  s.name = "trace_breakdown";
  s.description =
      "flight recorder: per-request stage breakdown (client_net/queue/"
      "consensus/apply/reply, queue and total p50/p99) + gauge "
      "time-series; pins tracing-off fingerprint stability and >= 99% "
      "chain reconstruction";
  s.tags = {"obs", "tier1"};
  s.columns = {"point",     "requests",  "incomplete", "reconstr_pct",
               "net_ms",    "queue_ms",  "cons_ms",    "apply_ms",
               "reply_ms",  "total_ms",  "queue_p50",  "queue_p99",
               "total_p50", "total_p99"};
  // The order keeps CI's `--trace trace_breakdown:1` on the sharded point.
  s.grid = {{"point",
             {"kauri_saturation", "shard_txn", "optiaware_closed_loop"}}};
  s.run = RunPoint;
  s.trace = [](const Params& p) {
    const TracedRun run = RunMode(p.Get("point"), TraceMode::kTraceAndGauges);
    return ChromeTraceJson(run.records);
  };
  return s;
}

const ScenarioRegistrar reg(Make());

}  // namespace
}  // namespace optilog
