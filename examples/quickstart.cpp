// Quickstart: the OptiLog pipeline in isolation — then the chosen tree
// put to work.
//
// Builds a 13-replica configuration, feeds latency vectors and a few
// suspicions through the shared log, shows how every replica derives the
// same candidate set, fault estimate, and configuration decision — and
// finally deploys the elected tree behind a closed-loop client fleet
// (WithWorkload) to serve requests end to end.
//
//   $ ./quickstart
#include <cstdio>

#include "src/api/deployment.h"
#include "src/core/pipeline.h"
#include "src/net/geo.h"
#include "src/obs/stage_breakdown.h"
#include "src/shard/sharded_deployment.h"
#include "src/tree/tree_space.h"
#include "src/tree/tree_score.h"

using namespace optilog;

int main() {
  constexpr uint32_t kN = 13, kF = 4;
  KeyStore keys(kN, /*seed=*/2026);

  // The protocol-specific search space: height-3 trees ranked by
  // score(2f + 1, tau) (Definition 1).
  TreeConfigSpace space(kN, 2 * kF + 1);

  // A shared log: in a real deployment the consensus engine orders entries;
  // here we append directly and notify the pipeline, which is exactly what
  // the sensor app does on commit.
  Log log;

  // The tree candidate policy: E_d/T with enough candidates for the
  // internal positions (§6.4).
  SuspicionMonitorOptions suspicion;
  suspicion.policy = CandidatePolicy::kTreeDisjointEdges;
  suspicion.min_candidates = BranchFactorFor(kN) + 1;

  RoleConfig active_config;
  double active_score = 0;
  bool reconfigured = false;
  Pipeline pipeline(
      kN, kF, &keys, &space,
      /*reconfigure=*/
      [&](const RoleConfig& cfg, double score) {
        active_config = cfg;
        active_score = score;
        reconfigured = true;
        std::printf("-> reconfigure! new root %u, predicted score %.2f ms\n",
                    cfg.leader, score);
      },
      suspicion);
  log.AddListener([&](const LogEntry& e) { pipeline.OnCommit(e); });

  auto commit_measurement = [&](const Bytes& payload) {
    LogEntry e;
    e.kind = EntryKind::kMeasurement;
    e.payload = payload;
    log.Append(e);
  };

  // 1) Latency sensors report: every replica submits its measured RTT
  //    vector (here derived from 13 European cities).
  const auto cities = Europe21();
  for (ReplicaId reporter = 0; reporter < kN; ++reporter) {
    LatencyVectorRecord rec;
    rec.reporter = reporter;
    rec.rtt_units.resize(kN);
    for (ReplicaId peer = 0; peer < kN; ++peer) {
      rec.rtt_units[peer] =
          reporter == peer ? 0 : EncodeRttMs(CityRttMs(cities[reporter], cities[peer]));
    }
    commit_measurement(MakeLatencyMeasurement(rec, keys).Encode());
  }
  std::printf("latency matrix coverage: %.0f%%\n",
              100.0 * pipeline.latency_monitor().matrix().Coverage());

  // 2) The suspicion monitor starts with everyone as a candidate.
  const CandidateSet& before = pipeline.suspicion_monitor().Current();
  std::printf("candidates: %zu, estimated misbehaving u = %u\n",
              before.candidates.size(), before.u);

  // 3) Replica 5 delays its messages; replica 2 suspects it and 5
  //    reciprocates (condition (c)) — a two-way suspicion lands in E_d and
  //    removes both from the candidate set.
  SuspicionRecord slow;
  slow.type = SuspicionType::kSlow;
  slow.suspector = 2;
  slow.suspect = 5;
  slow.round = 1;
  slow.phase = PhaseTag::kFirstVote;
  commit_measurement(MakeSuspicionMeasurement(slow, keys).Encode());
  SuspicionRecord reciprocal;
  reciprocal.type = SuspicionType::kFalse;
  reciprocal.suspector = 5;
  reciprocal.suspect = 2;
  reciprocal.round = 1;
  reciprocal.phase = PhaseTag::kFirstVote;
  commit_measurement(MakeSuspicionMeasurement(reciprocal, keys).Encode());

  const CandidateSet& after = pipeline.suspicion_monitor().Current();
  std::printf("after suspicion: candidates %zu, u = %u (2 and 5 excluded)\n",
              after.candidates.size(), after.u);

  // 4) The config sensor searches for a low-latency tree over the candidate
  //    set and proposes it through the log; with f + 1 = 5 distinct
  //    proposers, the deterministic monitor reconfigures.
  for (ReplicaId proposer = 6; proposer <= 6 + kF; ++proposer) {
    ConfigSensor sensor(proposer, &space, Rng(proposer * 7));
    auto rec = sensor.Search(after, pipeline.latency_monitor().matrix(),
                             AnnealingParams::ForBudget(3000));
    if (rec.has_value()) {
      commit_measurement(MakeConfigMeasurement(*rec, keys).Encode());
    }
  }

  if (!reconfigured) {
    // Without a reconfiguration, active_config is default-constructed and
    // decoding it as a tree would read an empty parent vector.
    std::fprintf(stderr,
                 "error: the config monitor never reconfigured — expected "
                 "f + 1 = %u valid proposals, got %zu pending\n",
                 kF + 1, pipeline.config_monitor().pending_proposals());
    return 1;
  }
  const TreeTopology tree = TreeTopology::FromConfig(active_config);
  std::printf("active tree: root %u with %zu intermediates, score %.2f ms\n",
              tree.root(), tree.intermediates().size(), active_score);
  std::printf("internal nodes avoid the suspects: ");
  for (ReplicaId id : tree.Internals()) {
    std::printf("%u ", id);
  }
  std::printf("\nlog entries: %zu, log head %s...\n", log.size(),
              DigestHex(log.head()).substr(0, 16).c_str());

  // 5) Serve real KV traffic through the elected tree: one closed-loop
  //    client per replica issues get/put/RMW operations through the root's
  //    request queue, every replica executes them at the commit boundary,
  //    and each reply's committed value is cross-checked against the
  //    client's model oracle (read-your-writes). Mid-run the root crashes
  //    and later restarts amnesiac, recovering via snapshot + log-suffix
  //    state transfer from its peers. The crypto cost model prices every
  //    sign/verify/hash as replica CPU time, so the metrics below report
  //    honest bytes-on-wire AND modeled crypto work.
  WorkloadOptions workload;
  workload.think_time = 10 * kMsec;
  workload.retry_timeout = 500 * kMsec;  // clients survive the root crash
  workload.batch.max_batch = 64;
  workload.batch.max_delay = 10 * kMsec;
  auto deployment =
      Deployment::Builder()
          .WithGeo(std::vector<City>(cities.begin(), cities.begin() + kN))
          .WithProtocol(Protocol::kOptiTree)
          .WithTopology(tree)
          .WithSeed(2026)
          .WithWorkload(workload)
          .WithStateMachine()
          .WithCheckpointing(/*interval=*/16)
          .WithCryptoCostModel(CryptoCostModel::Calibrated())
          .WithOptiLogReconfig(/*search_window=*/500 * kMsec)
          .WithFaults([&tree](Deployment& dep) {
            dep.faults().Mutable(tree.root()).crash_at = 4 * kSec;
            dep.faults().Mutable(tree.root()).recover_at = 7 * kSec;
          })
          .Build();
  deployment->Start();
  deployment->RunUntil(12 * kSec);
  const MetricsReport m = deployment->Metrics();
  std::printf("served %llu requests at %.0f ops/s, client p50 %.1f ms, "
              "p99 %.1f ms\n",
              static_cast<unsigned long long>(m.workload.requests_completed),
              m.MeanOps(1, 12), m.workload.latency_p50_ms,
              m.workload.latency_p99_ms);
  std::printf("root %u crashed at 4 s, recovered at 7 s: %llu/%llu recovery "
              "(%llu transfer bytes, %.0f ms catch-up)\n",
              tree.root(),
              static_cast<unsigned long long>(m.statemachine.recoveries_completed),
              static_cast<unsigned long long>(m.statemachine.recoveries_started),
              static_cast<unsigned long long>(m.statemachine.transfer_bytes),
              m.statemachine.catchup_ms_max);
  std::printf("wire traffic: %llu messages, %llu bytes (canonical "
              "encodings)\n",
              static_cast<unsigned long long>(m.wire_messages),
              static_cast<unsigned long long>(m.wire_bytes));
  std::printf("modeled crypto: %llu signs, %llu verifies, %llu hashes -> "
              "%.2f ms CPU total, %.2f ms on the busiest replica\n",
              static_cast<unsigned long long>(m.crypto.signs),
              static_cast<unsigned long long>(m.crypto.verifies),
              static_cast<unsigned long long>(m.crypto.hashes),
              static_cast<double>(m.crypto.busy_ns_total) / 1e6,
              static_cast<double>(m.crypto.busy_ns_max_replica) / 1e6);
  std::printf("read-your-writes: %llu/%llu checks passed; replica state "
              "digests %s (%.8s...)\n",
              static_cast<unsigned long long>(m.workload.kv_checks -
                                              m.workload.kv_mismatches),
              static_cast<unsigned long long>(m.workload.kv_checks),
              m.statemachine.digests_equal != 0 ? "EQUAL" : "DIVERGED",
              m.statemachine.state_digest_hex.c_str());
  const bool ok = m.workload.requests_completed > 0 &&
                  m.workload.kv_checks > 0 && m.workload.kv_mismatches == 0 &&
                  m.statemachine.recoveries_completed == 1 &&
                  m.statemachine.digests_equal != 0;

  // 6) Scale out: partition the keyspace over TWO consensus groups on one
  //    shared simulator. Single-shard transactions commit through one
  //    group's log; transactions whose keys hash to both shards run
  //    two-phase commit through the home shard's coordinator. Every client
  //    keeps a model oracle, so each committed read is a read-your-writes
  //    check across the shard boundary.
  TxnWorkloadOptions txn;
  txn.clients_per_shard = 4;
  txn.keys_per_txn = 2;
  txn.think_time = 10 * kMsec;
  WorkloadOptions shard_workload;
  shard_workload.batch.max_batch = 64;
  shard_workload.batch.max_delay = 10 * kMsec;
  auto sharded = Deployment::Builder()
                     .WithGeo(Europe21())
                     .WithReplicas(7, 2)
                     .WithProtocol(Protocol::kHotStuff)
                     .WithSeed(2026)
                     .WithWorkload(shard_workload)
                     .WithStateMachine()
                     .WithShards(2)
                     .WithCrossShardRatio(0.3)
                     .WithTxnWorkload(txn)
                     .WithTrace()  // flight recorder: schedule-neutral, so
                                   // every number below is unchanged by it
                     .BuildSharded();
  sharded->Start();
  sharded->RunUntil(10 * kSec);
  const MetricsReport sm = sharded->Metrics();
  std::printf("2 shards: %llu txns committed (%llu cross-shard via 2PC), "
              "%llu aborted; single p50 %.1f ms, cross p50 %.1f ms\n",
              static_cast<unsigned long long>(sm.txn.committed),
              static_cast<unsigned long long>(sm.txn.committed_cross),
              static_cast<unsigned long long>(sm.txn.aborted),
              sm.txn.single_p50_ms, sm.txn.cross_shard_p50_ms);
  std::printf("cross-shard read-your-writes: %llu/%llu checks passed; "
              "per-shard digests %s\n",
              static_cast<unsigned long long>(sm.txn.kv_checks -
                                              sm.txn.kv_mismatches),
              static_cast<unsigned long long>(sm.txn.kv_checks),
              sm.statemachine.digests_equal != 0 ? "EQUAL" : "DIVERGED");
  const bool shard_ok = sm.txn.committed > 0 && sm.txn.committed_cross > 0 &&
                        sm.txn.kv_checks > 0 && sm.txn.kv_mismatches == 0 &&
                        sm.statemachine.digests_equal != 0;

  // 7) Where did the time go? The flight recorder stamped every committed
  //    transaction's lifecycle (client_send -> queue_admit -> batch_seal ->
  //    commit -> reply_sent -> client_complete), so the end-to-end latency
  //    decomposes into named stages across both groups and the 2PC layer.
  const StageBreakdown sb = ComputeStageBreakdown(sharded->TraceRecords());
  if (sb.requests > 0) {
    const double n = static_cast<double>(sb.requests);
    std::printf("per-request critical path (%llu chains): client_net %.1f + "
                "queue %.1f + consensus %.1f + apply %.1f + reply %.1f "
                "= %.1f ms\n",
                static_cast<unsigned long long>(sb.requests),
                sb.client_net_ms / n, sb.queue_ms / n, sb.consensus_ms / n,
                sb.apply_ms / n, sb.reply_ms / n, sb.total_ms / n);
  }
  return ok && shard_ok && sb.requests > 0 ? 0 : 1;
}
