// Throughput and latency recording, matching how the paper reports results:
// throughput/latency sampled every second over the run (§7.3), averaged with
// 95% confidence intervals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/event_core.h"
#include "src/sim/time.h"
#include "src/util/stats.h"

namespace optilog {

// Mean ops/s over [from_sec, to_sec) of a per-second series, clamped to the
// recorded range.
inline double MeanOpsPerSec(const std::vector<uint64_t>& per_second,
                            size_t from_sec, size_t to_sec) {
  if (to_sec > per_second.size()) {
    to_sec = per_second.size();
  }
  if (from_sec >= to_sec) {
    return 0.0;
  }
  uint64_t sum = 0;
  for (size_t i = from_sec; i < to_sec; ++i) {
    sum += per_second[i];
  }
  return static_cast<double>(sum) / static_cast<double>(to_sec - from_sec);
}

// Buckets committed commands into one-second bins of simulated time.
class ThroughputRecorder {
 public:
  // Growth guard: one far-future commit timestamp (a corrupt SimTime, or a
  // scenario hook committing past a multi-day horizon) must not balloon the
  // per-second vector into gigabytes. Commits at or beyond the cap fold
  // into the final bucket — total() stays exact and every realistic run
  // (seconds to hours of sim time) is untouched.
  static constexpr size_t kMaxTrackedSeconds = size_t{1} << 20;  // ~12 days

  void RecordCommit(SimTime at, uint32_t commands) {
    size_t bucket = at > 0 ? static_cast<size_t>(at / kSec) : 0;
    if (bucket >= kMaxTrackedSeconds) {
      bucket = kMaxTrackedSeconds - 1;
    }
    if (buckets_.size() <= bucket) {
      buckets_.resize(bucket + 1, 0);
    }
    buckets_[bucket] += commands;
    total_ += commands;
  }

  // Ops/s time series, one point per second.
  const std::vector<uint64_t>& per_second() const { return buckets_; }

  uint64_t total() const { return total_; }

  // Mean ops/s over [from_sec, to_sec).
  double MeanOps(size_t from_sec, size_t to_sec) const {
    return MeanOpsPerSec(buckets_, from_sec, to_sec);
  }

 private:
  std::vector<uint64_t> buckets_;
  uint64_t total_ = 0;
};

// Client-side traffic accounting, filled when a deployment runs a workload
// (ClientFleet + leader-side RequestQueue; see src/workload/). All zeros
// with `enabled == false` for self-driven runs. Latency percentiles are the
// honest end-to-end numbers: stamped at the client from its original send to
// the reply the leader issues at the commit boundary.
struct WorkloadReport {
  bool enabled = false;
  uint64_t requests_sent = 0;       // client sends (first attempts)
  uint64_t requests_completed = 0;  // reached their reply quorum
  uint64_t requests_retried = 0;    // re-sent after a retry timeout
  uint64_t requests_abandoned = 0;  // open-loop tracking window overflow
  uint64_t requests_accepted = 0;   // admitted to the leader queue
  uint64_t requests_dropped = 0;    // backpressure: leader queue overflow
  uint64_t requests_deduped = 0;    // duplicate deliveries (retries/forwards)
  uint64_t batches_size_triggered = 0;      // proposed on the size trigger
  uint64_t batches_deadline_triggered = 0;  // proposed on the deadline trigger
  uint64_t batches_idle_triggered = 0;      // proposed on idle (PBFT's trigger)
  size_t peak_queue_depth = 0;
  // KV model-oracle cross-check (deployments with a state machine): each
  // completed request's returned value is verified against the client's
  // local model. Sound whenever a client's operations commit in its
  // completion order (closed loop with outstanding == 1 guarantees it).
  uint64_t kv_checks = 0;
  uint64_t kv_mismatches = 0;
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
};

// Replicated-state-machine accounting (src/statemachine/), filled when the
// deployment executes a state machine at the commit boundary; all zeros with
// `enabled == false` otherwise. "Live" below means not crashed and not
// mid-recovery at report time.
struct StateMachineReport {
  bool enabled = false;
  uint64_t applied = 0;            // max applied frontier among live replicas
  uint64_t checkpoints = 0;        // taken by the reference (max-frontier) replica
  uint64_t truncations = 0;        // log truncations at the reference replica
  uint64_t peak_log_entries = 0;   // max in-memory log entries, any replica
  uint64_t live_log_entries = 0;   // reference replica's log size at report time
  // 1 when every live replica materialized the same committed prefix: the
  // max-frontier replicas' state digests are identical AND every replica
  // still mid-flight on the last entries chain-checks against that prefix.
  uint32_t digests_equal = 0;
  std::string state_digest_hex;    // the agreed frontier digest ("" on mismatch)
  uint64_t recoveries_started = 0;
  uint64_t recoveries_completed = 0;
  uint64_t catchups_started = 0;   // gap repairs without amnesia
  uint64_t transfer_bytes = 0;     // snapshot + suffix wire bytes received
  uint64_t transfer_chunks = 0;
  uint64_t transfer_reroutes = 0;  // donor switches after a timeout
  double catchup_ms_total = 0.0;   // sim-time cost of completed recoveries
  double catchup_ms_max = 0.0;
};

// Cross-shard transaction accounting (src/shard/), filled only by sharded
// deployments with a transaction workload; all zeros with `enabled == false`
// otherwise. Counts split client-side outcomes (submitted / committed /
// aborted / retried) from coordinator-side 2PC traffic (prepares, no-votes,
// recovery re-drives). Latency percentiles are end-to-end per committed
// transaction, split single-shard vs cross-shard — the split the shard
// scaling sweep plots.
struct TxnReport {
  bool enabled = false;
  uint64_t submitted = 0;          // transaction attempts sent by clients
  uint64_t committed = 0;
  uint64_t aborted = 0;            // lock-conflict aborts seen by clients
  uint64_t retried = 0;            // timeout re-sends of an in-flight attempt
  uint64_t committed_single = 0;   // committed txns touching one shard
  uint64_t committed_cross = 0;    // committed txns spanning >= 2 shards
  uint64_t prepares_sent = 0;      // coordinator phase-1 records sent
  uint64_t votes_no = 0;           // prepare conflicts at participants
  uint64_t coord_duplicates = 0;   // client retries deduped at coordinators
  uint64_t recovered_commits = 0;  // decided txns re-driven after a crash
  uint64_t recovered_aborts = 0;   // in-doubt txns aborted after a crash
  uint64_t kv_checks = 0;          // model-oracle verifications
  uint64_t kv_mismatches = 0;
  std::vector<uint64_t> committed_per_sec;  // committed txns per sim second
  double single_mean_ms = 0.0;
  double single_p50_ms = 0.0;
  double single_p95_ms = 0.0;
  double single_p99_ms = 0.0;
  double cross_mean_ms = 0.0;
  double cross_shard_p50_ms = 0.0;
  double cross_shard_p95_ms = 0.0;
  double cross_shard_p99_ms = 0.0;
};

// Modeled crypto/CPU accounting (src/crypto/cost_model.h), filled when the
// deployment attaches a CryptoCostModel; all zeros with `enabled == false`
// otherwise. Counters are whole-deployment op counts; busy_ns_* is the
// modeled CPU time charged (total across replicas, and the single most
// loaded replica — the compute bottleneck).
struct CryptoReport {
  bool enabled = false;
  uint64_t signs = 0;
  uint64_t verifies = 0;
  uint64_t hashes = 0;
  uint64_t hashed_bytes = 0;
  uint64_t qc_aggregated_shares = 0;
  uint64_t qc_verifies = 0;
  uint64_t busy_ns_total = 0;
  uint64_t busy_ns_max_replica = 0;
};

// Gauge time-series sampled on simulated time (src/obs/gauge.h), filled when
// the deployment enables gauge sampling; all empty with `enabled == false`.
// Every series holds one value per elapsed `interval` of sim time —
// byte-identical across reruns and --threads values.
struct TimeseriesReport {
  bool enabled = false;
  SimTime interval = 0;  // sampling period (sim time)
  struct Series {
    std::string name;
    std::vector<double> values;
  };
  std::vector<Series> series;
};

// Protocol-agnostic snapshot of a run's outcome: what every ConsensusEngine
// reports regardless of whether "committed" counts tree blocks or PBFT
// instances. Benches and tests consume this instead of reaching into
// harness-specific accessors.
struct MetricsReport {
  uint64_t committed = 0;          // committed blocks / instances
  uint64_t total_commands = 0;     // client commands across all commits
  uint64_t failed_rounds = 0;      // rounds lost to timeouts
  uint64_t reconfigurations = 0;   // configuration changes (any cause)
  uint64_t suspicions = 0;         // suspicion records raised
  // Consensus latency, proposal to the proposer's commit, as the engine
  // measures it. A PBFT-family Deployment with a client fleet replaces it
  // with end-to-end client latency (the metric the paper's PBFT figures
  // plot).
  double mean_latency_ms = 0.0;
  std::vector<uint64_t> throughput_per_sec;  // commands per second of sim time
  std::vector<SimTime> reconfig_times;
  std::vector<SimTime> suspicion_times;
  // SHA-256 chain head of the run's measurement bus, hex-encoded — the
  // determinism evidence scenario sweeps pin (see src/runner/). Empty when
  // the engine runs without a Log (tree protocols without OptiLogReconfig).
  std::string log_head_hex;
  // Event-core counters for the run's simulator: how much of the event
  // traffic rode the typed (closure-free) lanes, and how fast the core
  // drained it in wall-clock terms.
  EventCoreStats event_core;
  // Client traffic accounting; enabled only when the engine serves a
  // workload instead of self-driving proposals.
  WorkloadReport workload;
  // Replicated-state-machine execution/checkpoint/recovery accounting;
  // enabled only under Deployment::Builder::WithStateMachine.
  StateMachineReport statemachine;
  // Cross-shard transaction accounting; enabled only for sharded
  // deployments driving a transaction workload (src/shard/).
  TxnReport txn;
  // Bytes-on-wire accounting, always filled: every non-loopback send's
  // canonical WireSize() summed over the run (multicast counts one copy
  // per recipient, matching the uplink serialization model).
  uint64_t wire_messages = 0;
  uint64_t wire_bytes = 0;
  // Modeled crypto/CPU accounting; enabled only under
  // Deployment::Builder::WithCryptoCostModel.
  CryptoReport crypto;
  // Periodic gauge samples (src/obs/gauge.h); enabled only under
  // Deployment::Builder::WithGaugeSampling.
  TimeseriesReport timeseries;

  double MeanOps(size_t from_sec, size_t to_sec) const {
    return MeanOpsPerSec(throughput_per_sec, from_sec, to_sec);
  }
};

}  // namespace optilog
