#include "src/shard/sharded_deployment.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/crypto/sha256.h"
#include "src/util/check.h"

namespace optilog {

ShardedDeployment::~ShardedDeployment() = default;

void ShardedDeployment::Start() {
  for (auto& d : shards_) {
    d->Start();
  }
  fleet_->Start();
}

std::vector<TraceRecord> ShardedDeployment::TraceRecords() const {
  const TraceRecorder* tr = sim_.trace();
  return tr != nullptr ? tr->records() : std::vector<TraceRecord>{};
}

MetricsReport ShardedDeployment::Metrics() {
  MetricsReport agg;
  uint64_t latency_weight = 0;
  double latency_sum = 0.0;
  bool digests_equal = true;
  std::string digest_concat;
  for (size_t si = 0; si < shards_.size(); ++si) {
    Deployment* d = shards_[si].get();
    MetricsReport m = d->Metrics();
    agg.committed += m.committed;
    agg.total_commands += m.total_commands;
    agg.failed_rounds += m.failed_rounds;
    agg.reconfigurations += m.reconfigurations;
    agg.suspicions += m.suspicions;
    latency_sum += m.mean_latency_ms * static_cast<double>(m.committed);
    latency_weight += m.committed;
    if (agg.throughput_per_sec.size() < m.throughput_per_sec.size()) {
      agg.throughput_per_sec.resize(m.throughput_per_sec.size(), 0);
    }
    for (size_t i = 0; i < m.throughput_per_sec.size(); ++i) {
      agg.throughput_per_sec[i] += m.throughput_per_sec[i];
    }
    agg.reconfig_times.insert(agg.reconfig_times.end(),
                              m.reconfig_times.begin(), m.reconfig_times.end());
    agg.suspicion_times.insert(agg.suspicion_times.end(),
                               m.suspicion_times.begin(),
                               m.suspicion_times.end());
    agg.wire_messages += m.wire_messages;
    agg.wire_bytes += m.wire_bytes;
    if (m.crypto.enabled) {
      agg.crypto.enabled = true;
      agg.crypto.signs += m.crypto.signs;
      agg.crypto.verifies += m.crypto.verifies;
      agg.crypto.hashes += m.crypto.hashes;
      agg.crypto.hashed_bytes += m.crypto.hashed_bytes;
      agg.crypto.qc_aggregated_shares += m.crypto.qc_aggregated_shares;
      agg.crypto.qc_verifies += m.crypto.qc_verifies;
      agg.crypto.busy_ns_total += m.crypto.busy_ns_total;
      agg.crypto.busy_ns_max_replica =
          std::max(agg.crypto.busy_ns_max_replica, m.crypto.busy_ns_max_replica);
    }

    // Every shard serves a workload and runs a state machine (BuildSharded
    // requires both), so these two sections always aggregate.
    const WorkloadReport& w = m.workload;
    agg.workload.requests_sent += w.requests_sent;
    agg.workload.requests_completed += w.requests_completed;
    agg.workload.requests_retried += w.requests_retried;
    agg.workload.requests_abandoned += w.requests_abandoned;
    agg.workload.requests_accepted += w.requests_accepted;
    agg.workload.requests_dropped += w.requests_dropped;
    agg.workload.requests_deduped += w.requests_deduped;
    agg.workload.batches_size_triggered += w.batches_size_triggered;
    agg.workload.batches_deadline_triggered += w.batches_deadline_triggered;
    agg.workload.batches_idle_triggered += w.batches_idle_triggered;
    agg.workload.peak_queue_depth =
        std::max(agg.workload.peak_queue_depth, w.peak_queue_depth);
    agg.workload.kv_checks += w.kv_checks;
    agg.workload.kv_mismatches += w.kv_mismatches;

    const StateMachineReport& s = m.statemachine;
    agg.statemachine.applied += s.applied;
    agg.statemachine.checkpoints += s.checkpoints;
    agg.statemachine.truncations += s.truncations;
    agg.statemachine.peak_log_entries =
        std::max(agg.statemachine.peak_log_entries, s.peak_log_entries);
    agg.statemachine.live_log_entries += s.live_log_entries;
    digests_equal = digests_equal && s.digests_equal != 0;
    digest_concat += s.state_digest_hex;
    agg.statemachine.recoveries_started += s.recoveries_started;
    agg.statemachine.recoveries_completed += s.recoveries_completed;
    agg.statemachine.catchups_started += s.catchups_started;
    agg.statemachine.transfer_bytes += s.transfer_bytes;
    agg.statemachine.transfer_chunks += s.transfer_chunks;
    agg.statemachine.transfer_reroutes += s.transfer_reroutes;
    agg.statemachine.catchup_ms_total += s.catchup_ms_total;
    agg.statemachine.catchup_ms_max =
        std::max(agg.statemachine.catchup_ms_max, s.catchup_ms_max);

    if (m.timeseries.enabled) {
      // Per-shard series side by side under "s<i>." prefixes (shard order =
      // series order); the simulator-wide gauges follow, unprefixed.
      agg.timeseries.enabled = true;
      agg.timeseries.interval = m.timeseries.interval;
      std::string prefix = "s";
      prefix += std::to_string(si);
      prefix += '.';
      for (TimeseriesReport::Series& ts : m.timeseries.series) {
        agg.timeseries.series.push_back(
            {prefix + ts.name, std::move(ts.values)});
      }
    }
  }
  std::sort(agg.reconfig_times.begin(), agg.reconfig_times.end());
  std::sort(agg.suspicion_times.begin(), agg.suspicion_times.end());
  if (latency_weight > 0) {
    agg.mean_latency_ms = latency_sum / static_cast<double>(latency_weight);
  }
  agg.workload.enabled = true;
  agg.statemachine.enabled = true;
  agg.statemachine.digests_equal = digests_equal ? 1 : 0;
  // One digest over the ordered per-shard digests: the whole-deployment
  // state identity the sharding tests pin.
  agg.statemachine.state_digest_hex =
      digests_equal ? DigestHex(Sha256::Hash(digest_concat)) : "";
  if (gauges_ != nullptr) {
    for (const GaugeSampler::Series& ts : gauges_->series()) {
      agg.timeseries.series.push_back({ts.name, ts.values});
    }
  }
  agg.event_core = sim_.event_core_stats();

  fleet_->FillReport(agg.txn);
  for (auto& coord : coordinators_) {
    const TxnCoordinator::Stats& cs = coord->stats();
    agg.txn.prepares_sent += cs.prepares_sent;
    agg.txn.votes_no += cs.votes_no;
    agg.txn.coord_duplicates += cs.duplicates;
    agg.txn.recovered_commits += cs.recovered_commits;
    agg.txn.recovered_aborts += cs.recovered_aborts;
  }
  return agg;
}

// --- Builder::BuildSharded ---------------------------------------------------

std::unique_ptr<ShardedDeployment> Deployment::Builder::BuildSharded() {
  OL_CHECK_MSG(txn_workload_.clients_per_shard > 0 && workload_.has_value() &&
                   statemachine_.has_value(),
               "BuildSharded requires WithTxnWorkload (clients_per_shard > 0), "
               "WithWorkload and WithStateMachine");
  auto sd = std::unique_ptr<ShardedDeployment>(new ShardedDeployment());
  const uint64_t base_seed = seed_.value_or(1);
  const uint32_t shards = shards_;
  sd->router_ = KeyRouter(shards);
  sd->cross_pct_ = static_cast<uint32_t>(
      std::llround(cross_shard_ratio_ * 100.0));
  sd->txn_opts_ = txn_workload_;

  // Shared-simulator setup that must precede any group's scheduling.
  if (trace_ || gauge_interval_ > 0) {
    sd->sim_.EnableTrace();
  }

  const uint32_t total_clients = txn_workload_.clients_per_shard * shards;
  for (uint32_t s = 0; s < shards; ++s) {
    Builder b = Clone();
    // Shard 0 keeps the base seed; the rest fold the shard index in.
    b.seed_ = base_seed ^ 0x9e3779b97f4a7c15ULL * s;
    // The transaction fleet replaces the per-shard client fleets; the shard
    // still needs latency-model slots for the coordinators and clients
    // registered on its network (ids n .. n+shards+clients-1).
    sd->shards_.push_back(
        b.BuildInternal(&sd->sim_, shards + total_clients));
  }
  sd->n_ = sd->shards_[0]->n();
  for (auto& d : sd->shards_) {
    OL_CHECK(d->n() == sd->n_);
  }

  for (uint32_t s = 0; s < shards; ++s) {
    const ReplicaId anchor = sd->Route(s);
    auto coord = std::make_unique<TxnCoordinator>(
        sd.get(), s, sd->coordinator_id(s), anchor);
    TxnCoordinator* cp = coord.get();
    for (uint32_t t = 0; t < shards; ++t) {
      sd->shards_[t]->net().Register(cp->id(), cp);
    }
    sd->shards_[s]->AddRecoveredHook([cp, anchor](ReplicaId id, SimTime at) {
      if (id == anchor) {
        cp->OnAnchorRecovered(at);
      }
    });
    sd->coordinators_.push_back(std::move(coord));
  }

  TxnWorkloadOptions fopts = txn_workload_;
  fopts.seed = fopts.seed * 0x9e3779b97f4a7c15ULL ^ base_seed;
  sd->fleet_ = std::make_unique<TxnFleet>(
      sd.get(), /*base_id=*/sd->n_ + shards, total_clients, sd->cross_pct_,
      fopts);
  for (uint32_t i = 0; i < sd->fleet_->size(); ++i) {
    TxnClient& client = sd->fleet_->client(i);
    for (uint32_t t = 0; t < shards; ++t) {
      sd->shards_[t]->net().Register(client.id(), &client);
    }
  }

  if (gauge_interval_ > 0) {
    Simulator* sim = &sd->sim_;
    sd->gauges_ = std::make_unique<GaugeSampler>(sim, gauge_interval_);
    sd->gauges_->Add("pending_events",
                     [sim] { return static_cast<double>(sim->pending()); });
    sd->gauges_->Add("pool_hit_rate", [sim] {
      return sim->event_core_stats().message_pool_hit_rate();
    });
    sd->gauges_->Start();
  }
  return sd;
}

}  // namespace optilog
