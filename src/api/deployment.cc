#include "src/api/deployment.h"

#include <utility>

#include "src/tree/kauri.h"
#include "src/util/check.h"

namespace optilog {

// --- Deployment --------------------------------------------------------------

ConsensusEngine& Deployment::engine() {
  if (tree_ != nullptr) {
    return *tree_;
  }
  OL_CHECK(pbft_ != nullptr);
  return *pbft_;
}

TreeRsm& Deployment::tree() {
  OL_CHECK(tree_ != nullptr);
  return *tree_;
}

PbftHarness& Deployment::pbft() {
  OL_CHECK(pbft_ != nullptr);
  return *pbft_;
}

void Deployment::Start() {
  if (fleet_ != nullptr) {
    fleet_->Start();
  }
  engine().Start();
}

MetricsReport Deployment::Metrics() {
  MetricsReport m = engine().Metrics();
  if (queue_ != nullptr) {
    FillQueueReport(*queue_, m.workload);
  }
  if (fleet_ != nullptr) {
    fleet_->FillReport(m.workload);
    if (pbft_ != nullptr) {
      // End-to-end client latency — the metric the paper's PBFT figures plot.
      m.mean_latency_ms = m.workload.latency_mean_ms;
    }
  }
  m.event_core = sim_->event_core_stats();
  m.wire_messages = net_->stats().messages_sent;
  m.wire_bytes = net_->stats().bytes_sent;
  if (const CpuMeter* cpu = net_->cpu()) {
    m.crypto.enabled = true;
    m.crypto.signs = cpu->signs();
    m.crypto.verifies = cpu->verifies();
    m.crypto.hashes = cpu->hashes();
    m.crypto.hashed_bytes = cpu->hashed_bytes();
    m.crypto.qc_aggregated_shares = cpu->qc_aggregated_shares();
    m.crypto.qc_verifies = cpu->qc_verifies();
    m.crypto.busy_ns_total = cpu->busy_ns_total();
    m.crypto.busy_ns_max_replica = cpu->busy_ns_max_replica();
  }
  if (rsm_group_ != nullptr) {
    rsm_group_->FillReport(m.statemachine, sim_->now());
  }
  if (m.log_head_hex.empty() && pipeline_ != nullptr) {
    m.log_head_hex = DigestHex(log_.head());
  }
  if (gauges_ != nullptr) {
    m.timeseries.enabled = true;
    m.timeseries.interval = gauges_->interval();
    for (const GaugeSampler::Series& s : gauges_->series()) {
      m.timeseries.series.push_back({s.name, s.values});
    }
  }
  return m;
}

std::vector<TraceRecord> Deployment::TraceRecords() const {
  const TraceRecorder* tr = sim_->trace();
  return tr != nullptr ? tr->records() : std::vector<TraceRecord>{};
}

void Deployment::ScheduleCrash(ReplicaId id, SimTime crash_at,
                               SimTime recover_at) {
  OL_CHECK_MSG(rsm_group_ != nullptr,
               "ScheduleCrash requires WithStateMachine (state transfer)");
  auto& profile = faults_.Mutable(id);
  profile.crash_at = crash_at;
  profile.recover_at = recover_at;
  rsm_group_->ScheduleRecovery(id, recover_at);
}

std::optional<TreeTopology> Deployment::OptiLogReconfig(TreeRsm& rsm) {
  // Commit every suspicion the protocol recorded since the last failure:
  // signed by the suspector, appended as a measurement entry, dispatched to
  // the deterministic monitors at the commit boundary.
  const auto& suspicions = rsm.logged_suspicions();
  for (; consumed_suspicions_ < suspicions.size(); ++consumed_suspicions_) {
    AppendMeasurement(
        log_, sim().now(),
        MakeSuspicionMeasurement(suspicions[consumed_suspicions_], *keys_).Encode());
  }
  pipeline_->OnView(consumed_suspicions_);

  // Crashed replicas reciprocate nothing; drop them from the pool now rather
  // than waiting f + 1 views (the paper's C set), and stop intermediates
  // from waiting for their votes — the protocol-level effect of u (§6.2).
  std::set<ReplicaId> excluded;
  for (ReplicaId id = 0; id < n_; ++id) {
    if (faults_.IsCrashedAt(id, sim().now())) {
      excluded.insert(id);
    }
  }
  const CandidateSet& k = pipeline_->suspicion_monitor().Current();
  std::vector<ReplicaId> pool;
  for (ReplicaId id : k.candidates) {
    if (excluded.count(id) == 0) {
      pool.push_back(id);
    }
  }
  if (pool.size() < BranchFactorFor(n_) + 1) {
    return std::nullopt;
  }
  rsm.SetExcluded(std::move(excluded));
  if (search_window_ > 0) {
    rsm.PauseProposals(search_window_);  // the SA search window (Fig. 15)
  }
  return AnnealTree(n_, pool, matrix_, rsm.CommitThreshold() + k.u, reconfig_rng_,
                    search_params_);
}

// --- Builder -----------------------------------------------------------------

Deployment::Builder& Deployment::Builder::WithReplicas(uint32_t n, uint32_t f) {
  n_ = n;
  f_ = f;
  return *this;
}

Deployment::Builder& Deployment::Builder::WithGeo(std::vector<City> cities) {
  cities_ = std::move(cities);
  return *this;
}

Deployment::Builder& Deployment::Builder::WithProtocol(Protocol protocol) {
  protocol_ = protocol;
  return *this;
}

Deployment::Builder& Deployment::Builder::WithFaults(
    std::function<void(Deployment&)> configure) {
  faults_ = std::move(configure);
  return *this;
}

Deployment::Builder& Deployment::Builder::WithBandwidth(double bps) {
  bandwidth_bps_ = bps;
  return *this;
}

Deployment::Builder& Deployment::Builder::WithCryptoCostModel(
    const CryptoCostModel& model) {
  crypto_model_ = model;
  return *this;
}

Deployment::Builder& Deployment::Builder::WithSeed(uint64_t seed) {
  seed_ = seed;
  return *this;
}

Deployment::Builder& Deployment::Builder::WithTreeOptions(TreeRsmOptions opts) {
  tree_opts_ = std::move(opts);
  return *this;
}

Deployment::Builder& Deployment::Builder::WithPbftOptions(PbftOptions opts) {
  pbft_opts_ = std::move(opts);
  return *this;
}

Deployment::Builder& Deployment::Builder::WithWorkload(WorkloadOptions opts) {
  workload_ = std::move(opts);
  return *this;
}

Deployment::Builder& Deployment::Builder::WithStateMachine(
    StateMachineOptions opts) {
  statemachine_ = std::move(opts);
  return *this;
}

Deployment::Builder& Deployment::Builder::WithCheckpointing(uint64_t interval,
                                                            bool truncate) {
  if (!statemachine_.has_value()) {
    statemachine_ = StateMachineOptions{};
  }
  statemachine_->checkpoint.interval = interval;
  statemachine_->checkpoint.truncate = truncate;
  return *this;
}

Deployment::Builder& Deployment::Builder::WithTopology(TreeTopology tree) {
  topology_ = std::move(tree);
  return *this;
}

Deployment::Builder& Deployment::Builder::WithInitialSearch(
    AnnealingParams params) {
  search_params_ = params;
  return *this;
}

Deployment::Builder& Deployment::Builder::WithOptiLogReconfig(
    SimTime search_window) {
  optilog_reconfig_ = true;
  search_window_ = search_window;
  return *this;
}

Deployment::Builder& Deployment::Builder::WithShards(uint32_t shards) {
  OL_CHECK(shards >= 1);
  shards_ = shards;
  return *this;
}

Deployment::Builder& Deployment::Builder::WithCrossShardRatio(double ratio) {
  OL_CHECK(ratio >= 0.0 && ratio <= 1.0);
  cross_shard_ratio_ = ratio;
  return *this;
}

Deployment::Builder& Deployment::Builder::WithTxnWorkload(
    TxnWorkloadOptions opts) {
  txn_workload_ = opts;
  return *this;
}

std::unique_ptr<Deployment> Deployment::Builder::Build() {
  return BuildInternal(nullptr, 0);
}

std::unique_ptr<Deployment> Deployment::Builder::BuildInternal(
    Simulator* external, uint32_t owner_clients) {
  auto d = std::unique_ptr<Deployment>(new Deployment());
  const bool standalone = external == nullptr;
  if (standalone) {
    d->own_sim_ = std::make_unique<Simulator>();
    d->sim_ = d->own_sim_.get();
    if (trace_ || gauge_interval_ > 0) {
      d->sim_->EnableTrace();
    }
  } else {
    d->sim_ = external;  // the sharded owner configured it already
  }
  d->protocol_ = protocol_;
  const uint64_t seed = seed_.value_or(1);

  // Size and geography: either determines the other's default.
  if (cities_.empty()) {
    OL_CHECK(n_.has_value());
    cities_ = GlobalN(*n_, seed);
  }
  d->n_ = n_.value_or(static_cast<uint32_t>(cities_.size()));
  OL_CHECK(d->n_ >= 4);
  OL_CHECK(d->n_ <= cities_.size());
  d->f_ = f_.value_or((d->n_ - 1) / 3);
  d->cities_.assign(cities_.begin(), cities_.begin() + d->n_);

  // Client traffic, resolved once. A given fleet seed folds the deployment
  // seed in, so sweeps that only vary WithSeed draw independent arrival
  // processes per point; the PBFT default keeps PbftOptions' seed as is.
  std::optional<WorkloadOptions> workload = workload_;
  if (workload.has_value()) {
    workload->seed = workload->seed * 0x9e3779b97f4a7c15ULL ^ seed;
  } else if (!IsTreeProtocol(protocol_)) {
    workload = PbftDefaultWorkload(d->n_, seed_.value_or(pbft_opts_.seed));
  }
  if (workload.has_value() && workload->clients == 0) {
    workload->clients = d->n_;
  }

  // Latency model, extended with the client locations (colocated with
  // replica cities round-robin) for ids n .. n + clients - 1: the fleet's,
  // or a shard's owner's coordinators and clients.
  const size_t client_count =
      standalone && workload.has_value() ? workload->clients : owner_clients;
  std::vector<City> model_cities =
      client_count > 0 ? WithColocatedClients(d->cities_, client_count)
                       : d->cities_;
  // Topology-derived peak-pending estimate: every replica can have a few
  // in-flight deliveries per round plus a timer, and each client one
  // outstanding request — sized so steady state never grows the slab.
  d->sim_->ReserveHint(4 * (static_cast<size_t>(d->n_) + client_count) + 64);
  // One RTT table over the unique cities serves the network's delays and
  // the measured latency matrix below: the trig runs once per unique-city
  // pair.
  CityIndex ci = DedupeCities(model_cities);
  const size_t u = ci.unique.size();
  std::vector<double> city_rtt_ms = CityRttTableMs(ci.unique);
  d->latency_model_ = std::make_unique<GeoLatencyModel>(ci.index_of, city_rtt_ms, u);
  d->net_ = std::make_unique<Network>(d->sim_, d->latency_model_.get(),
                                      &d->faults_);
  if (bandwidth_bps_ > 0) {
    d->net_->SetBandwidthBps(bandwidth_bps_);
  }
  if (crypto_model_.has_value()) {
    d->net_->EnableCpuCost(*crypto_model_);
    if (d->sim_->trace() != nullptr) {
      d->net_->cpu()->SetTrace(d->sim_->trace());
    }
  }
  d->keys_ = std::make_unique<KeyStore>(d->n_, seed);

  // The measured latency matrix after one complete probe round: probe RTTs
  // are a function of the city pair only. Replicas come first in
  // `model_cities` and clients colocate with them, so the replica prefix of
  // the index and the same table describe the replicas alone.
  ci.index_of.resize(d->n_);  // replicas only; clients are not probed
  d->matrix_.ResetWithCityBaseline(d->n_, std::move(ci.index_of),
                                   std::move(city_rtt_ms), u);

  if (statemachine_.has_value()) {
    // Execution needs operations to execute: the client fleet generates the
    // KV mix and cross-checks committed results against its model oracle.
    OL_CHECK_MSG(workload_.has_value(),
                 "WithStateMachine requires WithWorkload");
    workload->kv.enabled = true;
    d->rsm_group_ = std::make_unique<RsmGroup>(d->sim_, d->net_.get(),
                                               &d->faults_, d->n_,
                                               *statemachine_);
  }

  if (IsTreeProtocol(protocol_)) {
    TreeRsmOptions topts = tree_opts_;
    topts.n = d->n_;
    topts.f = d->f_;
    d->tree_ = std::make_unique<TreeRsm>(d->sim_, d->net_.get(), &d->matrix_, topts);

    d->search_params_ = search_params_.value_or(AnnealingParams::ForBudget(5000));
    d->reconfig_rng_ = Rng(seed ^ 0x5deece66dull);
    Rng rng(seed);
    TreeTopology initial;
    if (topology_.has_value()) {
      initial = *topology_;
    } else if (protocol_ == Protocol::kHotStuff) {
      std::vector<ReplicaId> leaves;
      for (ReplicaId id = 1; id < d->n_; ++id) {
        leaves.push_back(id);
      }
      initial = TreeTopology::Build({0}, leaves);
    } else if (protocol_ == Protocol::kKauri) {
      initial = RandomTree(d->n_, rng);
    } else {  // kOptiTree: SA over all replicas at the commit threshold
      std::vector<ReplicaId> all(d->n_);
      for (ReplicaId id = 0; id < d->n_; ++id) {
        all[id] = id;
      }
      initial = AnnealTree(d->n_, all, d->matrix_, d->tree_->CommitThreshold(), rng,
                           d->search_params_);
    }
    d->tree_->SetTopology(initial);

    if (optilog_reconfig_) {
      d->tree_space_ =
          std::make_unique<TreeConfigSpace>(d->n_, d->tree_->CommitThreshold());
      // The E_d/T policy with enough candidates for the internal positions
      // (§6.4).
      SuspicionMonitorOptions suspicion;
      suspicion.policy = CandidatePolicy::kTreeDisjointEdges;
      suspicion.min_candidates = BranchFactorFor(d->n_) + 1;
      Deployment* dp = d.get();
      d->pipeline_ = std::make_unique<Pipeline>(
          d->n_, d->f_, d->keys_.get(), d->tree_space_.get(),
          /*reconfigure=*/[](const RoleConfig&, double) {}, suspicion);
      d->log_.AddListener([dp](const LogEntry& e) { dp->pipeline_->OnCommit(e); });
      d->search_window_ = search_window_;
      d->tree_->SetReconfigPolicy(
          [dp](TreeRsm& rsm) { return dp->OptiLogReconfig(rsm); });
    }
  } else {
    PbftOptions popts = pbft_opts_;
    popts.n = d->n_;
    popts.f = d->f_;
    popts.mode = protocol_ == Protocol::kPbft    ? PbftMode::kPbft
                 : protocol_ == Protocol::kAware ? PbftMode::kAware
                                                 : PbftMode::kOptiAware;
    if (seed_.has_value()) {
      popts.seed = *seed_;  // unset: PbftOptions keeps its own default
    }
    d->pbft_ = std::make_unique<PbftHarness>(d->sim_, d->net_.get(),
                                             d->keys_.get(), popts);
  }

  if (workload.has_value()) {
    d->queue_ = std::make_unique<RequestQueue>(workload->batch);
    d->engine().BindRequestQueue(d->queue_.get());
    if (standalone) {
      Deployment* dp = d.get();
      d->fleet_ = std::make_unique<ClientFleet>(
          d->sim_, d->net_.get(), d->n_, d->engine().RepliesNeeded(),
          std::move(*workload), [dp] { return dp->engine().Leader(); });
    }
  }

  if (d->rsm_group_ != nullptr) {
    Deployment* dp = d.get();
    d->engine().BindStateMachine(d->rsm_group_.get());
    d->rsm_group_->SetOnRecovered([dp](ReplicaId id, SimTime at) {
      if (dp->tree_ != nullptr) {
        dp->tree_->OnReplicaRecovered(id);
      }
      for (const auto& hook : dp->recovered_hooks_) {
        hook(id, at);
      }
    });
  }

  if (gauge_interval_ > 0) {
    d->gauges_ = std::make_unique<GaugeSampler>(d->sim_, gauge_interval_);
    Deployment* dp = d.get();
    // Fixed registration order — it is the series order in the report, the
    // JSON, and the fingerprint.
    if (d->rsm_group_ != nullptr) {
      for (ReplicaId id = 0; id < d->n_; ++id) {
        d->gauges_->Add("commit_frontier.r" + std::to_string(id), [dp, id] {
          return static_cast<double>(dp->rsm_group_->rsm(id).applied());
        });
      }
    }
    d->gauges_->Add("queue_depth", [dp] {
      return dp->queue_ != nullptr ? static_cast<double>(dp->queue_->depth())
                                   : 0.0;
    });
    if (standalone) {
      d->gauges_->Add("pending_events", [dp] {
        return static_cast<double>(dp->sim_->pending());
      });
    }
    if (d->net_->cpu() != nullptr) {
      d->gauges_->Add("crypto_backlog_ms", [dp] {
        return static_cast<double>(
                   dp->net_->cpu()->BacklogNsAt(dp->sim_->now())) /
               1e6;
      });
    }
    if (standalone) {
      d->gauges_->Add("pool_hit_rate", [dp] {
        return dp->sim_->event_core_stats().message_pool_hit_rate();
      });
    }
    d->gauges_->Start();
  }

  if (faults_) {
    faults_(*d);
  }

  // Arm crash-recovery restarts for every replica whose fault profile
  // carries a recovery window (WithFaults sets them declaratively).
  for (ReplicaId id = 0; id < d->n_; ++id) {
    const SimTime recover_at = d->faults_.Of(id).recover_at;
    if (recover_at == std::numeric_limits<SimTime>::max()) {
      continue;
    }
    OL_CHECK_MSG(d->rsm_group_ != nullptr,
                 "recover_at requires WithStateMachine (state transfer)");
    d->rsm_group_->ScheduleRecovery(id, recover_at);
  }
  return d;
}

}  // namespace optilog
