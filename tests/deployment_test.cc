// Equivalence tests for the Deployment builder: engines built through the
// fluent API must reproduce the exact counts of the hand-wired setups they
// replaced. The hand-wired halves below are intentionally the only direct
// TreeRsm / PbftHarness constructions outside src/ — they are the reference
// the API is measured against.
#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/api/deployment.h"
#include "src/shard/sharded_deployment.h"
#include "src/tree/kauri.h"
#include "tests/test_support.h"

namespace optilog {
namespace {

// --- OptiTree: healthy run ---------------------------------------------------

TEST(DeploymentBuilder, OptiTreeMatchesHandWiredCounts) {
  constexpr uint32_t kN = 21, kF = 6;
  constexpr uint64_t kSeed = 11;
  const SimTime run_time = 20 * kSec;
  const AnnealingParams params = AnnealingParams::ForBudget(2000);

  // Hand-wired: the setup every bench used to repeat.
  uint64_t wired_blocks = 0;
  double wired_latency = 0.0;
  {
    const auto cities = Europe21();
    const GeoLatencyModel latency = GeoModel(cities);
    Simulator sim;
    FaultModel faults;
    Network net(&sim, &latency, &faults);
    const LatencyMatrix matrix = MatrixFromCities(cities);

    TreeRsmOptions opts;
    opts.n = kN;
    opts.f = kF;
    TreeRsm rsm(&sim, &net, &matrix, opts);
    Rng rng(kSeed);
    std::vector<ReplicaId> all(kN);
    for (ReplicaId id = 0; id < kN; ++id) {
      all[id] = id;
    }
    rsm.SetTopology(AnnealTree(kN, all, matrix, kN - kF, rng, params));
    rsm.Start();
    sim.RunUntil(run_time);
    wired_blocks = rsm.committed_blocks();
    wired_latency = rsm.latency_stat().mean();
    ASSERT_GT(wired_blocks, 50u);
  }

  // Builder-built: same seed, same search budget.
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithReplicas(kN, kF)
               .WithProtocol(Protocol::kOptiTree)
               .WithSeed(kSeed)
               .WithInitialSearch(params)
               .Build();
  d->Start();
  d->RunUntil(run_time);
  const MetricsReport m = d->Metrics();

  EXPECT_EQ(m.committed, wired_blocks);
  EXPECT_DOUBLE_EQ(m.mean_latency_ms, wired_latency);
  EXPECT_EQ(m.failed_rounds, 0u);
  EXPECT_EQ(m.reconfigurations, 0u);
}

// --- OptiTree: crash + pipeline-driven reconfiguration -----------------------

TEST(DeploymentBuilder, OptiTreeCrashRecoveryMatchesHandWiredPipeline) {
  constexpr uint32_t kN = 21, kF = 6;
  constexpr uint64_t kSeed = 11;
  const SimTime run_time = 30 * kSec;
  const SimTime crash_at = 5 * kSec;
  const AnnealingParams params = AnnealingParams::ForBudget(2000);

  // Hand-wired OptiLog loop: log + pipeline + reconfiguration policy — what
  // bench_fig15 / stellar_network wired by hand before WithOptiLogReconfig.
  uint64_t wired_blocks = 0, wired_reconfigs = 0, wired_failed = 0;
  {
    const auto cities = Europe21();
    const GeoLatencyModel latency = GeoModel(cities);
    Simulator sim;
    FaultModel faults;
    Network net(&sim, &latency, &faults);
    KeyStore keys(kN, kSeed);
    const LatencyMatrix matrix = MatrixFromCities(cities);

    TreeRsmOptions opts;
    opts.n = kN;
    opts.f = kF;
    TreeRsm rsm(&sim, &net, &matrix, opts);
    Rng rng(kSeed);
    std::vector<ReplicaId> all(kN);
    for (ReplicaId id = 0; id < kN; ++id) {
      all[id] = id;
    }
    const TreeTopology first = AnnealTree(kN, all, matrix, kN - kF, rng, params);
    rsm.SetTopology(first);
    faults.Mutable(first.root()).crash_at = crash_at;

    TreeConfigSpace space(kN, kN - kF);
    SuspicionMonitorOptions suspicion;
    suspicion.policy = CandidatePolicy::kTreeDisjointEdges;
    suspicion.min_candidates = BranchFactorFor(kN) + 1;
    Log log;
    Pipeline pipeline(kN, kF, &keys, &space, [](const RoleConfig&, double) {},
                      suspicion);
    log.AddListener([&](const LogEntry& e) { pipeline.OnCommit(e); });

    Rng reconfig_rng(kSeed ^ 0x5deece66dull);
    size_t consumed = 0;
    rsm.SetReconfigPolicy([&](TreeRsm& r) -> std::optional<TreeTopology> {
      const auto& suspicions = r.logged_suspicions();
      for (; consumed < suspicions.size(); ++consumed) {
        LogEntry e;
        e.kind = EntryKind::kMeasurement;
        e.committed_at = sim.now();
        e.payload = MakeSuspicionMeasurement(suspicions[consumed], keys).Encode();
        log.Append(e);
      }
      pipeline.OnView(consumed);
      std::set<ReplicaId> excluded;
      for (ReplicaId id = 0; id < kN; ++id) {
        if (faults.IsCrashedAt(id, sim.now())) {
          excluded.insert(id);
        }
      }
      const CandidateSet& k = pipeline.suspicion_monitor().Current();
      std::vector<ReplicaId> pool;
      for (ReplicaId id : k.candidates) {
        if (excluded.count(id) == 0) {
          pool.push_back(id);
        }
      }
      if (pool.size() < BranchFactorFor(kN) + 1) {
        return std::nullopt;
      }
      r.SetExcluded(std::move(excluded));
      r.PauseProposals(1 * kSec);
      return AnnealTree(kN, pool, matrix, kN - kF + k.u, reconfig_rng, params);
    });

    rsm.Start();
    sim.RunUntil(run_time);
    wired_blocks = rsm.committed_blocks();
    wired_reconfigs = rsm.reconfigurations();
    wired_failed = rsm.failed_rounds();
    ASSERT_GE(wired_reconfigs, 1u);
    ASSERT_GT(wired_blocks, 50u);
  }

  ReplicaId first_root = kNoReplica;
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithReplicas(kN, kF)
               .WithProtocol(Protocol::kOptiTree)
               .WithSeed(kSeed)
               .WithInitialSearch(params)
               .WithOptiLogReconfig(/*search_window=*/1 * kSec)
               .WithFaults([&](Deployment& dep) {
                 first_root = dep.tree().topology().root();
                 dep.faults().Mutable(first_root).crash_at = crash_at;
               })
               .Build();
  d->Start();
  d->RunUntil(run_time);
  const MetricsReport m = d->Metrics();

  EXPECT_EQ(m.committed, wired_blocks);
  EXPECT_EQ(m.reconfigurations, wired_reconfigs);
  EXPECT_EQ(m.failed_rounds, wired_failed);
  EXPECT_NE(d->tree().topology().root(), first_root);
}

// --- OptiAware: delay attack -------------------------------------------------

TEST(DeploymentBuilder, OptiAwareMatchesHandWiredCounts) {
  const SimTime run_time = 40 * kSec;
  PbftOptions opts;
  opts.n = 21;
  opts.f = 6;
  opts.mode = PbftMode::kOptiAware;
  opts.delta = 1.5;
  opts.optimize_at = 5 * kSec;

  // Hand-wired: replicas and clients colocated (doubled city list), and the
  // default fleet routing to the engine's leader through its request queue.
  uint64_t wired_instances = 0, wired_suspicions = 0, wired_reconfigs = 0;
  Digest wired_head{};
  {
    auto cities = Europe21();
    auto both = cities;
    both.insert(both.end(), cities.begin(), cities.end());
    const GeoLatencyModel latency = GeoModel(both);
    Simulator sim;
    FaultModel faults;
    Network net(&sim, &latency, &faults);
    KeyStore keys(21, 1);
    PbftHarness harness(&sim, &net, &keys, opts);
    const WorkloadOptions w = PbftDefaultWorkload(21, opts.seed);
    RequestQueue queue(w.batch);
    harness.BindRequestQueue(&queue);
    ClientFleet fleet(&sim, &net, 21, harness.RepliesNeeded(), w,
                      [&] { return harness.Leader(); });
    sim.ScheduleAt(15 * kSec, [&] {
      auto& f = faults.Mutable(harness.config().leader);
      f.proposal_delay = 600 * kMsec;
      f.fast_probes = true;
    });
    fleet.Start();
    harness.Start();
    sim.RunUntil(run_time);
    wired_instances = harness.committed_instances();
    wired_suspicions = harness.suspicion_times().size();
    wired_reconfigs = harness.reconfigure_times().size();
    wired_head = harness.log().head();
    ASSERT_GT(wired_suspicions, 0u);
    ASSERT_GE(wired_reconfigs, 2u);  // scheduled optimization + mitigation
  }

  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kOptiAware)
               .WithPbftOptions(opts)
               .Build();
  d->sim().ScheduleAt(15 * kSec, [&] {
    auto& f = d->faults().Mutable(d->pbft().config().leader);
    f.proposal_delay = 600 * kMsec;
    f.fast_probes = true;
  });
  d->Start();
  d->RunUntil(run_time);
  const MetricsReport m = d->Metrics();

  EXPECT_EQ(m.committed, wired_instances);
  EXPECT_EQ(m.suspicions, wired_suspicions);
  EXPECT_EQ(m.reconfigurations, wired_reconfigs);
  // The replicated log is byte-identical: the measurement bus is
  // deterministic end to end.
  EXPECT_EQ(d->pbft().log().head(), wired_head);
}

// The harness's TR1-TR3 table, and the vote deadlines built from it, equal
// ones computed from scratch.
void ExpectDeadlineTableFresh(PbftHarness& h) {
  AwareTimeouts fresh;
  AwareConfigSpace(h.scheme().n, h.scheme().f)
      .ComputeTimeouts(h.config(), h.matrix(),
                       h.pipeline().suspicion_monitor().Current().u, fresh);
  const AwareTimeouts& table = h.aware_timeouts();
  EXPECT_EQ(table.propose, fresh.propose);
  EXPECT_EQ(table.prepared, fresh.prepared);
  EXPECT_EQ(table.round_ms, fresh.round_ms);
  AwareVoteDeadlines fresh_votes;
  fresh_votes.Build(fresh, h.matrix());
  const AwareVoteDeadlines& votes = h.vote_deadlines();
  for (bool accept : {false, true}) {
    for (ReplicaId from = 0; from < h.scheme().n; ++from) {
      for (ReplicaId to = 0; to < h.scheme().n; ++to) {
        ASSERT_EQ(votes.Of(accept, from, to), fresh_votes.Of(accept, from, to))
            << "accept " << accept << " " << from << " -> " << to;
      }
    }
  }
}

TEST(DeploymentBuilder, OptiAwareDeadlineTableFollowsItsInputs) {
  // Each check follows a change of exactly one of the table's inputs since
  // the table was last read: the matrix, then the config, then u.
  PbftOptions opts;
  opts.delta = 1.5;
  opts.optimize_at = 7500 * kMsec;  // between two 5 s probe rounds
  const SimTime attack_at = 12 * kSec;
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kOptiAware)
               .WithPbftOptions(opts)
               .Build();
  PbftHarness& h = d->pbft();
  d->sim().ScheduleAt(attack_at, [&] {
    auto& f = d->faults().Mutable(h.config().leader);
    f.proposal_delay = 600 * kMsec;
    f.fast_probes = true;
  });
  auto u = [&] { return h.pipeline().suspicion_monitor().Current().u; };

  // Before the first probe round nothing is known: no finite deadline.
  EXPECT_TRUE(std::isinf(h.aware_timeouts().round_ms));
  d->Start();  // runs the first probe round
  ExpectDeadlineTableFresh(h);
  EXPECT_TRUE(std::isfinite(h.aware_timeouts().round_ms));

  d->RunUntil(opts.optimize_at - 100 * kMsec);
  ExpectDeadlineTableFresh(h);
  const RoleConfig initial = h.config();
  const uint64_t version = h.matrix().version();
  const uint32_t u0 = u();
  d->RunUntil(opts.optimize_at);  // Aware's scheduled optimization
  ASSERT_EQ(h.reconfigure_times().size(), 1u);
  ASSERT_TRUE(h.config().leader != initial.leader ||
              h.config().weight_max != initial.weight_max);
  ASSERT_EQ(h.matrix().version(), version);
  ASSERT_EQ(u(), u0);
  ExpectDeadlineTableFresh(h);

  // Under the attack, step until u moves between two probe rounds.
  SimTime t = attack_at;
  bool u_moved_alone = false;
  while (!u_moved_alone && t < 60 * kSec) {
    const uint64_t step_version = h.matrix().version();
    const uint32_t step_u = u();
    t += 100 * kMsec;
    d->RunUntil(t);
    u_moved_alone = u() != step_u && h.matrix().version() == step_version;
    ExpectDeadlineTableFresh(h);
  }
  EXPECT_TRUE(u_moved_alone);
}

// --- Builder defaults and the ConsensusEngine interface ----------------------

TEST(DeploymentBuilder, DefaultsFillGeoAndFaultBudget) {
  auto d = Deployment::Builder()
               .WithReplicas(13, 4)
               .WithProtocol(Protocol::kKauri)
               .Build();
  EXPECT_EQ(d->n(), 13u);
  EXPECT_EQ(d->f(), 4u);
  EXPECT_EQ(d->cities().size(), 13u);
  EXPECT_DOUBLE_EQ(d->matrix().Coverage(), 1.0);
  d->Start();
  d->RunUntil(10 * kSec);
  const MetricsReport m = d->Metrics();
  EXPECT_GT(m.committed, 10u);
  // The unified report carries the event-core counters, and a builder-built
  // tree run stays entirely on the typed (closure-free) lanes.
  EXPECT_GT(m.event_core.typed_deliveries, 0u);
  EXPECT_GT(m.event_core.typed_timers, 0u);
  EXPECT_EQ(m.event_core.closure_events, 0u);
  EXPECT_EQ(m.event_core.events_executed, d->sim().events_executed());
}

TEST(DeploymentBuilder, GeoDerivesSizeAndFaults) {
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kHotStuff)
               .Build();
  EXPECT_EQ(d->n(), 21u);
  EXPECT_EQ(d->f(), 6u);
  // HotStuff default topology: a star rooted at 0.
  EXPECT_EQ(d->tree().topology().root(), 0u);
  EXPECT_TRUE(d->tree().topology().intermediates().empty());
}

// Every actor pair's one-way delay and every replica pair's matrix RTT
// equal CityRttMs of their cities, computed pair by pair: the deployment
// derives both from one table over its unique cities. Actors after the
// replicas (a fleet's clients, or a shard owner's coordinators and clients)
// sit in replica (id - n) mod n's city.
void ExpectPairwiseCityRtts(Deployment& d, size_t actors) {
  const std::vector<City>& cities = d.cities();
  const uint32_t n = d.n();
  const auto city = [&](ReplicaId id) -> const City& {
    return cities[id < n ? id : (id - n) % n];
  };
  const LatencyModel& latency = *d.net().latency();
  for (ReplicaId a = 0; a < actors; ++a) {
    for (ReplicaId b = 0; b < actors; ++b) {
      const double rtt = CityRttMs(city(a), city(b));
      ASSERT_EQ(latency.OneWay(a, b), a == b ? 0 : FromMs(rtt / 2.0)) << a << " -> " << b;
      if (a < n && b < n) {
        ASSERT_EQ(d.matrix().Rtt(a, b), a == b ? 0.0 : rtt) << a << " <-> " << b;
      }
    }
  }
}

TEST(DeploymentBuilder, OneCityTableGivesEveryPairItsCityRtt) {
  {
    SCOPED_TRACE("GlobalN(1000), 64 clients");
    WorkloadOptions w;
    w.clients = 64;
    auto d = Deployment::Builder()
                 .WithGeo(GlobalN(1000))
                 .WithProtocol(Protocol::kHotStuff)
                 .WithWorkload(w)
                 .Build();
    ExpectPairwiseCityRtts(*d, 1000 + 64);
  }
  {
    SCOPED_TRACE("sharded Europe21");
    TxnWorkloadOptions txn;
    txn.clients_per_shard = 3;
    auto sd = Deployment::Builder()
                  .WithGeo(Europe21())
                  .WithReplicas(7, 2)
                  .WithProtocol(Protocol::kHotStuff)
                  .WithWorkload(WorkloadOptions{})
                  .WithStateMachine()
                  .WithShards(3)
                  .WithTxnWorkload(txn)
                  .BuildSharded();
    for (uint32_t s = 0; s < sd->shards(); ++s) {
      SCOPED_TRACE(s);
      // 7 replicas, then 3 coordinators, then 9 clients.
      ExpectPairwiseCityRtts(sd->shard(s), 7 + 3 + 9);
    }
  }
}

TEST(ConsensusEngine, SetTopologyOrConfigRoundTrips) {
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kKauri)
               .WithSeed(3)
               .Build();
  ConsensusEngine& engine = d->engine();

  Rng rng(17);
  const TreeTopology replacement = RandomTree(21, rng);
  engine.SetTopologyOrConfig(replacement.ToConfig());
  EXPECT_EQ(d->tree().topology().root(), replacement.root());
  EXPECT_EQ(engine.ActiveConfig(), replacement.ToConfig());

  engine.Start();
  d->RunUntil(10 * kSec);
  const MetricsReport m = engine.Metrics();
  EXPECT_GT(m.committed, 10u);
  EXPECT_GT(m.MeanOps(1, 10), 0.0);

  // Mid-run install is a forced reconfiguration: counted, and progress
  // resumes on the new tree without waiting out stale round timers.
  const TreeTopology second = RandomTree(21, rng);
  engine.SetTopologyOrConfig(second.ToConfig());
  d->RunUntil(20 * kSec);
  const MetricsReport after = engine.Metrics();
  EXPECT_EQ(after.reconfigurations, m.reconfigurations + 1);
  EXPECT_EQ(after.reconfig_times.back(), 10 * kSec);
  EXPECT_GT(after.committed, m.committed + 10u);
}

TEST(ConsensusEngine, PbftReportsUnifiedMetrics) {
  PbftOptions opts;
  opts.optimize_at = 5 * kSec;
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kAware)
               .WithPbftOptions(opts)
               .Build();
  d->Start();
  d->RunUntil(15 * kSec);
  const MetricsReport m = d->Metrics();
  EXPECT_GT(m.committed, 20u);
  EXPECT_GT(m.total_commands, m.committed);  // batches carry >= 1 request
  EXPECT_GT(m.mean_latency_ms, 1.0);
  EXPECT_LT(m.mean_latency_ms, 500.0);
  EXPECT_EQ(m.reconfigurations, 1u);  // the scheduled optimization
  EXPECT_FALSE(m.throughput_per_sec.empty());
  // The engine's config names a leader with full weight vector.
  EXPECT_EQ(d->engine().ActiveConfig().weight_max.size(), 21u);
}

}  // namespace
}  // namespace optilog
