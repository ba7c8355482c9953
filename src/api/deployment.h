// Deployment: one front door for every protocol harness.
//
// Before this layer, every bench and example re-implemented the same ~40
// lines of substrate wiring — Simulator, GeoLatencyModel, FaultModel,
// Network, KeyStore, LatencyMatrix, harness construction, topology search —
// with protocol-specific variations sprinkled in. The builder owns all of
// it behind a fluent API:
//
//   auto d = Deployment::Builder()
//                .WithGeo(Europe21())
//                .WithProtocol(Protocol::kOptiAware)
//                .Build();
//   d->Start();
//   d->RunUntil(60 * kSec);
//   MetricsReport m = d->Metrics();
//
// Protocol selection picks the engine (TreeRsm for the HotStuff/Kauri/
// OptiTree family, PbftHarness for the weighted-PBFT family) and sensible
// defaults for the initial configuration: a star for HotStuff, a random
// height-3 tree for Kauri, a simulated-annealing tree for OptiTree, and
// leader-0 weighted quorums for the PBFT modes. `WithOptiLogReconfig` wires
// the full pipeline loop for tree protocols: recorded suspicions are
// signed, committed through the deployment's log, dispatched to the
// deterministic monitors, and the reconfiguration policy anneals the next
// tree over the surviving candidate set (see DESIGN.md).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/api/consensus_engine.h"
#include "src/core/pipeline.h"
#include "src/hotstuff/tree_rsm.h"
#include "src/net/geo.h"
#include "src/net/latency_model.h"
#include "src/net/network.h"
#include "src/obs/gauge.h"
#include "src/pbft/pbft_rsm.h"
#include "src/rsm/log.h"
#include "src/shard/txn_options.h"
#include "src/statemachine/group.h"
#include "src/tree/tree_space.h"

namespace optilog {

class ShardedDeployment;

enum class Protocol {
  kHotStuff,   // star of depth 1; rotate_root in TreeRsmOptions gives -rr
  kKauri,      // random height-3 tree (pipelining via TreeRsmOptions)
  kOptiTree,   // SA-optimized tree; pair with WithOptiLogReconfig
  kPbft,       // BFT-SMaRt baseline: fixed leader, uniform weights
  kAware,      // weighted PBFT + scheduled (leader, Vmax) optimization
  kOptiAware,  // Aware + the OptiLog suspicion/reconfiguration pipeline
};

inline bool IsTreeProtocol(Protocol p) {
  return p == Protocol::kHotStuff || p == Protocol::kKauri ||
         p == Protocol::kOptiTree;
}

class Deployment {
 public:
  class Builder;

  // --- substrate -------------------------------------------------------------
  // The simulator this deployment schedules on: its own when standalone, the
  // shared one when it is a shard of a ShardedDeployment (src/shard/) —
  // sharing one (time, seq) event order is what keeps multi-group runs
  // byte-identical at any --threads value.
  Simulator& sim() { return *sim_; }
  Network& net() { return *net_; }
  FaultModel& faults() { return faults_; }
  const KeyStore& keys() const { return *keys_; }
  const LatencyMatrix& matrix() const { return matrix_; }
  const std::vector<City>& cities() const { return cities_; }
  Protocol protocol() const { return protocol_; }
  uint32_t n() const { return n_; }
  uint32_t f() const { return f_; }

  // --- engine ----------------------------------------------------------------
  ConsensusEngine& engine();
  // Typed accessors for protocol-specific inspection (construction stays
  // behind the builder). Aborts when the deployment runs the other family.
  TreeRsm& tree();
  PbftHarness& pbft();
  // The replicated-state-machine layer (WithStateMachine); nullptr when the
  // deployment only counts messages.
  const RsmGroup* state_machines() const { return rsm_group_.get(); }
  // The client fleet: WithWorkload's, or the PBFT family's default one;
  // nullptr for a self-driven tree deployment and for a shard, whose clients
  // belong to the sharded owner.
  const ClientFleet* fleet() const { return fleet_.get(); }

  // Runs after a crashed replica recovers to the live frontier, in addition
  // to the engine's own rebinding. The shard layer hooks its transaction
  // coordinators here.
  void AddRecoveredHook(std::function<void(ReplicaId, SimTime)> hook) {
    recovered_hooks_.push_back(std::move(hook));
  }

  // Declarative crash window for a replica, armed after Build: crash at
  // `crash_at`, restart amnesiac and state-transfer back at `recover_at`.
  // The post-Build twin of WithFaults + the builder's recovery arming loop.
  void ScheduleCrash(ReplicaId id, SimTime crash_at, SimTime recover_at);

  // --- lifecycle -------------------------------------------------------------
  // Starts the fleet, then the engine, so the clients' first sends precede
  // everything the engine schedules at start.
  void Start();
  void RunFor(SimTime d) { sim().RunFor(d); }
  void RunUntil(SimTime t) { sim().RunUntil(t); }
  // The engine's protocol metrics plus the fields the deployment owns: the
  // workload report (and, for the PBFT family, the clients' mean latency),
  // the simulator's event-core counters, the network's wire and crypto
  // accounting, and the state-machine report. log_head_hex comes
  // from the deployment's measurement bus when the engine doesn't own one
  // (tree protocols under WithOptiLogReconfig commit through the deployment
  // log), and the gauge time-series are folded in when WithGaugeSampling ran.
  MetricsReport Metrics();

  // --- observability ---------------------------------------------------------
  // This deployment's flight-recorder records (WithTrace /
  // WithGaugeSampling) in emission (t, id) order; empty when tracing is off.
  // A shard of a ShardedDeployment shares its owner's recorder, so this
  // returns every group's records (ShardedDeployment::TraceRecords).
  std::vector<TraceRecord> TraceRecords() const;
  // The gauge sampler, or nullptr without WithGaugeSampling.
  const GaugeSampler* gauges() const { return gauges_.get(); }

 private:
  friend class Builder;
  Deployment() = default;

  std::optional<TreeTopology> OptiLogReconfig(TreeRsm& rsm);

  Protocol protocol_ = Protocol::kOptiTree;
  uint32_t n_ = 0;
  uint32_t f_ = 0;
  std::vector<City> cities_;

  // Substrate. Declaration order doubles as construction order: engines
  // reference everything above them. `sim_` is the simulator everything
  // schedules on: `own_sim_` for a standalone deployment, the shared
  // simulator when this deployment is one shard of a ShardedDeployment.
  std::unique_ptr<Simulator> own_sim_;
  Simulator* sim_ = nullptr;
  FaultModel faults_;
  std::unique_ptr<GeoLatencyModel> latency_model_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<KeyStore> keys_;
  LatencyMatrix matrix_;

  // OptiLog machinery for tree protocols (WithOptiLogReconfig): suspicions
  // recorded by the harness are committed through this log and dispatched to
  // the deployment pipeline's monitors.
  std::unique_ptr<TreeConfigSpace> tree_space_;
  Log log_;
  std::unique_ptr<Pipeline> pipeline_;
  size_t consumed_suspicions_ = 0;
  Rng reconfig_rng_{1};
  AnnealingParams search_params_;
  SimTime search_window_ = 0;

  // The engine holds a raw pointer to the queue (BindRequestQueue).
  std::unique_ptr<RequestQueue> queue_;

  std::unique_ptr<TreeRsm> tree_;
  std::unique_ptr<PbftHarness> pbft_;

  // Routes new requests to engine().Leader().
  std::unique_ptr<ClientFleet> fleet_;

  // Replicated-state-machine layer (WithStateMachine): per-replica KV
  // machines executed at the commit boundary, checkpoints, and
  // crash-recovery state transfer. The engines hold a raw pointer to it
  // (BindStateMachine) but never touch it during destruction.
  std::unique_ptr<RsmGroup> rsm_group_;

  // Gauge sampler (WithGaugeSampling): rides sim_ as a timer target, so it
  // must outlive every scheduled sample — destroyed with the deployment.
  std::unique_ptr<GaugeSampler> gauges_;

  // Extra recovery listeners beyond the engine's own rebinding
  // (AddRecoveredHook); the shard layer's coordinators live here.
  std::vector<std::function<void(ReplicaId, SimTime)>> recovered_hooks_;
};

class Deployment::Builder {
 public:
  // Configuration size. Defaults: f = (n - 1) / 3; replica locations drawn
  // world-wide (GlobalN) unless WithGeo supplies them.
  Builder& WithReplicas(uint32_t n, uint32_t f);

  // Replica locations; n and f default from the city count.
  Builder& WithGeo(std::vector<City> cities);

  Builder& WithProtocol(Protocol protocol);

  // Declarative fault injection, applied after the engine and its initial
  // topology exist — so the callback can target e.g. tree intermediates.
  Builder& WithFaults(std::function<void(Deployment&)> configure);

  // Per-replica uplink bandwidth in bits/s (0 = unlimited).
  Builder& WithBandwidth(double bps);

  // Attaches a modeled crypto/CPU cost (src/crypto/cost_model.h): protocol
  // sign/verify/hash work charges replica busy time that delays sends, and
  // Metrics() fills its CryptoReport. Off by default: then no work is
  // charged and the report's crypto section stays disabled.
  Builder& WithCryptoCostModel(const CryptoCostModel& model);

  // Attaches the flight recorder (src/obs/trace.h): every dispatch, send,
  // timer fire, crypto charge, and protocol span lands in the simulator's
  // record buffer (Deployment::TraceRecords). Recording is schedule-neutral
  // — fingerprints are byte-identical with tracing on or off.
  Builder& WithTrace() {
    trace_ = true;
    return *this;
  }

  // Samples gauge time-series (commit frontiers, queue depth, pending
  // events, crypto backlog, pool hit rate) every `interval` of sim time
  // into MetricsReport::timeseries. Implies WithTrace, so a sampled run also
  // carries the trace its stage breakdown is computed from. Unlike tracing,
  // sampling schedules real timers, so sampled runs have their own
  // fingerprints.
  Builder& WithGaugeSampling(SimTime interval) {
    OL_CHECK(interval > 0);
    trace_ = true;
    gauge_interval_ = interval;
    return *this;
  }

  // Seeds everything the builder derives randomness from: the key store,
  // topology searches, and the PBFT harness seed.
  Builder& WithSeed(uint64_t seed);

  // Protocol-family knobs. n, f and the PBFT mode are filled in by Build.
  Builder& WithTreeOptions(TreeRsmOptions opts);
  Builder& WithPbftOptions(PbftOptions opts);

  // Client traffic (src/workload/): a ClientFleet drives the engine instead
  // of self-driven proposals (tree family) or PbftDefaultWorkload (PBFT
  // family). Clients are colocated with replica cities round-robin and the
  // latency model is extended to cover them; zero `clients` resolves to one
  // per replica at Build, the deployment seed folds into the fleet seed, and
  // the engine sets the reply quorum (RepliesNeeded).
  // Like every builder knob this is a value — Clone() copies it, so sweeps
  // can stamp out per-point workloads from one base recipe.
  Builder& WithWorkload(WorkloadOptions opts);

  // Executes a deterministic KV state machine at the commit boundary on
  // every replica (src/statemachine/). Workload requests become real
  // read/write/RMW operations whose committed results ride the client
  // replies (model-oracle checked), and FaultProfile::recover_at windows
  // get a crash-recovery path: the restarted replica fetches the latest
  // snapshot plus the log suffix from live peers, verifies the digest
  // chain, and rejoins. Requires WithWorkload.
  Builder& WithStateMachine(StateMachineOptions opts = {});

  // Checkpoint every `interval` commits (snapshot + digest + chain head);
  // with `truncate` the snapshotted log prefix is dropped, bounding peak
  // log memory at O(interval). Implies WithStateMachine.
  Builder& WithCheckpointing(uint64_t interval, bool truncate = true);

  // Initial topology override for tree protocols (default: star for
  // HotStuff, random tree for Kauri, SA tree for OptiTree).
  Builder& WithTopology(TreeTopology tree);

  // SA budget for the initial OptiTree search (default ~1 s of search).
  Builder& WithInitialSearch(AnnealingParams params);

  // Wire the full OptiLog loop for tree protocols: on every round failure
  // the harness's suspicions are committed to the measurement bus, the
  // monitors update C/G/K/u, proposals pause for `search_window`, and SA
  // picks the next tree over the surviving candidates.
  Builder& WithOptiLogReconfig(SimTime search_window = 1 * kSec);

  // --- sharding (src/shard/; consumed by BuildSharded) -----------------------
  // Partition the KV keyspace across `shards` independent consensus groups
  // (each a full engine + RsmGroup on its own network) sharing one
  // simulator.
  Builder& WithShards(uint32_t shards);
  // Fraction of transactions that span >= 2 shards (2PC via the home
  // shard's coordinator); the rest take the single-shard fast path.
  Builder& WithCrossShardRatio(double ratio);
  // Transaction fleet configuration: one multi-shard transaction fleet of
  // clients_per_shard clients per shard drives every group in place of
  // per-shard ClientFleets. BuildSharded requires clients_per_shard > 0.
  Builder& WithTxnWorkload(TxnWorkloadOptions opts);
  // Every deployment runs on one simulator thread; only 0 and 1 are valid.
  // Kept so existing callers of the former multi-thread knob still build.
  Builder& WithSimThreads(unsigned threads) {
    OL_CHECK(threads <= 1);
    return *this;
  }

  // A value copy of the builder's configuration so far. Sweeps stamp out
  // per-point deployments from one base recipe:
  //
  //   Builder base = Builder().WithGeo(Europe21()).WithProtocol(...);
  //   auto d = base.Clone().WithSeed(point_seed).Build();
  //
  // Build() consumes nothing, so cloning is optional for serial use — its
  // point is concurrent sweeps, where each grid point must own an
  // independent builder (Build() reads the shared base from many threads
  // only through this copy).
  Builder Clone() const { return *this; }

  std::unique_ptr<Deployment> Build();

  // Builds WithShards groups on one shared simulator, with the KeyRouter,
  // transaction coordinators, and transaction fleet wired (src/shard/).
  // Requires WithTxnWorkload, WithWorkload and WithStateMachine.
  std::unique_ptr<ShardedDeployment> BuildSharded();

 private:
  friend class optilog::ShardedDeployment;

  // Build() with the group's simulator swapped for `external` (the sharded
  // deployment's shared one); nullptr = a standalone deployment with its
  // own. Only a standalone deployment configures its simulator, spawns a
  // client fleet and samples the simulator-wide gauges (pending events, pool
  // hit rate); a shard leaves all three to the sharded owner and extends its
  // latency model by `owner_clients` slots for the owner's coordinators and
  // clients instead.
  std::unique_ptr<Deployment> BuildInternal(Simulator* external,
                                            uint32_t owner_clients);

  std::optional<uint32_t> n_;
  std::optional<uint32_t> f_;
  std::vector<City> cities_;
  Protocol protocol_ = Protocol::kOptiTree;
  std::function<void(Deployment&)> faults_;
  double bandwidth_bps_ = 0.0;
  std::optional<CryptoCostModel> crypto_model_;
  std::optional<uint64_t> seed_;  // unset: each component keeps its default
  TreeRsmOptions tree_opts_;
  PbftOptions pbft_opts_;
  std::optional<WorkloadOptions> workload_;
  std::optional<StateMachineOptions> statemachine_;
  std::optional<TreeTopology> topology_;
  std::optional<AnnealingParams> search_params_;
  bool trace_ = false;
  SimTime gauge_interval_ = 0;  // 0 = no gauge sampling
  bool optilog_reconfig_ = false;
  SimTime search_window_ = 0;
  uint32_t shards_ = 1;
  double cross_shard_ratio_ = 0.0;
  TxnWorkloadOptions txn_workload_;
};

}  // namespace optilog
