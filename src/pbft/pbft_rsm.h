// Message-level simulation of the weighted-PBFT family (§5, §7.1):
//
//   kPbft      — BFT-SMaRt baseline: fixed leader, uniform weights, static.
//   kAware     — adds probe-based latency measurement and the scheduled
//                (leader, Vmax) optimization at `optimize_at`, but no
//                misbehavior/suspicion handling — so a Pre-Prepare delay
//                attack keeps it degraded.
//   kOptiAware — Aware + the OptiLog pipeline: per-replica suspicion
//                sensors with TR1-TR3 timeouts; committed suspicions feed
//                the (deterministic, hence shared-in-simulation) monitors;
//                when the candidate set excludes the leader, the config
//                monitor waits for f + 1 search proposals and reconfigures.
//
// Clients: the deployment's fleet and request queue, through the shared
// client edge (src/workload/). Requests reach the leader, which proposes
// whenever no instance is open; every replica replies at its commit, and a
// client stamps end-to-end latency on the f + 1-th matching reply — the
// metric Fig. 7 plots over time. A deployment given no workload runs
// PbftDefaultWorkload: one closed-loop client per replica, colocated in the
// replica's city (client id = n + replica id).
//
// OptiLog integration: the harness owns a shared Log and one Pipeline
// instance — the monitor side is deterministic (Table 1), so the per-replica
// monitor copies are identical and computed once (see DESIGN.md). Sensors
// stay per-replica: each PbftReplica carries its own SuspicionSensor whose
// emissions are signed, appended to the log as measurement entries, and
// dispatched to the monitors at the commit boundary.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "src/api/consensus_engine.h"
#include "src/aware/aware_score.h"
#include "src/core/pipeline.h"
#include "src/core/suspicion_sensor.h"
#include "src/net/network.h"
#include "src/pbft/messages.h"
#include "src/rsm/log.h"
#include "src/rsm/metrics.h"
#include "src/statemachine/group.h"
#include "src/util/dense_set.h"
#include "src/workload/workload.h"

namespace optilog {

enum class PbftMode { kPbft, kAware, kOptiAware };

struct PbftOptions {
  uint32_t n = 0;
  uint32_t f = 0;
  PbftMode mode = PbftMode::kPbft;
  double delta = 1.2;                  // suspicion timing slack
  SimTime optimize_at = 40 * kSec;     // Aware's scheduled optimization
  uint64_t seed = 7;
};

// The client fleet of a PBFT-family deployment given no workload: `n`
// closed-loop clients, one outstanding request each, 50 ms think time,
// seeded with `seed` as given, and a leader that drains its whole queue into
// each batch (the BFT-SMaRt behavior).
WorkloadOptions PbftDefaultWorkload(uint32_t n, uint64_t seed);

class PbftHarness;

class PbftReplica : public Actor {
 public:
  PbftReplica(ReplicaId id, PbftHarness* harness) : id_(id), harness_(harness) {}

  void OnMessage(ReplicaId from, const MessagePtr& msg, SimTime at) override;

 private:
  friend class PbftHarness;

  // Write and Accept weight voted for one batch digest.
  struct Tally {
    Digest digest{};
    double write_weight = 0.0;
    double accept_weight = 0.0;
  };

  struct Instance {
    uint64_t seq = 0;
    SimTime proposal_ts = 0;
    SimTime preprepared_at = 0;     // when the Pre-Prepare landed here
    ReplicaId leader = kNoReplica;  // the proposer named in the Pre-Prepare
    // The Pre-Prepare's batch record (PrePrepareMsg::Record), shared with
    // every replica that accepted the same message; null until it lands.
    BatchRecordPtr record;
    // Senders counted, one vote each per phase, whichever digest it carried.
    DenseIdSet writes;
    DenseIdSet accepts;
    // Until the Pre-Prepare lands, one tally per digest voted for; from then
    // on only tallies[0], the Pre-Prepare's.
    std::vector<Tally> tallies;
    bool accepted = false;
    bool committed = false;
  };

  // Instances live in kWindow slots, seq % kWindow, allocated on the
  // replica's first PBFT message (see DESIGN.md, "The PBFT instance window").
  static constexpr uint64_t kWindow = 64;

  void HandlePrePrepare(ReplicaId from, const PrePrepareMsg& msg, SimTime at);
  void HandlePhase(ReplicaId from, const PhaseMsg& msg, SimTime at);
  // The slot holding `seq`, re-initialized if it held an older instance that
  // is not pending; nullptr (the message is dropped and counted) otherwise.
  Instance* Slot(uint64_t seq, bool preprepare, SimTime at);
  // Holds its Pre-Prepare, has not committed, and this replica has not
  // crashed since the Pre-Prepare landed (a restarted replica is amnesiac).
  bool Pending(const Instance& inst, SimTime now) const;
  void MaybeAdvance(Instance& inst);
  void Commit(Instance& inst);

  const ReplicaId id_;
  PbftHarness* harness_;
  std::vector<Instance> window_;
  std::unique_ptr<SuspicionSensor> sensor_;  // OptiAware only
};

class PbftHarness : public ConsensusEngine, public TimerTarget {
 public:
  PbftHarness(Simulator* sim, Network* net, const KeyStore* keys, PbftOptions opts);

  // --- ConsensusEngine -------------------------------------------------------
  void Start() override;
  void SetTopologyOrConfig(const RoleConfig& config) override;
  RoleConfig ActiveConfig() const override { return config_; }
  MetricsReport Metrics() const override;
  ReplicaId Leader() const override { return config_.leader; }
  uint32_t RepliesNeeded() const override { return opts_.f + 1; }
  // Required: every proposal drains the queue.
  void BindRequestQueue(RequestQueue* queue) override { queue_ = queue; }
  // Every replica executes committed instances in sequence order.
  void BindStateMachine(RsmGroup* group) override { group_ = group; }

  // Typed harness timers: the periodic probe round and Aware's scheduled
  // optimization.
  void OnTimer(uint64_t tag, SimTime at) override;

  const RoleConfig& config() const { return config_; }
  const WeightScheme& scheme() const { return space_.scheme(); }
  const PbftOptions& options() const { return opts_; }
  Simulator* sim() { return sim_; }

  uint64_t committed_instances() const { return committed_instances_; }
  const std::vector<SimTime>& reconfigure_times() const { return reconfig_times_; }
  const std::vector<SimTime>& suspicion_times() const { return suspicion_times_; }
  const LatencyMatrix& matrix() const { return pipeline_->latency_monitor().matrix(); }
  const Pipeline& pipeline() const { return *pipeline_; }
  const Log& log() const { return log_; }

  // The TR1-TR3 deadline table the OptiAware sensors check arrivals against.
  // It depends only on the active config, the committed matrix and u — the
  // shared deterministic monitor state — so one table serves every replica.
  // Rebuilt here when one of the three has changed since the last call.
  const AwareTimeouts& aware_timeouts();
  // The TR2 deadline of every Write and Accept under aware_timeouts(),
  // rebuilt with it. Only OptiAware's sensors read either, so no other
  // harness builds them.
  const AwareVoteDeadlines& vote_deadlines() {
    aware_timeouts();
    return vote_deadlines_;
  }

  // Messages the replicas' instance windows dropped: `stale` for a seq older
  // than the one its slot holds, `busy` for a newer seq while the slot's
  // instance is still pending. Test hooks, not report fields.
  uint64_t stale_drops() const { return stale_drops_; }
  uint64_t busy_drops() const { return busy_drops_; }
  // Replica r's window: its slot count (0 before its first PBFT message),
  // and its state for `seq`, or nullopt when no slot holds `seq`.
  size_t window_slots(ReplicaId r) const { return replicas_[r]->window_.size(); }
  struct InstanceState {
    bool preprepared = false;
    bool accepted = false;
    bool committed = false;
  };
  std::optional<InstanceState> instance_state(ReplicaId r, uint64_t seq) const;

 private:
  friend class PbftReplica;

  static constexpr uint64_t kTimerProbeRound = 1;
  static constexpr uint64_t kTimerAwareOptimize = 2;

  void ProposeNext(SimTime now);
  // The leader's commit of `seq`, whose Pre-Prepare was stamped
  // `proposed_at`: the instance latency Metrics() reports.
  void OnCommitAtLeader(uint64_t seq, uint32_t batch_size, SimTime proposed_at);
  void RunProbeRound();
  void RunAwareOptimization();
  // Commit-order measurement bus: sensor emissions are signed, appended to
  // the shared log, and dispatched to the pipeline's deterministic monitors
  // at the commit boundary (see DESIGN.md).
  void CommitMeasurement(const Measurement& m);
  void OnLogCommit(const LogEntry& entry);
  void OnReconfigure(const RoleConfig& config, double score);
  void MaybeReactToSuspicions();
  // Records config_.leader in leaders_ as the leader of the seqs from
  // next_seq_ on.
  void RecordLeader();
  // The leader whose configuration numbered `seq`: the one sender whose
  // Pre-Prepare for it counts.
  ReplicaId LeaderOf(uint64_t seq) const;

  Simulator* sim_;
  Network* net_;
  const KeyStore* keys_;
  PbftOptions opts_;
  Rng rng_;

  AwareConfigSpace space_;
  RoleConfig config_;
  std::vector<std::unique_ptr<PbftReplica>> replicas_;
  std::vector<ReplicaId> replica_ids_;  // 0..n-1: every multicast's recipients

  // aware_timeouts(), vote_deadlines() and the inputs they were built from.
  AwareTimeouts timeouts_;
  AwareVoteDeadlines vote_deadlines_;
  bool timeouts_config_stale_ = true;
  uint64_t timeouts_matrix_version_ = 0;
  uint32_t timeouts_u_ = 0;
  // The deployment's request queue (BindRequestQueue); only the
  // propose-on-idle trigger below is PBFT's own.
  RequestQueue* queue_ = nullptr;
  // Deployment-owned state-machine layer (BindStateMachine); nullptr for
  // message-counting-only runs.
  RsmGroup* group_ = nullptr;

  Log log_;
  std::unique_ptr<Pipeline> pipeline_;

  uint64_t next_seq_ = 0;
  // (first seq, leader) per leader change, oldest first; the last entry is
  // the active leader's, from the next seq it numbers on.
  std::vector<std::pair<uint64_t, ReplicaId>> leaders_;
  bool instance_open_ = false;
  bool started_ = false;
  uint64_t committed_instances_ = 0;
  ThroughputRecorder throughput_;
  RunningStat latency_stat_;  // proposal -> commit at the leader, ms
  std::vector<SimTime> reconfig_times_;
  std::vector<SimTime> suspicion_times_;
  std::set<uint64_t> suspicion_rounds_;
  bool searched_after_invalid_ = false;
  uint64_t stale_drops_ = 0;
  uint64_t busy_drops_ = 0;
};

}  // namespace optilog
