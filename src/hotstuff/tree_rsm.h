// Message-level simulation of the chained HotStuff family over an arbitrary
// dissemination tree (§6, §7.3):
//
//   - star of depth 1  -> HotStuff (fixed or round-robin leader)
//   - height-3 tree    -> Kauri / OptiTree
//
// Round flow: the root timestamps and disseminates a proposal down the tree;
// leaves vote to their parent; intermediates aggregate (b + 1 votes or
// suspicions, §6.3) and forward to the root; the root commits when it holds
// k votes (k = q for the baselines, q restricted by u for OptiTree) and
// starts the next round. Pipelining keeps `pipeline_depth` rounds in flight
// (§6.1.1). A round that misses its timeout fails the configuration; the
// harness then asks its reconfiguration policy for the next tree.
//
// Clients: with a request queue bound, requests reach the root through the
// shared client edge (src/workload/), the root batches them under the
// queue's size and deadline triggers and replies to each at its commit;
// without a queue the harness self-drives full blocks.
//
// OptiLog integration: suspicions come from the aggregation rule (an
// intermediate suspects every child missing from its aggregate, §6.3) and
// from the root's round timeout. The harness only records them
// (logged_suspicions); under WithOptiLogReconfig the deployment signs them,
// commits them through its log to the pipeline's monitors and asks the
// reconfiguration policy for the next tree (see DESIGN.md).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>

#include "src/api/consensus_engine.h"
#include "src/core/pipeline.h"
#include "src/hotstuff/messages.h"
#include "src/net/network.h"
#include "src/rsm/metrics.h"
#include "src/statemachine/group.h"
#include "src/tree/topology.h"
#include "src/tree/tree_score.h"
#include "src/util/dense_set.h"
#include "src/workload/request_queue.h"

namespace optilog {

// How vote authentication is priced when a CryptoCostModel is attached
// (cost-only — the message flow is identical either way):
//   kPerVote:     Ed25519-style, every vote in an aggregate verified
//                 individually (k * verify_ns at the root).
//   kAggregateQc: BLS-style, intermediates fold shares cheaply and the root
//                 verifies one aggregate (qc_verify_base_ns + k * signer).
// The crossover between the two is the qc_crossover scenario's pin.
enum class VoteVerification { kPerVote, kAggregateQc };

struct TreeRsmOptions {
  uint32_t n = 0;
  uint32_t f = 0;
  // Commands per block when the harness self-drives (no request queue bound;
  // models §7.3's fixed client population saturating every block).
  uint32_t batch_size = 1000;
  size_t cmd_bytes = 100;      // proposals "without transaction payload"
  uint32_t pipeline_depth = 1; // concurrent instances (3 with pipelining)
  double delta = 1.0;          // timing slack multiplier
  // Votes required to commit: 0 -> q = n - f. OptiTree's tree searches score
  // at this threshold (+u when reconfiguring).
  uint32_t votes_required = 0;
  // Round-robin leader rotation (HotStuff-rr baseline). Only meaningful for
  // star topologies.
  bool rotate_root = false;
  // Vote-authentication pricing under a CryptoCostModel; ignored without
  // one. Aggregate certificates are the family's default (Kauri/HotStuff).
  VoteVerification vote_verification = VoteVerification::kAggregateQc;
};

class TreeRsm;

// A replica in the tree protocol. Honest behavior only; Byzantine timing
// behavior is injected by the network fault model, crash faults by the
// harness.
class TreeReplica : public Actor {
 public:
  TreeReplica(ReplicaId id, TreeRsm* harness) : id_(id), harness_(harness) {}

  void OnMessage(ReplicaId from, const MessagePtr& msg, SimTime at) override;

  // Aggregation deadline for the view carried in `tag` (Lagg, Lemma 6).
  void OnTimer(uint64_t tag, SimTime at) override;

  ReplicaId id() const { return id_; }

 private:
  friend class TreeRsm;

  void HandlePropose(ReplicaId from, const ProposeMsg& msg, SimTime at);
  void HandleVote(ReplicaId from, const VoteMsg& msg);
  void HandleAggregate(ReplicaId from, const AggregateMsg& msg);

  struct PendingAggregation {
    Digest block{};
    DenseIdSet votes;
    EventId timer = kNoEvent;
  };

  void MaybeSendAggregate(uint64_t view);

  const ReplicaId id_;
  TreeRsm* harness_;
  // Views this replica is aggregating and has not yet sent upward.
  std::map<uint64_t, PendingAggregation> aggregating_;
};

class TreeRsm : public ConsensusEngine, public TimerTarget {
 public:
  // Reconfiguration policy: returns the next tree after a failure, or
  // nullopt to keep the current one (e.g. star fallback already active).
  using ReconfigPolicy = std::function<std::optional<TreeTopology>(TreeRsm&)>;

  TreeRsm(Simulator* sim, Network* net, const LatencyMatrix* latency, TreeRsmOptions opts);

  // --- ConsensusEngine -------------------------------------------------------
  void Start() override;
  // Pre-start: installs the initial tree. Mid-run: a forced reconfiguration —
  // in-flight rounds on the old tree are abandoned and the change is counted.
  void SetTopologyOrConfig(const RoleConfig& config) override;
  RoleConfig ActiveConfig() const override { return tree_.ToConfig(); }
  MetricsReport Metrics() const override;
  ReplicaId Leader() const override { return tree_.root(); }
  uint32_t RepliesNeeded() const override { return 1; }
  void BindRequestQueue(RequestQueue* queue) override { queue_ = queue; }
  void BindStateMachine(RsmGroup* group) override { group_ = group; }

  void SetTopology(const TreeTopology& tree);
  void SetReconfigPolicy(ReconfigPolicy policy) { reconfig_ = std::move(policy); }

  // A recovered replica reached the live frontier: drop its exclusion and,
  // if it fell out of the active tree, let the reconfiguration policy
  // re-bind it.
  void OnReplicaRecovered(ReplicaId id);

  // Replicas the candidate machinery considers unresponsive (crashed set C
  // plus non-candidates): intermediates stop waiting for their votes and
  // suspect them silently — the protocol-level effect of OptiLog's u
  // estimate (§6.2).
  void SetExcluded(std::set<ReplicaId> excluded) {
    excluded_ = std::move(excluded);
    InvalidateDeadlines();
  }
  const std::set<ReplicaId>& excluded() const { return excluded_; }

  // Pauses proposals for `duration` (models the search window of Fig. 15).
  void PauseProposals(SimTime duration);

  const TreeTopology& topology() const { return tree_; }
  const TreeRsmOptions& options() const { return opts_; }
  Simulator* sim() { return sim_; }
  Network* net() { return net_; }

  const ThroughputRecorder& throughput() const { return throughput_; }
  // Proposal -> commit latency of every committed round, in ms.
  const RunningStat& latency_stat() const { return latency_stat_; }
  uint64_t committed_blocks() const { return committed_blocks_; }
  uint64_t failed_rounds() const { return failed_rounds_; }
  uint64_t reconfigurations() const { return reconfigurations_; }
  const std::vector<SimTime>& reconfig_times() const { return reconfig_times_; }
  const std::vector<SuspicionRecord>& logged_suspicions() const {
    return suspicions_;
  }

  // Votes needed to commit a block: fixed per engine.
  uint32_t CommitThreshold() const;

  // Views replica `id` is still aggregating: bounded by the views in
  // flight, not by the length of the run.
  size_t PendingAggregations(ReplicaId id) const {
    return replicas_[id]->aggregating_.size();
  }

  // Typed timers: the tag is the view of a round-failure timer, or
  // kTimerResumeProposals for the end of a PauseProposals window.
  void OnTimer(uint64_t tag, SimTime at) override;

 private:
  friend class TreeReplica;

  // Round-failure tags are views, which count up from 0; the reserved tags
  // count down from ~0 and can never collide.
  static constexpr uint64_t kTimerResumeProposals = ~0ull;
  static constexpr uint64_t kTimerBatchDeadline = ~0ull - 1;

  struct Round {
    Digest block{};
    SimTime proposed_at = 0;
    ReplicaId proposer = kNoReplica;  // the root that proposed this view
    DenseIdSet votes;
    std::vector<RequestRef> batch;  // the queue's requests on board
    bool committed = false;
    bool failed = false;
    EventId timeout = kNoEvent;
  };

  void StartRound();
  void InstallTree(const TreeTopology& tree);
  void AbandonInFlightRounds();
  void RefillPipeline();
  // Batcher entry point (queue bound): proposes while the size trigger
  // (queue >= max_batch) holds — or once, immediately, when the deadline
  // fired — then (re)arms the deadline timer for the oldest waiting request.
  void PumpWorkload(bool deadline_fired);
  // Pipeline pacing: the earliest instant a deadline-triggered start may
  // take the pipeline's last free slot, the last start + D / pipeline_depth
  // with D = round_time_; 0 (no hold) with two or more slots free, a
  // depth-1 pipeline, or no round committed on this tree yet.
  SimTime PacingNotBefore() const;
  void ReturnBatchToQueue(Round& round);
  // Counts the `voters` that are the root's child `from` or its children.
  void OnRootVotes(ReplicaId from, uint64_t view, Digest block,
                   std::span<const ReplicaId> voters);
  void CommitRound(uint64_t view);
  void OnRoundTimeout(uint64_t view);
  void RecordSuspicion(const SuspicionRecord& rec);

  // The root's round-failure timeout, delta * d_rnd plus slack (d_rnd =
  // TreeScore at CommitThreshold()), and an intermediate's aggregation
  // timeout, delta * Lagg over its children not excluded plus slack. Both
  // are cached until the tree, the exclusion set or the matrix version
  // changes.
  SimTime RoundTimeout();
  SimTime AggregationDeadline(ReplicaId intermediate);
  void InvalidateDeadlines();
  void SyncDeadlines();

  Simulator* sim_;
  Network* net_;
  const LatencyMatrix* latency_;
  TreeRsmOptions opts_;
  TreeTopology tree_;
  ReconfigPolicy reconfig_;

  std::vector<std::unique_ptr<TreeReplica>> replicas_;
  std::set<ReplicaId> excluded_;

  // Deadline caches (RoundTimeout, AggregationDeadline), derived for matrix
  // version deadlines_version_; kNoDeadline = not derived yet.
  static constexpr SimTime kNoDeadline = -1;
  uint64_t deadlines_version_ = 0;
  SimTime round_timeout_ = kNoDeadline;
  std::vector<SimTime> aggregation_deadlines_;  // by replica id

  std::map<uint64_t, Round> rounds_;
  uint64_t next_view_ = 0;
  uint32_t in_flight_ = 0;
  bool paused_ = false;
  bool started_ = false;

  // The deployment's request queue (BindRequestQueue); nullptr when the
  // harness self-drives.
  RequestQueue* queue_ = nullptr;
  // Deployment-owned state-machine layer (BindStateMachine); nullptr for
  // message-counting-only runs.
  RsmGroup* group_ = nullptr;
  EventId batch_timer_ = kNoEvent;
  SimTime batch_timer_due_ = 0;
  // D for PacingNotBefore: the proposal-to-commit time of the last round
  // committed on this tree (0 = none yet; SetTopology forgets it).
  SimTime round_time_ = 0;

  ThroughputRecorder throughput_;
  RunningStat latency_stat_;  // proposal -> commit, ms
  uint64_t committed_blocks_ = 0;
  uint64_t failed_rounds_ = 0;
  uint64_t reconfigurations_ = 0;
  std::vector<SimTime> reconfig_times_;
  std::vector<SuspicionRecord> suspicions_;
  std::vector<SimTime> suspicion_times_;  // parallel to suspicions_
};

}  // namespace optilog
