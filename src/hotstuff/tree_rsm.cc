#include "src/hotstuff/tree_rsm.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/workload/workload.h"

namespace optilog {
namespace {

Digest BlockDigest(uint64_t view) {
  Bytes seed;
  ByteWriter w(&seed);
  w.U64(view);
  w.Str("block");
  return Sha256::Hash(seed);
}

}  // namespace

// --- TreeReplica -------------------------------------------------------------

void TreeReplica::OnMessage(ReplicaId from, const MessagePtr& msg, SimTime at) {
  switch (msg->type()) {
    case kMsgPropose:
    case kMsgForward:
      HandlePropose(from, static_cast<const ProposeMsg&>(*msg), at);
      break;
    case kMsgVote:
      HandleVote(from, static_cast<const VoteMsg&>(*msg));
      break;
    case kMsgAggregate:
      HandleAggregate(from, static_cast<const AggregateMsg&>(*msg));
      break;
    case kMsgClientRequest:
      // A self-driven run has no client path.
      if (harness_->queue_ != nullptr &&
          AdmitRequest(*harness_->net_, *harness_->queue_, id_,
                       harness_->tree_.root(), msg)) {
        harness_->PumpWorkload(false);
      }
      break;
    case kMsgStateFetch:
    case kMsgStateChunk:
    case kMsgLogSuffixFetch:
    case kMsgLogSuffixChunk:
      if (harness_->group_ != nullptr) {
        harness_->group_->OnStateMessage(id_, from, msg, at);
      }
      break;
    default:
      break;
  }
}

void TreeReplica::HandlePropose(ReplicaId from, const ProposeMsg& msg, SimTime at) {
  (void)from;
  const TreeTopology& tree = harness_->tree_;
  if (!tree.Contains(id_) || tree.IsRoot(id_)) {
    return;
  }
  if (CpuMeter* cpu = harness_->net_->cpu()) {
    // Receiving a proposal: hash the batch against the block digest and
    // verify the proposer's signature before acting on it.
    cpu->ChargeHash(id_, at, msg.WireSize());
    cpu->ChargeVerify(id_, at);
  }
  const std::vector<ReplicaId>& children = tree.ChildrenOf(id_);
  if (children.empty()) {
    // Leaf: vote straight to the parent. The signature is modeled: the
    // signer id and zero bytes on the wire, its CPU charged here.
    auto vote = harness_->sim_->pool().Make<VoteMsg>();
    vote->view = msg.view;
    vote->block = msg.block;
    vote->sig.signer = id_;
    if (CpuMeter* cpu = harness_->net_->cpu()) {
      cpu->ChargeSign(id_, at);
    }
    harness_->net_->Send(id_, tree.ParentOf(id_), std::move(vote));
    return;
  }
  // Intermediate: forward down in one multicast, start aggregating with own
  // vote, and arm the aggregation timer.
  auto fwd = harness_->sim_->pool().Make<ProposeMsg>(msg);
  fwd->forwarded = true;
  harness_->net_->Multicast(id_, children, std::move(fwd));
  PendingAggregation& agg = aggregating_[msg.view];
  agg.block = msg.block;
  agg.votes.Insert(id_);
  agg.timer = harness_->sim_->ScheduleTimer(this, msg.view,
                                            harness_->AggregationDeadline(id_));
}

void TreeReplica::OnTimer(uint64_t tag, SimTime at) {
  (void)at;
  MaybeSendAggregate(tag);
}

void TreeReplica::HandleVote(ReplicaId from, const VoteMsg& msg) {
  const TreeTopology& tree = harness_->tree_;
  if (CpuMeter* cpu = harness_->net_->cpu()) {
    // One incoming vote share: verified individually under per-vote
    // pricing, folded into the forming aggregate under aggregate-QC.
    if (harness_->opts_.vote_verification == VoteVerification::kPerVote) {
      cpu->ChargeVerify(id_, harness_->sim_->now());
    } else {
      cpu->ChargeQcAggregate(id_, harness_->sim_->now(), 1);
    }
  }
  if (tree.IsRoot(id_)) {
    if (tree.ParentOf(from) == id_) {
      harness_->OnRootVotes(from, msg.view, msg.block, {&from, 1});
    }
    return;
  }
  // Only this replica's children vote into its aggregate, and only for the
  // block it is aggregating.
  auto it = aggregating_.find(msg.view);
  if (it == aggregating_.end() || tree.ParentOf(from) != id_ ||
      msg.block != it->second.block) {
    return;
  }
  it->second.votes.Insert(from);
  // All responsive children + self accounted for: aggregate early. The
  // no-exclusions case (every fault-free run) must not rescan the child
  // list on every vote — at scale that is quadratic in fan-out per round.
  size_t expected = 1 + tree.ChildrenOf(id_).size();
  if (!harness_->excluded_.empty()) {
    expected = 1;
    for (ReplicaId child : tree.ChildrenOf(id_)) {
      if (harness_->excluded_.count(child) == 0) {
        ++expected;
      }
    }
  }
  if (it->second.votes.size() >= expected) {
    MaybeSendAggregate(msg.view);
  }
}

// Reached from the all-votes-in path and from the Lagg timer, whichever
// comes first. The view's entry is erased once its aggregate is out: late
// votes and a cancelled timer then find nothing, so a replica holds state
// only for views still in flight.
void TreeReplica::MaybeSendAggregate(uint64_t view) {
  auto it = aggregating_.find(view);
  if (it == aggregating_.end()) {
    return;
  }
  const PendingAggregation agg = std::move(it->second);
  aggregating_.erase(it);
  harness_->sim_->Cancel(agg.timer);

  const TreeTopology& tree = harness_->tree_;
  auto msg = harness_->sim_->pool().Make<AggregateMsg>();
  msg->view = view;
  msg->block = agg.block;
  msg->voters.reserve(agg.votes.size());
  agg.votes.AppendTo(msg->voters);
  // §6.3 rule: the aggregate must cover b + 1 votes or suspicions; missing
  // children are suspected explicitly. Already-excluded children are known
  // unresponsive; re-suspecting them every round adds nothing.
  for (ReplicaId child : tree.ChildrenOf(id_)) {
    if (harness_->excluded_.count(child) > 0) {
      continue;
    }
    if (!agg.votes.Contains(child)) {
      SuspicionRecord rec;
      rec.type = SuspicionType::kSlow;
      rec.suspector = id_;
      rec.suspect = child;
      rec.round = view;
      rec.phase = PhaseTag::kFirstVote;
      msg->missing.push_back(rec);
      harness_->RecordSuspicion(rec);
    }
  }
  if (CpuMeter* cpu = harness_->net_->cpu()) {
    cpu->ChargeSign(id_, harness_->sim_->now());  // sign the aggregate
  }
  harness_->net_->Send(id_, tree.ParentOf(id_), std::move(msg));
}

void TreeReplica::HandleAggregate(ReplicaId from, const AggregateMsg& msg) {
  const TreeTopology& tree = harness_->tree_;
  if (!tree.IsRoot(id_)) {
    return;
  }
  if (CpuMeter* cpu = harness_->net_->cpu()) {
    // The cost asymmetry the qc_crossover scenario pins: k individual
    // verifications vs one aggregate verification with a per-signer tail.
    if (harness_->opts_.vote_verification == VoteVerification::kPerVote) {
      cpu->ChargeVerify(id_, harness_->sim_->now(), msg.voters.size());
    } else {
      cpu->ChargeQcVerify(id_, harness_->sim_->now(), msg.voters.size());
    }
  }
  // An aggregate counts only from the root's own child, and speaks only for
  // that child's subtree: its votes and its suspicions of its own children.
  if (tree.ParentOf(from) != id_) {
    return;
  }
  harness_->OnRootVotes(from, msg.view, msg.block, msg.voters);
  for (const SuspicionRecord& rec : msg.missing) {
    if (rec.suspector == from && tree.ParentOf(rec.suspect) == from) {
      harness_->RecordSuspicion(rec);
    }
  }
}

// --- TreeRsm -----------------------------------------------------------------

TreeRsm::TreeRsm(Simulator* sim, Network* net, const LatencyMatrix* latency,
                 TreeRsmOptions opts)
    : sim_(sim), net_(net), latency_(latency), opts_(opts) {
  OL_CHECK(opts_.n >= 4);
  replicas_.reserve(opts_.n);
  for (ReplicaId id = 0; id < opts_.n; ++id) {
    replicas_.push_back(std::make_unique<TreeReplica>(id, this));
    net_->Register(id, replicas_.back().get());
  }
  InvalidateDeadlines();
}

void TreeRsm::SetTopology(const TreeTopology& tree) {
  tree_ = tree;
  round_time_ = 0;  // a new tree is not paced until it commits a round
  InvalidateDeadlines();
  for (auto& replica : replicas_) {
    replica->aggregating_.clear();
  }
}

uint32_t TreeRsm::CommitThreshold() const {
  return opts_.votes_required != 0 ? opts_.votes_required : opts_.n - opts_.f;
}

void TreeRsm::InvalidateDeadlines() {
  round_timeout_ = kNoDeadline;
  aggregation_deadlines_.assign(opts_.n, kNoDeadline);
}

// A new matrix version invalidates every cached deadline; the tree and the
// exclusion set invalidate them where they change.
void TreeRsm::SyncDeadlines() {
  if (deadlines_version_ != latency_->version()) {
    deadlines_version_ = latency_->version();
    InvalidateDeadlines();
  }
}

// Extra slack on intermediates' aggregation timers beyond delta * Lagg. The
// latency matrix records pure propagation, but real rounds also pay
// serialization; without slack the slowest child's vote always misses the
// aggregate by a hair.
constexpr SimTime kAggregationSlack = 50 * kMsec;

SimTime TreeRsm::AggregationDeadline(ReplicaId intermediate) {
  SyncDeadlines();
  SimTime& deadline = aggregation_deadlines_[intermediate];
  if (deadline == kNoDeadline) {
    // Lagg (Lemma 6) over the children expected to respond, scaled by delta.
    double lagg_ms = 0.0;
    for (ReplicaId child : tree_.ChildrenOf(intermediate)) {
      if (excluded_.count(child) == 0) {
        lagg_ms = std::max(lagg_ms, latency_->Rtt(intermediate, child));
      }
    }
    deadline = static_cast<SimTime>(opts_.delta * static_cast<double>(FromMs(lagg_ms))) +
               kAggregationSlack;
  }
  return deadline;
}

// Extra slack on the root's round-failure timer, beyond delta * d_rnd.
constexpr SimTime kRoundTimeoutSlack = 200 * kMsec;

SimTime TreeRsm::RoundTimeout() {
  SyncDeadlines();
  if (round_timeout_ == kNoDeadline) {
    const double d_rnd_ms = TreeScore(tree_, *latency_, CommitThreshold());
    round_timeout_ =
        std::isfinite(d_rnd_ms)
            ? static_cast<SimTime>(opts_.delta * static_cast<double>(FromMs(d_rnd_ms))) +
                  kRoundTimeoutSlack
            : 2 * kSec + kRoundTimeoutSlack;
  }
  return round_timeout_;
}

void TreeRsm::SetTopologyOrConfig(const RoleConfig& config) {
  if (!started_) {
    SetTopology(TreeTopology::FromConfig(config));  // initial installation
    return;
  }
  InstallTree(TreeTopology::FromConfig(config));  // forced mid-run
  RefillPipeline();
}

// A mid-run reconfiguration, whichever path asked for it: count it, install
// the tree, and abandon rounds still waiting on the old tree's parents.
void TreeRsm::InstallTree(const TreeTopology& tree) {
  ++reconfigurations_;
  reconfig_times_.push_back(sim_->now());
  SetTopology(tree);
  AbandonInFlightRounds();
}

MetricsReport TreeRsm::Metrics() const {
  MetricsReport report;
  report.committed = committed_blocks_;
  report.total_commands = throughput_.total();
  report.failed_rounds = failed_rounds_;
  report.reconfigurations = reconfigurations_;
  report.suspicions = suspicions_.size();
  report.mean_latency_ms = latency_stat_.mean();
  report.throughput_per_sec = throughput_.per_second();
  report.reconfig_times = reconfig_times_;
  report.suspicion_times = suspicion_times_;
  return report;
}

void TreeRsm::Start() {
  started_ = true;
  if (queue_ != nullptr) {
    return;  // rounds start when requests arrive
  }
  for (uint32_t i = 0; i < opts_.pipeline_depth; ++i) {
    StartRound();
  }
}

void TreeRsm::PauseProposals(SimTime duration) {
  paused_ = true;
  sim_->ScheduleTimer(this, kTimerResumeProposals, duration);
}

void TreeRsm::OnTimer(uint64_t tag, SimTime at) {
  (void)at;
  if (tag == kTimerResumeProposals) {
    paused_ = false;
    RefillPipeline();
    return;
  }
  if (tag == kTimerBatchDeadline) {
    batch_timer_ = kNoEvent;
    PumpWorkload(true);
    return;
  }
  OnRoundTimeout(tag);
}

void TreeRsm::StartRound() {
  if (!started_ || paused_ || in_flight_ >= opts_.pipeline_depth) {
    return;
  }
  std::vector<RequestRef> batch;
  if (queue_ != nullptr) {
    batch = queue_->PopBatch(sim_->now(),
                             queue_->depth() >= queue_->policy().max_batch
                                 ? BatchTrigger::kSize
                                 : BatchTrigger::kDeadline);
    if (batch.empty()) {
      return;  // a queue-fed run never proposes empty blocks
    }
  }
  const uint64_t view = next_view_++;
  if (opts_.rotate_root) {
    // HotStuff-rr: star re-rooted every view.
    std::vector<ReplicaId> leaves;
    for (ReplicaId id = 0; id < opts_.n; ++id) {
      if (id != view % opts_.n) {
        leaves.push_back(id);
      }
    }
    tree_ = TreeTopology::Build({static_cast<ReplicaId>(view % opts_.n)}, leaves);
    InvalidateDeadlines();
  }
  ++in_flight_;

  Round& round = rounds_[view];
  round.block = BlockDigest(view);
  round.proposed_at = sim_->now();
  round.proposer = tree_.root();
  round.batch = std::move(batch);
  round.votes.Insert(tree_.root());  // the root's own vote is free
  TraceBatch(*sim_, tree_.root(), view, round.batch);

  auto propose = sim_->pool().Make<ProposeMsg>();
  propose->view = view;
  propose->block = round.block;
  propose->timestamp = sim_->now();
  propose->batch_size = queue_ != nullptr
                            ? static_cast<uint32_t>(round.batch.size())
                            : opts_.batch_size;
  propose->cmd_bytes = opts_.cmd_bytes;
  if (CpuMeter* cpu = net_->cpu()) {
    // Proposing: hash the batch into the block digest, sign the proposal.
    cpu->ChargeHash(tree_.root(), sim_->now(), propose->WireSize());
    cpu->ChargeSign(tree_.root(), sim_->now());
  }
  net_->Multicast(tree_.root(), tree_.ChildrenOf(tree_.root()), std::move(propose));

  round.timeout = sim_->ScheduleTimer(this, view, RoundTimeout());
}

void TreeRsm::OnRootVotes(ReplicaId from, uint64_t view, Digest block,
                          std::span<const ReplicaId> voters) {
  auto it = rounds_.find(view);
  if (it == rounds_.end() || it->second.committed || it->second.failed) {
    return;
  }
  Round& round = it->second;
  if (block != round.block) {
    return;
  }
  // Voter ids come off the wire. Only the sender's and its children's count,
  // so DenseIdSet, which grows to fit any id it is given, stays group-sized.
  for (ReplicaId v : voters) {
    if (v == from || tree_.ParentOf(v) == from) {
      round.votes.Insert(v);
    }
  }
  if (round.votes.size() >= CommitThreshold()) {
    CommitRound(view);
  }
}

void TreeRsm::CommitRound(uint64_t view) {
  Round& round = rounds_[view];
  round.committed = true;
  sim_->Cancel(round.timeout);
  ++committed_blocks_;
  round_time_ = sim_->now() - round.proposed_at;
  latency_stat_.Add(ToMs(sim_->now() - round.proposed_at));
  if (queue_ != nullptr) {
    // Commit boundary: every live replica executes the batch on its state
    // machine, and the proposing root replies to every request on board
    // with the committed result, as the first replica at this index applies
    // it — the stamp the client's end-to-end latency (and its model oracle)
    // measures against. (Under rotate_root
    // the current tree_.root() is already a later view's root; the batch
    // lives at this round's proposer.)
    throughput_.RecordCommit(sim_->now(),
                             static_cast<uint32_t>(round.batch.size()));
    auto reply_to = [this, view, proposer = round.proposer](
                        const RequestRef& req, const Bytes& result) {
      SendReply(*net_, proposer, view, req, result);
    };
    if (group_ != nullptr) {
      group_->CommitAll(
          round.proposer,
          BatchRecordPtr(new BatchRecord(std::move(round.batch), round.block)),
          sim_->now(), reply_to);
    } else {
      for (const RequestRef& req : round.batch) {
        reply_to(req, Bytes{});
      }
    }
  } else {
    throughput_.RecordCommit(sim_->now(), opts_.batch_size);
  }
  --in_flight_;
  RefillPipeline();
  // Bound memory in long runs.
  while (rounds_.size() > 4 * opts_.pipeline_depth + 16) {
    rounds_.erase(rounds_.begin());
  }
}

void TreeRsm::OnRoundTimeout(uint64_t view) {
  auto it = rounds_.find(view);
  if (it == rounds_.end() || it->second.committed || it->second.failed) {
    return;
  }
  Round& round = it->second;
  round.failed = true;
  ++failed_rounds_;
  --in_flight_;
  ReturnBatchToQueue(round);

  // Suspicions from the root against silent subtrees (condition (b)); if the
  // root itself is the problem, intermediates suspect it (condition (a) — no
  // proposal timestamp within delta * d_rnd).
  if (!net_->faults()->IsCrashedAt(tree_.root(), sim_->now())) {
    for (ReplicaId child : tree_.ChildrenOf(tree_.root())) {
      if (!round.votes.Contains(child)) {
        SuspicionRecord rec;
        rec.type = SuspicionType::kSlow;
        rec.suspector = tree_.root();
        rec.suspect = child;
        rec.round = view;
        rec.phase = PhaseTag::kAggregate;
        RecordSuspicion(rec);
      }
    }
  } else {
    for (ReplicaId inter : tree_.intermediates()) {
      SuspicionRecord rec;
      rec.type = SuspicionType::kSlow;
      rec.suspector = inter;
      rec.suspect = tree_.root();
      rec.round = view;
      rec.phase = PhaseTag::kProposal;
      RecordSuspicion(rec);
    }
  }

  if (reconfig_) {
    std::optional<TreeTopology> next = reconfig_(*this);
    if (next.has_value()) {
      InstallTree(*next);
    }
  }
  RefillPipeline();
}

// Fails rounds still waiting on a replaced tree's parents (not counted as
// timeout failures: their configuration is gone, not late).
void TreeRsm::AbandonInFlightRounds() {
  for (auto& [v, r] : rounds_) {
    if (!r.committed && !r.failed) {
      r.failed = true;
      sim_->Cancel(r.timeout);
      ReturnBatchToQueue(r);
      if (in_flight_ > 0) {
        --in_flight_;
      }
    }
  }
}

// A failed or abandoned round's requests go back to the front of the queue:
// accepted once, committed at most once, never lost.
void TreeRsm::ReturnBatchToQueue(Round& round) {
  if (queue_ == nullptr || round.batch.empty()) {
    return;
  }
  queue_->Requeue(std::move(round.batch), sim_->now());
  round.batch.clear();
}

void TreeRsm::RefillPipeline() {
  if (queue_ != nullptr) {
    PumpWorkload(false);
    return;
  }
  while (in_flight_ < opts_.pipeline_depth) {
    const uint32_t before = in_flight_;
    StartRound();
    if (in_flight_ == before) {
      break;  // paused or not started
    }
  }
}

void TreeRsm::PumpWorkload(bool deadline_fired) {
  if (queue_ == nullptr || !started_ || paused_) {
    return;
  }
  const BatchPolicy& policy = queue_->policy();
  while (in_flight_ < opts_.pipeline_depth && !queue_->empty()) {
    const bool due =
        (deadline_fired ||
         sim_->now() >= queue_->front_enqueued_at() + policy.max_delay) &&
        sim_->now() >= PacingNotBefore();
    if (!due && queue_->depth() < policy.max_batch) {
      break;
    }
    deadline_fired = false;  // one partial batch per deadline expiry
    const uint32_t before = in_flight_;
    StartRound();
    if (in_flight_ == before) {
      break;
    }
  }
  // (Re)arm the deadline for the oldest leftover request. While the
  // pipeline is full the timer stays off: the next commit pumps again, and
  // an armed timer would otherwise spin at the current instant.
  if (queue_->empty() || in_flight_ >= opts_.pipeline_depth) {
    if (batch_timer_ != kNoEvent) {
      sim_->Cancel(batch_timer_);
      batch_timer_ = kNoEvent;
    }
    return;
  }
  const SimTime due_at =
      std::max(queue_->front_enqueued_at() + policy.max_delay, PacingNotBefore());
  if (batch_timer_ != kNoEvent && batch_timer_due_ == due_at) {
    return;
  }
  if (batch_timer_ != kNoEvent) {
    sim_->Cancel(batch_timer_);
  }
  batch_timer_due_ = due_at;
  batch_timer_ = sim_->ScheduleTimerAt(due_at, this, kTimerBatchDeadline);
}

// Rounds that take the same time D and restart as they commit stay bunched:
// with every slot refilled as soon as it frees, the root proposes nothing for
// most of D while requests pile up. Holding the start that would fill the
// last free slot until D / depth after the previous one spreads the starts
// over the round. With two or more slots free the pipeline is not the
// bottleneck, so nothing waits; PumpWorkload's size trigger ignores the hold,
// so a full batch goes at once (DESIGN.md, "Tree pipeline pacing").
SimTime TreeRsm::PacingNotBefore() const {
  if (opts_.pipeline_depth < 2 || in_flight_ + 1 != opts_.pipeline_depth ||
      round_time_ == 0) {
    return 0;
  }
  // Views start in order, so the newest round is the last one started.
  return rounds_.rbegin()->second.proposed_at + round_time_ / opts_.pipeline_depth;
}

void TreeRsm::RecordSuspicion(const SuspicionRecord& rec) {
  suspicions_.push_back(rec);
  suspicion_times_.push_back(sim_->now());
}

void TreeRsm::OnReplicaRecovered(ReplicaId id) {
  if (excluded_.erase(id) > 0) {
    InvalidateDeadlines();
  }
  if (!started_ || tree_.Contains(id) || !reconfig_) {
    return;
  }
  // The replica fell out of the active tree while it was down; ask the
  // reconfiguration policy for a tree over the (now larger) live set.
  std::optional<TreeTopology> next = reconfig_(*this);
  if (next.has_value()) {
    InstallTree(*next);
  }
  RefillPipeline();
}

}  // namespace optilog
