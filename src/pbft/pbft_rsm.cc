#include "src/pbft/pbft_rsm.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace optilog {

// --- PbftReplica -------------------------------------------------------------

void PbftReplica::OnMessage(ReplicaId from, const MessagePtr& msg, SimTime at) {
  switch (msg->type()) {
    case kMsgClientRequest:
      if (AdmitRequest(*harness_->net_, *harness_->queue_, id_,
                       harness_->config_.leader, msg) &&
          !harness_->instance_open_) {
        harness_->ProposeNext(harness_->sim_->now());
      }
      break;
    case kMsgPrePrepare:
      HandlePrePrepare(from, static_cast<const PrePrepareMsg&>(*msg), at);
      break;
    case kMsgWrite:
    case kMsgAccept:
      HandlePhase(from, static_cast<const PhaseMsg&>(*msg), at);
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

PbftReplica::Instance* PbftReplica::Slot(uint64_t seq, bool preprepare, SimTime at) {
  if (window_.empty()) {
    window_.resize(kWindow);
    for (uint64_t i = 0; i < kWindow; ++i) {
      window_[i].seq = i;  // an empty instance for seq i
    }
  }
  Instance& inst = window_[seq % kWindow];
  if (inst.seq == seq) {
    return &inst;
  }
  if (seq > inst.seq) {
    // A newer seq takes the slot, but never from an instance still in
    // flight: far-future votes must not evict the live instance.
    if (Pending(inst, at)) {
      ++harness_->busy_drops_;
      return nullptr;
    }
  } else if (!preprepare || inst.record != nullptr) {
    // An older seq never clobbers the newer instance, except that the
    // leader's Pre-Prepare displaces an instance made of votes alone:
    // otherwise one sender's far-future votes would shut this replica out
    // of every later instance.
    ++harness_->stale_drops_;
    return nullptr;
  }
  inst = Instance{};
  inst.seq = seq;
  return &inst;
}

bool PbftReplica::Pending(const Instance& inst, SimTime now) const {
  if (inst.record == nullptr || inst.committed) {
    return false;
  }
  const SimTime crash_at = harness_->net_->faults()->Of(id_).crash_at;
  return inst.preprepared_at >= crash_at || now < crash_at;
}

void PbftReplica::HandlePrePrepare(ReplicaId from, const PrePrepareMsg& msg,
                                   SimTime at) {
  // Only the leader whose configuration numbered the seq proposes it: a
  // deposed leader's in-flight proposals still land, and no replica can
  // claim a seq another leader numbers.
  if (from != msg.leader || from != harness_->LeaderOf(msg.seq)) {
    return;
  }
  if (CpuMeter* cpu = harness_->net_->cpu()) {
    // Verify the leader's signature, recompute the batch digest.
    cpu->ChargeVerify(id_, at);
    cpu->ChargeHash(id_, at, msg.WireSize());
  }
  Instance* inst = Slot(msg.seq, /*preprepare=*/true, at);
  if (inst == nullptr || inst->record != nullptr) {
    return;  // the first Pre-Prepare for a seq wins
  }
  inst->proposal_ts = msg.timestamp;
  inst->preprepared_at = at;
  inst->leader = msg.leader;
  inst->record = msg.Record();
  // Keep only the tally for the Pre-Prepare's digest, at index 0; votes
  // that arrived before it count from here on.
  const Digest& digest = inst->record->digest();
  auto match = std::find_if(inst->tallies.begin(), inst->tallies.end(),
                            [&](const Tally& t) { return t.digest == digest; });
  if (match == inst->tallies.end()) {
    inst->tallies.clear();
    inst->tallies.push_back(Tally{digest});
  } else {
    std::swap(inst->tallies.front(), *match);
    inst->tallies.resize(1);
  }

  if (sensor_ && harness_->matrix().Known(msg.leader, id_) && id_ != msg.leader) {
    // Condition (b) on the Pre-Prepare itself: d_m = Lr(L, A) (TR1).
    const AwareTimeouts& t = harness_->aware_timeouts();
    if (std::isfinite(t.round_ms)) {
      sensor_->OnProposalTimestamp(msg.seq, msg.leader, msg.timestamp,
                                   FromMs(t.round_ms));
      sensor_->ObserveArrival(msg.seq, msg.leader, PhaseTag::kProposal,
                              FromMs(t.propose[id_]), msg.timestamp, at);
    }
  }

  if (TraceRecorder* tr = harness_->sim_->trace()) {
    tr->EmitHere(at, TraceKind::kPbftPhase, 1, id_, msg.seq, 0);
  }

  // Send Write (Prepare) to all replicas.
  auto write = harness_->sim_->pool().Make<PhaseMsg>();
  write->accept = false;
  write->seq = msg.seq;
  write->digest = digest;
  if (CpuMeter* cpu = harness_->net_->cpu()) {
    cpu->ChargeSign(id_, at);
  }
  harness_->net_->Multicast(id_, harness_->replica_ids_, std::move(write));
  MaybeAdvance(*inst);
}

void PbftReplica::HandlePhase(ReplicaId from, const PhaseMsg& msg, SimTime at) {
  if (CpuMeter* cpu = harness_->net_->cpu()) {
    cpu->ChargeVerify(id_, at);  // the sender's phase signature
  }
  Instance* inst = Slot(msg.seq, /*preprepare=*/false, at);
  if (inst == nullptr) {
    return;
  }
  DenseIdSet& voters = msg.accept ? inst->accepts : inst->writes;
  if (voters.Contains(from)) {
    return;  // one vote per sender and phase
  }
  auto tally = std::find_if(inst->tallies.begin(), inst->tallies.end(),
                            [&](const Tally& t) { return t.digest == msg.digest; });
  if (tally == inst->tallies.end()) {
    if (inst->record != nullptr) {
      return;  // a vote for another batch than the Pre-Prepare's
    }
    inst->tallies.push_back(Tally{msg.digest});
    tally = inst->tallies.end() - 1;
  }
  voters.Insert(from);
  const double weight =
      harness_->opts_.mode == PbftMode::kPbft
          ? 1.0
          : WeightOf(harness_->config_, harness_->scheme(), from);
  (msg.accept ? tally->accept_weight : tally->write_weight) += weight;

  if (sensor_ && inst->record != nullptr) {
    // TR2: the sender's Pre-Prepare (Write) or prepared (Accept) deadline
    // plus the sender-to-receiver latency.
    const SimTime d_m = harness_->vote_deadlines().Of(msg.accept, from, id_);
    if (d_m != AwareVoteDeadlines::kUnobserved) {
      sensor_->ObserveArrival(msg.seq, from,
                              msg.accept ? PhaseTag::kSecondVote : PhaseTag::kFirstVote,
                              d_m, inst->proposal_ts, at);
    }
  }
  MaybeAdvance(*inst);
}

void PbftReplica::MaybeAdvance(Instance& inst) {
  const double quorum = harness_->opts_.mode == PbftMode::kPbft
                            ? std::ceil((harness_->opts_.n + harness_->opts_.f + 1) / 2.0)
                            : harness_->scheme().quorum_weight;
  if (inst.record == nullptr) {
    // An accept quorum, for one digest, for an instance this replica never
    // saw the Pre-Prepare of. On the reliable simulated network a replica
    // that never crashed cannot have *lost* a Pre-Prepare — at worst it is
    // still in flight and MaybeAdvance runs again on its arrival — so the
    // repair path is gated on this replica actually having a crash window
    // behind it: then the Pre-Prepare was dropped for good and the decided
    // entry must arrive via a log-suffix fetch from a live peer (same
    // machinery as recovery, no amnesia).
    const ReplicaFaults& own = harness_->net_->faults()->Of(id_);
    const bool decided =
        std::any_of(inst.tallies.begin(), inst.tallies.end(),
                    [&](const Tally& t) { return t.accept_weight >= quorum; });
    if (harness_->group_ != nullptr && !inst.committed && decided &&
        harness_->sim_->now() >= own.crash_at) {
      inst.committed = true;  // decided; execution arrives via the transfer
      harness_->group_->RequestCatchup(id_, inst.seq);
    }
    return;
  }
  if (!inst.accepted && inst.tallies[0].write_weight >= quorum) {
    inst.accepted = true;
    if (TraceRecorder* tr = harness_->sim_->trace()) {
      tr->EmitHere(harness_->sim_->now(), TraceKind::kPbftPhase, 2, id_, inst.seq,
                   0);
    }
    auto accept = harness_->sim_->pool().Make<PhaseMsg>();
    accept->accept = true;
    accept->seq = inst.seq;
    accept->digest = inst.tallies[0].digest;
    if (CpuMeter* cpu = harness_->net_->cpu()) {
      cpu->ChargeSign(id_, harness_->sim_->now());
    }
    harness_->net_->Multicast(id_, harness_->replica_ids_, std::move(accept));
  }
  if (!inst.committed && inst.accepted && inst.tallies[0].accept_weight >= quorum) {
    Commit(inst);
  }
}

void PbftReplica::Commit(Instance& inst) {
  const uint64_t seq = inst.seq;
  inst.committed = true;
  if (TraceRecorder* tr = harness_->sim_->trace()) {
    tr->EmitHere(harness_->sim_->now(), TraceKind::kPbftPhase, 3, id_, seq, 0);
  }
  // Commit boundary: execute, then reply to every client in the batch (the
  // client completes on its f + 1-th matching reply). With a state machine
  // bound, execution is strictly in sequence order — the group buffers this
  // commit if an earlier instance is still undecided here — and the reply
  // carries this replica's committed result. Every replica emits its own
  // commit/reply records; the stage fold keys on the earliest (first-record-
  // wins), which is the earliest replica to decide. Without a state machine
  // every reply carries an empty result.
  auto reply_to = [this, seq](const RequestRef& req, const Bytes& result) {
    SendReply(*harness_->net_, id_, seq, req, result);
  };
  const std::vector<RequestRef>& batch = inst.record->requests();
  if (harness_->group_ != nullptr) {
    harness_->group_->CommitAt(id_, seq, inst.leader, inst.record,
                               harness_->sim_->now(), reply_to);
  } else {
    for (const RequestRef& req : batch) {
      reply_to(req, Bytes{});
    }
  }
  if (sensor_) {
    sensor_->GarbageCollect(seq >= 2 ? seq - 2 : 0);
  }
  if (id_ == harness_->config_.leader) {
    harness_->OnCommitAtLeader(seq, static_cast<uint32_t>(batch.size()),
                               inst.proposal_ts);
  }
}

// --- PbftHarness -----------------------------------------------------------------

// Client think time of the default fleet.
constexpr SimTime kDefaultThinkTime = 50 * kMsec;

WorkloadOptions PbftDefaultWorkload(uint32_t n, uint64_t seed) {
  WorkloadOptions w;
  w.clients = n;
  w.arrival = ArrivalProcess::kClosedLoop;
  w.outstanding = 1;
  w.think_time = kDefaultThinkTime;
  w.seed = seed;
  w.batch.max_batch = ~0u;
  w.batch.max_delay = 0;
  w.batch.max_queue = ~size_t{0};
  return w;
}

PbftHarness::PbftHarness(Simulator* sim, Network* net, const KeyStore* keys,
                         PbftOptions opts)
    : sim_(sim),
      net_(net),
      keys_(keys),
      opts_(opts),
      rng_(opts.seed),
      space_(opts.n, opts.f) {
  // Initial configuration: leader 0, Vmax on the first 2f replicas.
  config_.leader = 0;
  config_.weight_max.assign(opts_.n, 0);
  for (uint32_t i = 0; i < 2 * opts_.f && i < opts_.n; ++i) {
    config_.weight_max[i] = 1;
  }
  RecordLeader();

  // One pipeline carries the deterministic monitor side for all replicas,
  // with the MIS candidate policy (§4.2.3); sensors stay per-replica (below).
  pipeline_ = std::make_unique<Pipeline>(
      opts_.n, opts_.f, keys_, &space_,
      [this](const RoleConfig& cfg, double score) { OnReconfigure(cfg, score); },
      SuspicionMonitorOptions{});
  log_.AddListener([this](const LogEntry& e) { OnLogCommit(e); });

  for (ReplicaId id = 0; id < opts_.n; ++id) {
    replicas_.push_back(std::make_unique<PbftReplica>(id, this));
    replica_ids_.push_back(id);
    net_->Register(id, replicas_.back().get());
    if (opts_.mode == PbftMode::kOptiAware) {
      replicas_.back()->sensor_ = std::make_unique<SuspicionSensor>(
          id, opts_.delta, [this](const SuspicionRecord& rec) {
            CommitMeasurement(MakeSuspicionMeasurement(rec, *keys_));
          });
    }
  }
  net_->SetProposalClassifier(
      [](const Message& m) { return m.type() == kMsgPrePrepare; });
}

void PbftHarness::Start() {
  OL_CHECK(queue_ != nullptr);
  started_ = true;
  if (opts_.mode != PbftMode::kPbft) {
    RunProbeRound();
    sim_->ScheduleTimerAt(opts_.optimize_at, this, kTimerAwareOptimize);
  }
}

void PbftHarness::OnTimer(uint64_t tag, SimTime at) {
  (void)at;
  switch (tag) {
    case kTimerProbeRound:
      RunProbeRound();
      break;
    case kTimerAwareOptimize:
      RunAwareOptimization();
      break;
    default:
      break;
  }
}

void PbftHarness::SetTopologyOrConfig(const RoleConfig& config) {
  if (started_) {
    OnReconfigure(config, 0.0);
    return;
  }
  // Pre-start install: adopt silently (no reconfiguration event).
  config_ = config;
  RecordLeader();
  if (config_.weight_max.size() != opts_.n) {
    config_.weight_max.assign(opts_.n, 0);
  }
  timeouts_config_stale_ = true;
  pipeline_->config_monitor_mutable().SetActive(config_, 0.0);
}

const AwareTimeouts& PbftHarness::aware_timeouts() {
  const LatencyMatrix& latency = matrix();
  const uint32_t u = pipeline_->suspicion_monitor().Current().u;
  if (timeouts_config_stale_ || latency.version() != timeouts_matrix_version_ ||
      u != timeouts_u_) {
    space_.ComputeTimeouts(config_, latency, u, timeouts_);
    vote_deadlines_.Build(timeouts_, latency);
    timeouts_config_stale_ = false;
    timeouts_matrix_version_ = latency.version();
    timeouts_u_ = u;
  }
  return timeouts_;
}

std::optional<PbftHarness::InstanceState> PbftHarness::instance_state(
    ReplicaId r, uint64_t seq) const {
  const std::vector<PbftReplica::Instance>& window = replicas_[r]->window_;
  if (window.empty() || window[seq % window.size()].seq != seq) {
    return std::nullopt;
  }
  const PbftReplica::Instance& inst = window[seq % window.size()];
  return InstanceState{inst.record != nullptr, inst.accepted, inst.committed};
}

MetricsReport PbftHarness::Metrics() const {
  MetricsReport report;
  report.committed = committed_instances_;
  report.total_commands = throughput_.total();
  report.failed_rounds = 0;  // view changes are out of model (§7.1)
  report.reconfigurations = reconfig_times_.size();
  report.suspicions = suspicion_times_.size();
  report.mean_latency_ms = latency_stat_.mean();
  report.throughput_per_sec = throughput_.per_second();
  report.reconfig_times = reconfig_times_;
  report.suspicion_times = suspicion_times_;
  report.log_head_hex = DigestHex(log_.head());
  return report;
}

void PbftHarness::ProposeNext(SimTime now) {
  if (queue_->empty()) {
    return;
  }
  instance_open_ = true;
  const uint64_t seq = next_seq_++;
  auto msg = sim_->pool().Make<PrePrepareMsg>();
  msg->seq = seq;
  msg->leader = config_.leader;
  msg->timestamp = now;
  // PBFT's trigger is propose-on-idle: whenever no instance is open. A
  // full queue still counts as the size trigger for honest accounting.
  msg->batch = queue_->PopBatch(
      now, queue_->depth() >= queue_->policy().max_batch ? BatchTrigger::kSize
                                                         : BatchTrigger::kIdle);
  TraceBatch(*sim_, config_.leader, seq, msg->batch);
  if (CpuMeter* cpu = net_->cpu()) {
    // Proposing: digest the batch, sign the Pre-Prepare.
    cpu->ChargeHash(config_.leader, now, msg->WireSize());
    cpu->ChargeSign(config_.leader, now);
  }
  net_->Multicast(config_.leader, replica_ids_, std::move(msg));
}

void PbftHarness::OnCommitAtLeader(uint64_t seq, uint32_t batch_size,
                                   SimTime proposed_at) {
  (void)seq;
  ++committed_instances_;
  latency_stat_.Add(ToMs(sim_->now() - proposed_at));
  throughput_.RecordCommit(sim_->now(), batch_size);
  // The committed command batch is a log entry like any other; the pipeline
  // skips it, but the chain head covers it (determinism evidence).
  LogEntry batch;
  batch.kind = EntryKind::kCommandBatch;
  batch.proposer = config_.leader;
  batch.batch_size = batch_size;
  batch.committed_at = sim_->now();
  log_.Append(batch);
  pipeline_->OnView(committed_instances_);
  instance_open_ = false;
  MaybeReactToSuspicions();
  if (!queue_->empty()) {
    ProposeNext(sim_->now());
  }
}

void PbftHarness::CommitMeasurement(const Measurement& m) {
  if (CpuMeter* cpu = net_->cpu()) {
    cpu->ChargeSign(m.sig.signer, sim_->now());
  }
  AppendMeasurement(log_, sim_->now(), m.Encode());
}

void PbftHarness::OnLogCommit(const LogEntry& entry) {
  pipeline_->OnCommit(entry);
  if (entry.kind != EntryKind::kMeasurement) {
    return;
  }
  const std::optional<Measurement> m = Measurement::Decode(entry.payload);
  if (!m.has_value() || m->kind != MeasurementKind::kSuspicion) {
    return;
  }
  ByteReader r(m->body);
  const SuspicionRecord rec = SuspicionRecord::Deserialize(r);
  if (!r.ok() || rec.suspector != m->sig.signer) {
    return;
  }
  if (rec.type != SuspicionType::kSlow) {
    return;
  }
  suspicion_times_.push_back(sim_->now());
  suspicion_rounds_.insert(rec.round);
  // Reciprocation (condition (c)): the accused replica's sensor answers with
  // <False>; a Byzantine attacker stays silent and drifts into C.
  if (rec.suspect < opts_.n && replicas_[rec.suspect]->sensor_ &&
      !net_->faults()->Of(rec.suspect).IsByzantine()) {
    replicas_[rec.suspect]->sensor_->OnSuspicionAgainstSelf(rec);
  }
}

// Period of the probe rounds that refresh the latency matrix (§4.2.1).
constexpr SimTime kProbeInterval = 5 * kSec;

void PbftHarness::RunProbeRound() {
  // Probe-based latency vectors (§4.2.1). The RTT a prober observes is the
  // model RTT perturbed by both sides' outbound behavior — except that a
  // fast_probes attacker answers promptly on purpose.
  const FaultModel& faults = *net_->faults();
  for (ReplicaId a = 0; a < opts_.n; ++a) {
    if (faults.IsCrashedAt(a, sim_->now())) {
      continue;
    }
    LatencyVectorRecord rec;
    rec.reporter = a;
    rec.epoch = static_cast<uint64_t>(sim_->now() / kProbeInterval);
    rec.rtt_units.resize(opts_.n, 0);
    for (ReplicaId b = 0; b < opts_.n; ++b) {
      if (a == b) {
        continue;
      }
      if (faults.IsCrashedAt(b, sim_->now())) {
        rec.rtt_units[b] = kRttInfinity;
        continue;
      }
      double rtt_us = static_cast<double>(net_->latency()->Rtt(a, b));
      const ReplicaFaults& fa = faults.Of(a);
      const ReplicaFaults& fb = faults.Of(b);
      if (fa.outbound_delay_factor != 1.0 && !fa.fast_probes) {
        rtt_us += static_cast<double>(net_->latency()->OneWay(a, b)) *
                  (fa.outbound_delay_factor - 1.0);
      }
      if (fb.outbound_delay_factor != 1.0 && !fb.fast_probes) {
        rtt_us += static_cast<double>(net_->latency()->OneWay(b, a)) *
                  (fb.outbound_delay_factor - 1.0);
      }
      rec.rtt_units[b] = EncodeRttMs(rtt_us / kMsec);
    }
    CommitMeasurement(MakeLatencyMeasurement(rec, *keys_));
  }
  sim_->ScheduleTimer(this, kTimerProbeRound, kProbeInterval);
}

void PbftHarness::RunAwareOptimization() {
  // Aware's scheduled optimization (§5): search (leader, Vmax) for minimum
  // predicted round duration. OptiAware restricts the roles to the
  // candidate set K.
  CandidateSet candidates;
  if (opts_.mode == PbftMode::kOptiAware) {
    candidates = pipeline_->suspicion_monitor().Current();
  } else {
    for (ReplicaId id = 0; id < opts_.n; ++id) {
      candidates.candidates.push_back(id);
    }
  }
  if (const auto best = space_.Search(candidates, pipeline_->latency_monitor().matrix(),
                                      rng_, AnnealingParams{})) {
    OnReconfigure(best->config, best->score);
  }
}

// Suspicions must accumulate in this many distinct instances before the
// monitor acts — Aware-style damping against one-off spikes.
constexpr uint32_t kSuspicionThreshold = 3;

void PbftHarness::MaybeReactToSuspicions() {
  if (opts_.mode != PbftMode::kOptiAware) {
    return;
  }
  const CandidateSet& k = pipeline_->suspicion_monitor().Current();
  if (space_.Valid(config_, k)) {
    searched_after_invalid_ = false;
    return;
  }
  if (searched_after_invalid_ ||
      suspicion_rounds_.size() < kSuspicionThreshold) {
    return;
  }
  searched_after_invalid_ = true;
  // f + 1 replicas run the (non-deterministic) config search and propose via
  // the log; the deterministic monitor reconfigures once it has f + 1 of
  // them.
  for (uint32_t i = 0; i <= opts_.f; ++i) {
    ConfigSensor sensor(i, &space_, rng_.Fork());
    auto rec = sensor.Search(k, pipeline_->latency_monitor().matrix());
    if (rec.has_value()) {
      CommitMeasurement(MakeConfigMeasurement(*rec, *keys_));
    }
  }
}

void PbftHarness::OnReconfigure(const RoleConfig& config, double score) {
  config_ = config;
  RecordLeader();
  if (config_.weight_max.size() != opts_.n) {
    config_.weight_max.assign(opts_.n, 0);
  }
  timeouts_config_stale_ = true;
  reconfig_times_.push_back(sim_->now());
  pipeline_->config_monitor_mutable().SetActive(config_, score);
  instance_open_ = false;
  if (!queue_->empty()) {
    ProposeNext(sim_->now());
  }
}

void PbftHarness::RecordLeader() {
  if (!leaders_.empty() && leaders_.back().first == next_seq_) {
    leaders_.pop_back();  // that leader numbered no seq
  }
  if (leaders_.empty() || leaders_.back().second != config_.leader) {
    leaders_.emplace_back(next_seq_, config_.leader);
  }
}

ReplicaId PbftHarness::LeaderOf(uint64_t seq) const {
  // leaders_ starts at seq 0, so some entry always matches.
  auto it = std::find_if(leaders_.rbegin(), leaders_.rend(),
                         [&](const auto& l) { return l.first <= seq; });
  return it->second;
}

}  // namespace optilog
