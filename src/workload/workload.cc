#include "src/workload/workload.h"

#include <algorithm>
#include <bit>

#include "src/util/check.h"

namespace optilog {
namespace {

// Natural log over positive finite doubles using only IEEE basic operations
// (bit extraction + atanh series), so Poisson interarrival schedules are
// bit-identical across libm implementations. Relative error < 1e-8 over the
// mantissa range — far below the 1 us timer resolution it feeds.
double DeterministicLog(double x) {
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  const int exponent = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  const double m =
      std::bit_cast<double>((bits & 0xfffffffffffffULL) | 0x3ff0000000000000ULL);
  // ln(m), m in [1, 2): atanh series in t = (m-1)/(m+1), |t| <= 1/3.
  const double t = (m - 1.0) / (m + 1.0);
  const double t2 = t * t;
  double term = t;
  double sum = 0.0;
  for (int k = 1; k <= 13; k += 2) {
    sum += term / static_cast<double>(k);
    term *= t2;
  }
  constexpr double kLn2 = 0.6931471805599453;
  return static_cast<double>(exponent) * kLn2 + 2.0 * sum;
}

// The maximum number of open-loop requests a client keeps latency state
// for; beyond this the oldest are abandoned (counted, not silently lost).
constexpr size_t kMaxOutstanding = size_t{1} << 16;

}  // namespace

// --- WorkloadClient ----------------------------------------------------------

void WorkloadClient::Start(SimTime now) {
  if (fleet_->opts_.arrival == ArrivalProcess::kClosedLoop) {
    for (uint32_t k = 0; k < fleet_->opts_.outstanding; ++k) {
      StartNewRequest(now);
    }
  } else {
    ScheduleNextArrival(now);
  }
}

void WorkloadClient::ScheduleNextArrival(SimTime now) {
  const double rate =
      fleet_->opts_.rate_per_client * fleet_->RateScaleAt(now);
  OL_CHECK(rate > 0.0);
  // Exponential via inverse CDF; 1 - U in (0, 1], so the log is finite.
  const double sec = -DeterministicLog(1.0 - rng_.Uniform()) / rate;
  fleet_->sim_->ScheduleTimer(this, kTagArrival,
                              std::max<SimTime>(1, FromSec(sec)));
}

KvOp WorkloadClient::DrawOp() {
  const KvWorkloadOptions& kv = fleet_->opts_.kv;
  KvOp op;
  // Private key range: the client index tags the high bits, so no other
  // client's operations ever touch this client's keys (the oracle's
  // soundness precondition).
  op.key = (static_cast<uint64_t>(index_) << 20) |
           rng_.Below(std::max<uint32_t>(1, kv.keys_per_client));
  const uint64_t draw = rng_.Below(100);
  if (draw < kv.get_pct) {
    op.kind = KvOpKind::kGet;
  } else if (draw < kv.get_pct + kv.put_pct) {
    op.kind = KvOpKind::kPut;
    op.arg = rng_.Next() >> 16;
  } else {
    op.kind = KvOpKind::kAdd;
    op.arg = 1 + rng_.Below(1000);
  }
  return op;
}

void WorkloadClient::VerifyResult(const KvOp& op, const Bytes& result) {
  KvResult res;
  if (result.empty() || !KvResult::Decode(result, &res)) {
    return;  // a reply without a value (engine without a state machine)
  }
  ++fleet_->kv_checks_;
  bool ok = true;
  switch (op.kind) {
    case KvOpKind::kGet: {
      auto it = model_.find(op.key);
      ok = res.found == (it != model_.end()) &&
           (!res.found || res.value == it->second);
      break;
    }
    case KvOpKind::kPut:
      ok = res.value == op.arg;
      model_[op.key] = op.arg;
      break;
    case KvOpKind::kAdd:
      // Read-your-writes on the committed counter; adopt the committed
      // value so the model tracks commit order even if completions raced.
      ok = res.value == model_[op.key] + op.arg;
      model_[op.key] = res.value;
      break;
  }
  if (!ok) {
    ++fleet_->kv_mismatches_;
  }
}

void WorkloadClient::StartNewRequest(SimTime now) {
  const uint64_t id = next_request_++;
  Outstanding o;
  o.sent_at = now;
  o.target = fleet_->route_();
  if (fleet_->opts_.kv.enabled) {
    o.op = DrawOp();
  }
  outstanding_.emplace(id, o);
  // Open-loop overload protection: bound the per-client tracking window.
  while (outstanding_.size() > kMaxOutstanding) {
    auto oldest = outstanding_.begin();
    fleet_->sim_->Cancel(oldest->second.retry);
    outstanding_.erase(oldest);
    ++fleet_->abandoned_;
  }
  ++fleet_->sent_;
  if (TraceRecorder* tr = fleet_->sim_->trace()) {
    // The lifecycle root for this request's span tree (retries reuse it —
    // stage breakdowns measure from the original send, like sent_at does).
    tr->EmitHere(now, TraceKind::kClientSend, 0, id_, id, id_);
  }
  SendAttempt(id);
}

// Payload bytes every request carries.
constexpr size_t kRequestBytes = 64;

void WorkloadClient::SendAttempt(uint64_t request_id) {
  Outstanding& o = outstanding_.at(request_id);
  auto req = fleet_->sim_->pool().Make<ClientRequestMsg>();
  req->client = id_;
  req->request_id = request_id;
  req->sent_at = o.sent_at;
  req->payload_bytes = kRequestBytes;
  if (fleet_->opts_.kv.enabled) {
    req->op = o.op.Encode();
  }
  fleet_->net_->Send(id_, o.target, std::move(req));
  if (fleet_->opts_.retry_timeout > 0) {
    o.retry = fleet_->sim_->ScheduleTimer(this, request_id + 1,
                                          fleet_->opts_.retry_timeout);
  }
}

// Re-sends per request before the client abandons it (counted in
// requests_abandoned; a closed-loop client moves on to its next request).
// Bounds the retry storm a dropped request can cause: once the leader's
// dedup window has pruned past an id, its retries can never be admitted.
constexpr uint32_t kMaxRetries = 16;

void WorkloadClient::OnTimer(uint64_t tag, SimTime at) {
  if (tag == kTagArrival) {
    StartNewRequest(at);
    if (fleet_->opts_.arrival != ArrivalProcess::kClosedLoop) {
      ScheduleNextArrival(at);
    }
    return;
  }
  // Retry timer for request tag - 1: re-route to the next replica id.
  const uint64_t request_id = tag - 1;
  auto it = outstanding_.find(request_id);
  if (it == outstanding_.end()) {
    return;  // completed or abandoned in the meantime
  }
  it->second.retry = kNoEvent;
  if (it->second.attempts > kMaxRetries) {
    // Give up: the request was dropped (or its id aged out of the leader's
    // dedup window, where a late retry reads as a duplicate). Account for
    // it and, in a closed loop, free the slot for the next request.
    outstanding_.erase(it);
    ++fleet_->abandoned_;
    if (fleet_->opts_.arrival == ArrivalProcess::kClosedLoop) {
      fleet_->sim_->ScheduleTimer(this, kTagArrival, fleet_->opts_.think_time);
    }
    return;
  }
  ++it->second.attempts;
  it->second.target = (it->second.target + 1) % fleet_->n_;
  ++fleet_->retried_;
  SendAttempt(request_id);
}

void WorkloadClient::OnMessage(ReplicaId from, const MessagePtr& msg,
                               SimTime at) {
  if (msg->type() != kMsgClientReply) {
    return;
  }
  const auto& reply = static_cast<const ClientReplyMsg&>(*msg);
  auto it = outstanding_.find(reply.request_id);
  if (it == outstanding_.end()) {
    return;  // stale: already completed (extra replies beyond the quorum)
  }
  Outstanding& o = it->second;
  if (!o.replies.Add(from, reply.result, fleet_->reply_quorum_)) {
    return;
  }
  if (fleet_->opts_.kv.enabled) {
    VerifyResult(o.op, reply.result);
  }
  if (TraceRecorder* tr = fleet_->sim_->trace()) {
    tr->EmitHere(at, TraceKind::kClientComplete, 0, id_, reply.request_id,
                 id_);
  }
  const SimTime delta = at - o.sent_at;
  fleet_->RecordCompletion(delta);
  if (fleet_->opts_.record_samples) {
    samples_.push_back(ClientSample{at, ToMs(delta)});
  }
  fleet_->sim_->Cancel(o.retry);
  outstanding_.erase(it);
  if (fleet_->opts_.arrival == ArrivalProcess::kClosedLoop) {
    // Think, then issue the replacement request (timer even at zero think
    // time, so the next request is a fresh event, not a nested call).
    fleet_->sim_->ScheduleTimer(this, kTagArrival, fleet_->opts_.think_time);
  }
}

// --- ClientFleet -------------------------------------------------------------

ClientFleet::ClientFleet(Simulator* sim, Network* net, uint32_t n,
                         uint32_t reply_quorum, WorkloadOptions opts,
                         std::function<ReplicaId()> route)
    : sim_(sim), net_(net), n_(n), reply_quorum_(reply_quorum),
      opts_(std::move(opts)), route_(std::move(route)) {
  OL_CHECK(opts_.clients > 0);
  OL_CHECK(reply_quorum_ > 0);
  SimTime end = 0;
  for (const WorkloadPhase& phase : opts_.phases) {
    OL_CHECK(phase.rate_scale > 0.0);
    end += phase.duration;
    phase_ends_.emplace_back(end, phase.rate_scale);
  }
  Rng base(opts_.seed);
  clients_.reserve(opts_.clients);
  for (uint32_t i = 0; i < opts_.clients; ++i) {
    const ReplicaId id = n_ + i;
    clients_.push_back(
        std::make_unique<WorkloadClient>(id, i, this, base.Fork()));
    net_->Register(id, clients_.back().get());
  }
}

void ClientFleet::Start() {
  const SimTime now = sim_->now();
  for (auto& client : clients_) {
    client->Start(now);
  }
}

double ClientFleet::RateScaleAt(SimTime t) const {
  if (phase_ends_.empty()) {
    return 1.0;
  }
  for (const auto& [end, scale] : phase_ends_) {
    if (t < end) {
      return scale;
    }
  }
  return phase_ends_.back().second;  // the last phase persists
}

void ClientFleet::RecordCompletion(SimTime delta) {
  ++completed_;
  latency_stat_.Add(ToMs(delta));
  latency_hist_.RecordUs(delta > 0 ? static_cast<uint64_t>(delta) : 0);
}

void ClientFleet::FillReport(WorkloadReport& report) const {
  report.enabled = true;
  report.requests_sent = sent_;
  report.requests_completed = completed_;
  report.requests_retried = retried_;
  report.requests_abandoned = abandoned_;
  report.kv_checks = kv_checks_;
  report.kv_mismatches = kv_mismatches_;
  report.latency_mean_ms = latency_stat_.mean();
  report.latency_p50_ms = latency_hist_.PercentileMs(50.0);
  report.latency_p95_ms = latency_hist_.PercentileMs(95.0);
  report.latency_p99_ms = latency_hist_.PercentileMs(99.0);
}

// --- The leader side of the client edge --------------------------------------

bool AdmitRequest(Network& net, RequestQueue& queue, ReplicaId receiver,
                  ReplicaId leader, const MessagePtr& msg) {
  if (receiver != leader) {
    net.Send(receiver, leader, msg);
    return false;
  }
  const auto& req = static_cast<const ClientRequestMsg&>(*msg);
  Simulator& sim = *net.sim();
  if (queue.Push(RequestRef{req.client, req.request_id, req.sent_at, req.op,
                            req.shard},
                 sim.now()) != RequestQueue::Admit::kAccepted) {
    return false;
  }
  if (TraceRecorder* tr = sim.trace()) {
    tr->EmitHere(sim.now(), TraceKind::kQueueAdmit, 0, receiver,
                 req.request_id, req.client);
  }
  return true;
}

void TraceBatch(Simulator& sim, ReplicaId proposer, uint64_t seq,
                const std::vector<RequestRef>& batch) {
  TraceRecorder* tr = sim.trace();
  if (tr == nullptr) {
    return;
  }
  tr->EmitHere(sim.now(), TraceKind::kPropose, 0, proposer, seq, batch.size());
  for (const RequestRef& req : batch) {
    tr->EmitHere(sim.now(), TraceKind::kBatchSeal, 0, proposer,
                 req.request_id, req.client);
  }
}

void SendReply(Network& net, ReplicaId replica, uint64_t seq,
               const RequestRef& req, Bytes result) {
  Simulator& sim = *net.sim();
  TraceRecorder* tr = sim.trace();
  if (tr != nullptr) {
    tr->EmitHere(sim.now(), TraceKind::kCommit, 0, replica, req.request_id,
                 req.client);
  }
  auto reply = sim.pool().Make<ClientReplyMsg>();
  reply->request_id = req.request_id;
  reply->seq = seq;
  reply->result = std::move(result);
  if (CpuMeter* cpu = net.cpu()) {
    cpu->ChargeHash(replica, sim.now(), reply->WireSize());
  }
  if (tr != nullptr) {
    tr->EmitHere(sim.now(), TraceKind::kReplySent, 0, replica, req.request_id,
                 req.client);
  }
  net.Send(replica, req.client, std::move(reply));
}

}  // namespace optilog
