#include "src/net/network.h"

#include <algorithm>

namespace optilog {
namespace {

// Trace discriminator for a message: (family << 8) | protocol type tag,
// matching the dispatch-record packing in Simulator::Dispatch.
uint16_t MsgTraceTag(const Message& msg) {
  return static_cast<uint16_t>((static_cast<uint16_t>(msg.family()) << 8) |
                               (static_cast<uint16_t>(msg.type()) & 0xff));
}

}  // namespace

Network::OutboundProfile Network::ClassifyOutbound(ReplicaId from,
                                                   const Message& msg) const {
  const ReplicaFaults& f = faults_->Of(from);
  OutboundProfile profile;
  profile.delay_factor = f.outbound_delay_factor;
  if (f.proposal_delay > 0 && is_proposal_ && is_proposal_(msg)) {
    profile.proposal_extra = f.proposal_delay;
  }
  return profile;
}

SimTime Network::PerturbPropagation(const OutboundProfile& profile,
                                    SimTime propagation) const {
  if (profile.delay_factor != 1.0) {
    propagation = static_cast<SimTime>(static_cast<double>(propagation) *
                                       profile.delay_factor);
  }
  return propagation + profile.proposal_extra;
}

SimTime Network::OccupyUplink(ReplicaId from, size_t bytes, SimTime not_before) {
  if (bandwidth_bps_ <= 0.0) {
    return not_before;
  }
  const SimTime serialize =
      static_cast<SimTime>(static_cast<double>(bytes) * 8.0 / bandwidth_bps_ * kSec);
  if (from >= uplink_free_at_.size()) {
    uplink_free_at_.resize(from + 1, 0);
  }
  SimTime& free_at = uplink_free_at_[from];
  const SimTime start = std::max(free_at, not_before);
  free_at = start + serialize;
  return free_at;
}

void Network::OnDelivery(ReplicaId from, ReplicaId to, const MessagePtr& msg,
                         SimTime at) {
  if (faults_->IsCrashedAt(to, at)) {
    return;
  }
  Actor* actor = ActorOf(to);
  if (actor == nullptr) {
    return;
  }
  ++stats_.messages_delivered;
  actor->OnMessage(from, msg, at);
}

void Network::LoopbackSink::OnDelivery(ReplicaId from, ReplicaId to,
                                       const MessagePtr& msg, SimTime at) {
  // A crash that lands between scheduling and delivery drops the loopback
  // message, matching Send's receiver-side semantics.
  if (net->faults_->IsCrashedAt(to, at)) {
    return;
  }
  Actor* actor = net->ActorOf(to);
  if (actor != nullptr) {
    actor->OnMessage(from, msg, at);
  }
}

void Network::Send(ReplicaId from, ReplicaId to, MessagePtr msg) {
  if (faults_->IsCrashedAt(from, sim_->now())) {
    return;
  }
  ++stats_.messages_sent;
  stats_.bytes_sent += msg->WireSize();
  if (TraceRecorder* tr = sim_->trace()) {
    tr->EmitHere(sim_->now(), TraceKind::kMsgSend, MsgTraceTag(*msg), from,
                 to, msg->WireSize());
  }
  const SimTime sent_at = OccupyUplink(from, msg->WireSize(), SendBase(from));
  const OutboundProfile profile = ClassifyOutbound(from, *msg);
  const SimTime delay = (sent_at - sim_->now()) +
                        PerturbPropagation(profile, latency_->OneWay(from, to));
  sim_->ScheduleDelivery(delay, this, from, to, std::move(msg));
}

void Network::Multicast(ReplicaId from, const std::vector<ReplicaId>& to,
                        MessagePtr msg) {
  if (faults_->IsCrashedAt(from, sim_->now())) {
    return;
  }
  // Sender-side fault profile and message classification are per-message
  // facts: evaluate them once, then look up each destination's latency
  // into a scratch batch. The batch preserves recipient order, so the
  // simulator assigns the same (time, seq) keys an equivalent loop of
  // ScheduleDelivery calls would — digests are unchanged. The one shared
  // immutable message fans out by refcount, and each copy still occupies
  // the uplink separately (the star-bottleneck effect).
  const OutboundProfile profile = ClassifyOutbound(from, *msg);
  const size_t wire = msg->WireSize();
  const SimTime base = SendBase(from);
  if (TraceRecorder* tr = sim_->trace()) {
    // One record per multicast; a = fan-out size (per-recipient flow is in
    // the delivery dispatch records, which parent back here).
    tr->EmitHere(sim_->now(), TraceKind::kMsgSend, MsgTraceTag(*msg), from,
                 to.size(), wire);
  }
  scratch_.clear();
  for (ReplicaId dest : to) {
    if (dest == from) {
      scratch_.push_back({&loopback_, from, 0});
      continue;
    }
    ++stats_.messages_sent;
    stats_.bytes_sent += wire;
    const SimTime sent_at = OccupyUplink(from, wire, base);
    const SimTime delay =
        (sent_at - sim_->now()) +
        PerturbPropagation(profile, latency_->OneWay(from, dest));
    scratch_.push_back({this, dest, delay});
  }
  sim_->ScheduleDeliveryBatch(from, scratch_.data(), scratch_.size(),
                              std::move(msg));
}

}  // namespace optilog
