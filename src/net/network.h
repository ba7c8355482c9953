// Simulated message-passing network.
//
// Send() schedules a delivery event at now + one_way(from, to), perturbed by
// the sender's fault model: crashed senders send nothing, delay-attackers
// get a multiplicative factor, and proposal-delay attackers add a fixed
// offset to messages flagged as proposals. Receivers that have crashed drop
// deliveries. Per the system model (§2), an adversary cannot delay traffic
// between two correct replicas, so only *sender-side* faults perturb links.
//
// Deliveries ride the simulator's typed fast path: the network is the
// DeliverySink, Send/Multicast schedule {from, to, msg} slab events, and no
// closure is allocated per message. Multicast shares one immutable message
// across all recipients, evaluates the sender's fault profile and the
// proposal classifier once, looks up each destination's latency into a
// scratch batch, and hands the whole fan-out to the simulator in one
// ScheduleDeliveryBatch pass (one slab reservation, one refcount bump, no
// per-recipient heap push). Actor and uplink tables are dense vectors
// indexed by ReplicaId — ids are assigned contiguously from 0.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/crypto/cost_model.h"
#include "src/net/fault_model.h"
#include "src/net/latency_model.h"
#include "src/sim/actor.h"
#include "src/sim/simulator.h"

namespace optilog {

struct NetworkStats {
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t bytes_sent = 0;
};

class Network : private DeliverySink {
 public:
  Network(Simulator* sim, const LatencyModel* latency, const FaultModel* faults)
      : sim_(sim), latency_(latency), faults_(faults) {
    loopback_.net = this;
  }

  void Register(ReplicaId id, Actor* actor) {
    if (id >= actors_.size()) {
      actors_.resize(id + 1, nullptr);
    }
    actors_[id] = actor;
  }

  // Per-replica outbound bandwidth in bits/s. 0 disables serialization
  // delay. Multicasts serialize one copy per recipient, which is what makes
  // a star leader the bottleneck that tree overlays (Kauri, §6.1.1) remove.
  void SetBandwidthBps(double bps) { bandwidth_bps_ = bps; }
  double bandwidth_bps() const { return bandwidth_bps_; }

  // Attaches a CryptoCostModel: protocols charge sign/verify/hash work to
  // the meter, and every send departs no earlier than the sender's CPU
  // busy-until horizon (crypto backlog delays sends the way bandwidth
  // backlog does). Disabled by default; with no meter attached the send
  // path is byte-identical to the pre-cost-model behavior.
  void EnableCpuCost(const CryptoCostModel& model) {
    cpu_ = std::make_unique<CpuMeter>(model);
  }
  CpuMeter* cpu() { return cpu_.get(); }
  const CpuMeter* cpu() const { return cpu_.get(); }

  // Classification hook: messages for which this returns true receive the
  // sender's proposal_delay. Protocols set it to match their Propose /
  // Pre-Prepare type.
  void SetProposalClassifier(std::function<bool(const Message&)> fn) {
    is_proposal_ = std::move(fn);
  }

  void Send(ReplicaId from, ReplicaId to, MessagePtr msg);
  // A recipient equal to `from` gets its copy through a zero-delay loopback
  // that, like Send, honors a receiver crash landing between scheduling and
  // delivery. Loopback traffic never touches the wire, so it is excluded
  // from NetworkStats.
  void Multicast(ReplicaId from, const std::vector<ReplicaId>& to, MessagePtr msg);

  const NetworkStats& stats() const { return stats_; }
  Simulator* sim() { return sim_; }
  const LatencyModel* latency() const { return latency_; }
  const FaultModel* faults() const { return faults_; }

 private:
  // Zero-delay self deliveries skip the wire-facing bookkeeping of the main
  // sink but share its crash-at-delivery semantics.
  struct LoopbackSink : DeliverySink {
    void OnDelivery(ReplicaId from, ReplicaId to, const MessagePtr& msg,
                    SimTime at) override;
    Network* net = nullptr;
  };

  // DeliverySink: receiver-side checks run at delivery time.
  void OnDelivery(ReplicaId from, ReplicaId to, const MessagePtr& msg,
                  SimTime at) override;

  // Sender-side facts that hold for every copy of one message: whether the
  // sender's delay factor applies and any proposal-delay offset. Computed
  // once per Send and once per Multicast, then applied per destination by
  // PerturbPropagation — the single place delivery-delay policy lives.
  struct OutboundProfile {
    double delay_factor = 1.0;  // 1.0 = honest
    SimTime proposal_extra = 0;
  };
  OutboundProfile ClassifyOutbound(ReplicaId from, const Message& msg) const;
  SimTime PerturbPropagation(const OutboundProfile& profile,
                             SimTime propagation) const;

  // Time the sender's NIC finishes serializing this message; advances the
  // per-sender busy horizon. Serialization starts no earlier than
  // `not_before` (the sender's CPU-ready instant when a cost model is
  // attached; now() otherwise).
  SimTime OccupyUplink(ReplicaId from, size_t bytes, SimTime not_before);

  // Departure base for `from`'s next send: the CPU-ready instant under a
  // cost model, now() without one.
  SimTime SendBase(ReplicaId from) const {
    return cpu_ != nullptr ? cpu_->ReadyAt(from, sim_->now()) : sim_->now();
  }

  // Dense actor table; a hole (nullptr) is an unregistered id.
  Actor* ActorOf(ReplicaId id) const {
    return id < actors_.size() ? actors_[id] : nullptr;
  }

  Simulator* sim_;
  const LatencyModel* latency_;
  const FaultModel* faults_;
  std::vector<Actor*> actors_;
  std::vector<SimTime> uplink_free_at_;
  // Reused per Multicast; building the fan-out here keeps the hot path free
  // of per-call vector allocations once it reaches steady-state size.
  std::vector<Simulator::BatchDelivery> scratch_;
  double bandwidth_bps_ = 0.0;
  std::unique_ptr<CpuMeter> cpu_;  // null = cost model disabled
  std::function<bool(const Message&)> is_proposal_;
  LoopbackSink loopback_;
  NetworkStats stats_;
};

}  // namespace optilog
