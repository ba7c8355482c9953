// Per-replica Byzantine behavior knobs consumed by the Network and by
// protocol implementations. The fault model is configuration, not mechanism:
// protocols query it to decide whether to misbehave; the network queries it
// to perturb deliveries. Correct replicas have the default-constructed
// behavior.
#pragma once

#include <limits>
#include <unordered_map>

#include "src/crypto/signature.h"
#include "src/sim/time.h"

namespace optilog {

struct ReplicaFaults {
  // Replica stops sending and receiving at this time (crash fault).
  SimTime crash_at = std::numeric_limits<SimTime>::max();

  // Replica restarts at this time: the crash window is [crash_at,
  // recover_at). The restarted process is amnesiac — it rejoins the network
  // immediately but holds no state; deployments with a state machine attach
  // a recovery session (snapshot + log-suffix transfer, src/statemachine/)
  // that catches it up to the commit frontier.
  SimTime recover_at = std::numeric_limits<SimTime>::max();

  // Outbound messages are delayed by this multiplicative factor (timing
  // fault; 1.0 = honest). Fig. 11's attackers use 1.1 / 1.2 / 1.4.
  double outbound_delay_factor = 1.0;

  // Additional fixed delay applied to outbound *proposal* messages only —
  // the Pre-Prepare delay attack of Fig. 7.
  SimTime proposal_delay = 0;

  // Responds to probe rounds honestly but delays protocol messages — the
  // "fast probes, slow protocol" attacker Aware cannot detect (§5). Read by
  // the analytic probe rounds (PbftHarness::RunProbeRound).
  bool fast_probes = false;

  bool IsByzantine() const {
    return crash_at != std::numeric_limits<SimTime>::max() ||
           outbound_delay_factor != 1.0 || proposal_delay != 0 || fast_probes;
  }
};

class FaultModel {
 public:
  const ReplicaFaults& Of(ReplicaId id) const {
    static const ReplicaFaults kHonest;
    // All-honest deployments (every perf sweep) skip the hash probe that
    // would otherwise run once per scheduled delivery.
    if (faults_.empty()) {
      return kHonest;
    }
    auto it = faults_.find(id);
    return it == faults_.end() ? kHonest : it->second;
  }

  ReplicaFaults& Mutable(ReplicaId id) { return faults_[id]; }

  // True inside the crash window [crash_at, recover_at). Every consumer —
  // Network drop-at-delivery, Multicast skip, Multicast's loopback, probe
  // rounds, state-machine execution — shares this one predicate, so recovery
  // semantics stay consistent across layers.
  bool IsCrashedAt(ReplicaId id, SimTime now) const {
    const ReplicaFaults& f = Of(id);
    return now >= f.crash_at && now < f.recover_at;
  }

 private:
  std::unordered_map<ReplicaId, ReplicaFaults> faults_;
};

}  // namespace optilog
