// The protocol seam of the deployment API (§4.2's claim made concrete): the
// OptiLog pipeline is protocol-agnostic — sensors propose, deterministic
// monitors decide — so every protocol harness exposes the same lifecycle:
// install a configuration, start, report unified metrics. `Deployment`
// builds engines and owns their substrate and their client side (the request
// queue and the client fleet); new protocols plug in by implementing this
// interface (see DESIGN.md, "Engines and the deployment layer").
#pragma once

#include "src/core/measurement.h"
#include "src/rsm/metrics.h"

namespace optilog {

class RequestQueue;
class RsmGroup;

class ConsensusEngine {
 public:
  virtual ~ConsensusEngine() = default;

  // Installs a configuration (§2: an assignment of roles, possibly encoding
  // topology). Tree engines decode the parent vector; weighted-PBFT engines
  // read leader + Vmax. May be called before Start (initial configuration)
  // or mid-run (forced reconfiguration).
  virtual void SetTopologyOrConfig(const RoleConfig& config) = 0;

  // Begins proposing. Idempotent per run; drive the simulation afterwards.
  virtual void Start() = 0;

  // The active configuration in RoleConfig form.
  virtual RoleConfig ActiveConfig() const = 0;

  // The replica that admits client requests and proposes them: the tree
  // root, or the PBFT leader. Clients send new requests here, and every
  // other replica forwards what it receives here (AdmitRequest).
  virtual ReplicaId Leader() const = 0;

  // Matching replies a client needs before it takes a result (ReplyQuorum):
  // 1 for the tree root's commit-stamped reply, f + 1 for the PBFT family.
  virtual uint32_t RepliesNeeded() const = 0;

  // The deployment's request queue and state machines, bound before Start:
  // the engine proposes the queue's requests, executes them at commit and
  // replies with the results. It never touches either during destruction.
  virtual void BindRequestQueue(RequestQueue* queue) = 0;
  virtual void BindStateMachine(RsmGroup* group) = 0;

  // Unified metrics snapshot: the protocol fields (counts, latency,
  // throughput series). The Deployment adds the fields it owns: workload,
  // event core, wire, crypto and state machine.
  virtual MetricsReport Metrics() const = 0;
};

}  // namespace optilog
