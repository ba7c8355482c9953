// The protocol seam of the deployment API (§4.2's claim made concrete): the
// OptiLog pipeline is protocol-agnostic — sensors propose, deterministic
// monitors decide — so every protocol harness exposes the same lifecycle:
// install a configuration, start, report unified metrics. `Deployment`
// builds engines and owns their substrate; new protocols plug in by
// implementing this interface (see DESIGN.md, "Engines and the deployment
// layer").
#pragma once

#include "src/core/measurement.h"
#include "src/rsm/metrics.h"

namespace optilog {

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

  // Unified metrics snapshot: the protocol and client fields (counts,
  // latency, throughput series, workload). The Deployment adds the
  // substrate fields it owns: event core, wire, crypto and state machine.
  virtual MetricsReport Metrics() const = 0;
};

}  // namespace optilog
