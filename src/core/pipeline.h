// OptiLog pipeline, monitor side (§4.2, Fig. 3, Table 1): OnCommit() decodes
// measurement entries in log order and dispatches them to the deterministic
// monitors, so every correct replica derives identical metrics — latency
// matrix, F, C, G, K, u, and reconfiguration decisions.
//
// The sensors (local, non-deterministic) live in the engines, one per
// replica: PbftReplica's SuspicionSensor, PbftHarness's probe rounds and
// ConfigSensor searches, TreeRsm's aggregation suspicions. Their outputs are
// signed and reach the monitors only as committed log entries (see
// DESIGN.md, "The measurement bus and the commit boundary").
#pragma once

#include "src/core/config_search.h"
#include "src/core/latency_monitor.h"
#include "src/core/measurement.h"
#include "src/core/misbehavior_monitor.h"
#include "src/core/suspicion_monitor.h"
#include "src/rsm/log.h"

namespace optilog {

class Pipeline {
 public:
  Pipeline(uint32_t n, uint32_t f, const KeyStore* keys, const ConfigSpace* space,
           ConfigMonitor::ReconfigureFn reconfigure,
           SuspicionMonitorOptions suspicion);

  // Hook this into the replica's Log. Measurement entries are decoded and
  // dispatched; command batches are ignored.
  void OnCommit(const LogEntry& entry);

  // View / leader-change notification from the protocol.
  void OnView(uint64_t view);

  const LatencyMonitor& latency_monitor() const { return latency_monitor_; }
  const MisbehaviorMonitor& misbehavior_monitor() const { return misbehavior_monitor_; }
  const SuspicionMonitor& suspicion_monitor() const { return suspicion_monitor_; }
  const ConfigMonitor& config_monitor() const { return config_monitor_; }
  ConfigMonitor& config_monitor_mutable() { return config_monitor_; }

 private:
  void DispatchMeasurement(const Measurement& m);
  // Tells the config monitor when K or u changed since the last call.
  void NotifyCandidateUpdate();

  const KeyStore* keys_;

  LatencyMonitor latency_monitor_;
  MisbehaviorMonitor misbehavior_monitor_;
  SuspicionMonitor suspicion_monitor_;
  ConfigMonitor config_monitor_;
  uint64_t last_candidate_epoch_ = 0;
};

}  // namespace optilog
