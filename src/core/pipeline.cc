#include "src/core/pipeline.h"

namespace optilog {

Pipeline::Pipeline(uint32_t n, uint32_t f, const KeyStore* keys,
                   const ConfigSpace* space,
                   ConfigMonitor::ReconfigureFn reconfigure,
                   SuspicionMonitorOptions suspicion)
    : keys_(keys),
      latency_monitor_(n),
      misbehavior_monitor_(n, keys),
      suspicion_monitor_(n, f, &misbehavior_monitor_, suspicion),
      config_monitor_(n, f, space, &latency_monitor_, &suspicion_monitor_,
                      std::move(reconfigure)),
      last_candidate_epoch_(suspicion_monitor_.Current().epoch) {}

void Pipeline::OnCommit(const LogEntry& entry) {
  if (entry.kind != EntryKind::kMeasurement) {
    return;
  }
  const std::optional<Measurement> m = Measurement::Decode(entry.payload);
  if (!m.has_value()) {
    return;  // undecodable garbage stays in the log for forensics only
  }
  DispatchMeasurement(*m);
}

void Pipeline::DispatchMeasurement(const Measurement& m) {
  const bool sig_valid = m.VerifySig(*keys_);
  ByteReader r(m.body);
  switch (m.kind) {
    case MeasurementKind::kLatencyVector: {
      if (!sig_valid) {
        return;
      }
      const LatencyVectorRecord rec = LatencyVectorRecord::Deserialize(r);
      if (!r.ok() || rec.reporter != m.sig.signer) {
        return;  // a replica may only report its own, well-formed vector
      }
      latency_monitor_.OnLatencyVector(rec);
      break;
    }
    case MeasurementKind::kSuspicion: {
      const SuspicionRecord rec = SuspicionRecord::Deserialize(r);
      if (sig_valid && r.ok() && rec.suspector == m.sig.signer) {
        suspicion_monitor_.OnSuspicion(rec, true);
      }
      break;
    }
    case MeasurementKind::kComplaint: {
      const ComplaintRecord rec = ComplaintRecord::Deserialize(r);
      misbehavior_monitor_.OnComplaint(
          rec, sig_valid && r.ok() && rec.accuser == m.sig.signer);
      // New provably-faulty replicas shrink the candidate universe.
      suspicion_monitor_.Recompute();
      break;
    }
    case MeasurementKind::kConfigProposal: {
      const ConfigProposalRecord rec = ConfigProposalRecord::Deserialize(r);
      config_monitor_.OnConfigProposal(
          rec, sig_valid && r.ok() && rec.proposer == m.sig.signer);
      break;
    }
  }
  NotifyCandidateUpdate();
}

void Pipeline::OnView(uint64_t view) {
  suspicion_monitor_.OnView(view);
  NotifyCandidateUpdate();
}

void Pipeline::NotifyCandidateUpdate() {
  const uint64_t epoch = suspicion_monitor_.Current().epoch;
  if (epoch != last_candidate_epoch_) {
    last_candidate_epoch_ = epoch;
    config_monitor_.OnCandidateUpdate();
  }
}

}  // namespace optilog
