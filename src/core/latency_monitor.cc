#include "src/core/latency_monitor.h"

#include <atomic>

namespace optilog {

uint64_t LatencyMatrix::NextVersion() {
  // Deployments run on parallel runner threads; relaxed order suffices for
  // uniqueness.
  static std::atomic<uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

void LatencyMonitor::OnLatencyVector(const LatencyVectorRecord& rec) {
  if (rec.reporter >= matrix_.size()) {
    return;  // Byzantine garbage: ignore but keep the log record for forensics.
  }
  const size_t limit = std::min<size_t>(rec.rtt_units.size(), matrix_.size());
  for (size_t peer = 0; peer < limit; ++peer) {
    if (peer == rec.reporter) {
      continue;
    }
    matrix_.Record(rec.reporter, static_cast<ReplicaId>(peer),
                   DecodeRttMs(rec.rtt_units[peer]));
  }
  ++vectors_applied_;
}

}  // namespace optilog
