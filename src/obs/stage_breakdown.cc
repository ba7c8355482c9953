#include "src/obs/stage_breakdown.h"

#include <map>
#include <utility>

namespace optilog {
namespace {

struct Chain {
  SimTime send = -1;
  SimTime admit = -1;
  SimTime seal = -1;
  SimTime commit = -1;
  SimTime reply = -1;
  SimTime complete = -1;
};

}  // namespace

StageBreakdown ComputeStageBreakdown(const std::vector<TraceRecord>& records) {
  // Keyed by (client id, request id). std::map keeps the fold order
  // deterministic; first record of each kind wins (records arrive in trace
  // order, so "first" is the earliest — retries and duplicate
  // deliveries fold away exactly as the leader's dedup folds them).
  std::map<std::pair<uint64_t, uint64_t>, Chain> chains;
  for (const TraceRecord& r : records) {
    if (r.kind < static_cast<uint16_t>(TraceKind::kClientSend) ||
        r.kind > static_cast<uint16_t>(TraceKind::kClientComplete)) {
      continue;
    }
    Chain& c = chains[{r.b, r.a}];
    switch (static_cast<TraceKind>(r.kind)) {
      case TraceKind::kClientSend:
        if (c.send < 0) c.send = r.t;
        break;
      case TraceKind::kQueueAdmit:
        if (c.admit < 0) c.admit = r.t;
        break;
      case TraceKind::kBatchSeal:
        if (c.seal < 0) c.seal = r.t;
        break;
      case TraceKind::kCommit:
        if (c.commit < 0) c.commit = r.t;
        break;
      case TraceKind::kReplySent:
        if (c.reply < 0) c.reply = r.t;
        break;
      case TraceKind::kClientComplete:
        if (c.complete < 0) c.complete = r.t;
        break;
      default:
        break;
    }
  }
  StageBreakdown out;
  for (const auto& [key, c] : chains) {
    if (c.send < 0) {
      // Not rooted at a client: a coordinator's internal 2PC record, whose
      // per-shard commits ride the transaction's own chain via the
      // coordinator-level records. Not part of the request population.
      continue;
    }
    if (c.commit < 0) {
      continue;  // never committed: not part of the committed population
    }
    if (c.admit < 0 || c.seal < 0 || c.reply < 0 || c.complete < 0) {
      ++out.incomplete;
      continue;
    }
    ++out.requests;
    out.client_net_ms += ToMs(c.admit - c.send);
    out.queue_ms += ToMs(c.seal - c.admit);
    out.consensus_ms += ToMs(c.commit - c.seal);
    out.apply_ms += ToMs(c.reply - c.commit);
    out.reply_ms += ToMs(c.complete - c.reply);
    out.total_ms += ToMs(c.complete - c.send);
  }
  return out;
}

}  // namespace optilog
