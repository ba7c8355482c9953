#include "src/obs/stage_breakdown.h"

#include <algorithm>

#include "src/util/stats.h"

namespace optilog {
namespace {

// Adds one stage's values to its sum in chain order, then sorts them for its
// percentiles.
void Fold(std::vector<double>& ms, double& sum_ms, StagePercentiles& pct) {
  for (double x : ms) {
    sum_ms += x;
  }
  std::sort(ms.begin(), ms.end());
  pct = {SortedPercentile(ms, 50.0), SortedPercentile(ms, 99.0)};
}

}  // namespace

RequestChains FoldRequestChains(const std::vector<TraceRecord>& records) {
  RequestChains chains;
  for (const TraceRecord& r : records) {
    if (r.kind < static_cast<uint16_t>(TraceKind::kClientSend) ||
        r.kind > static_cast<uint16_t>(TraceKind::kClientComplete)) {
      continue;
    }
    RequestChain& c = chains[{r.b, r.a}];
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
  return chains;
}

StageBreakdown ComputeStageBreakdown(const std::vector<TraceRecord>& records) {
  StageBreakdown out;
  std::vector<double> client_net, queue, consensus, apply, reply, total;
  for (const auto& [key, c] : FoldRequestChains(records)) {
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
    client_net.push_back(ToMs(c.admit - c.send));
    queue.push_back(ToMs(c.seal - c.admit));
    consensus.push_back(ToMs(c.commit - c.seal));
    apply.push_back(ToMs(c.reply - c.commit));
    reply.push_back(ToMs(c.complete - c.reply));
    total.push_back(ToMs(c.complete - c.send));
  }
  Fold(client_net, out.client_net_ms, out.client_net);
  Fold(queue, out.queue_ms, out.queue);
  Fold(consensus, out.consensus_ms, out.consensus);
  Fold(apply, out.apply_ms, out.apply);
  Fold(reply, out.reply_ms, out.reply);
  Fold(total, out.total_ms, out.total);
  return out;
}

}  // namespace optilog
