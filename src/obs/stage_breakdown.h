// Per-committed-request critical-path decomposition over a trace.
//
// A committed request leaves six lifecycle records keyed by
// (request id, client id): client_send -> queue_admit -> batch_seal ->
// commit -> reply_sent -> client_complete. The breakdown telescopes the
// end-to-end latency into named stages:
//
//   client_net = queue_admit - client_send   (client WAN hop + forwarding)
//   queue      = batch_seal - queue_admit    (batching wait in RequestQueue)
//   batch      = 0 in this model             (seal and propose share one
//                                             handler; formation cost is
//                                             part of the queue stage)
//   consensus  = commit - batch_seal         (rounds / phases / 2PC)
//   apply      = reply_sent - commit         (state-machine execute at the
//                                             commit boundary)
//   reply      = client_complete - reply_sent (reply hop + quorum wait)
//
// The sums are exact-gated metrics in the trace_breakdown scenario; the
// offline twin (tools/trace_stats.py) recomputes the same decomposition from
// the exported Chrome JSON, percentiles included. Retries reuse the first
// client_send and the records of the attempt that committed (first record of
// each kind wins, matching dedup semantics at the leader).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/obs/trace.h"

namespace optilog {

// One stage's p50 and p99 in milliseconds over the complete chains, by
// linear interpolation over the exact sorted values (SortedPercentile, the
// rule tools/trace_stats.py applies).
struct StagePercentiles {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct StageBreakdown {
  uint64_t requests = 0;    // requests with the full six-record chain
  uint64_t incomplete = 0;  // committed but missing a lifecycle record
  // Stage sums in milliseconds across all complete chains.
  double client_net_ms = 0.0;
  double queue_ms = 0.0;
  double batch_ms = 0.0;
  double consensus_ms = 0.0;
  double apply_ms = 0.0;
  double reply_ms = 0.0;
  double total_ms = 0.0;  // telescoped end-to-end sum (== stage sum)
  // Per-stage spread (batch is 0 by construction and has none).
  StagePercentiles client_net;
  StagePercentiles queue;
  StagePercentiles consensus;
  StagePercentiles apply;
  StagePercentiles reply;
  StagePercentiles total;
};

// One request's six lifecycle instants; -1 where no record of that kind
// was seen.
struct RequestChain {
  SimTime send = -1;
  SimTime admit = -1;
  SimTime seal = -1;
  SimTime commit = -1;
  SimTime reply = -1;
  SimTime complete = -1;
};

// Every request's chain, keyed by (client id, request id). std::map keeps
// the fold order deterministic; the first record of each kind wins (records
// arrive in trace order, so "first" is the earliest — retries and duplicate
// deliveries fold away exactly as the leader's dedup folds them).
using RequestChains = std::map<std::pair<uint64_t, uint64_t>, RequestChain>;
RequestChains FoldRequestChains(const std::vector<TraceRecord>& records);

StageBreakdown ComputeStageBreakdown(const std::vector<TraceRecord>& records);

}  // namespace optilog
