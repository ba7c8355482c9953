// Traffic generation: the client side of the system (§7.3's "clients issue
// requests ... throughput and end-to-end latency under client load").
//
// A ClientFleet owns `clients` WorkloadClient actors registered on the
// network at ids n .. n + clients - 1 (the deployment colocates them with
// replica cities round-robin). Clients ride the typed event lanes only —
// arrivals and retries are Timer tags, requests and replies are Deliveries —
// so a workload-driven run schedules zero closure events and keeps the
// event core's determinism invariant byte for byte (see DESIGN.md).
//
// Arrival processes:
//   - kClosedLoop: each client keeps `outstanding` requests in flight and
//     thinks for `think_time` after each completion (BFT-SMaRt-style).
//   - kOpenPoisson: exponential interarrivals drawn from the seeded Rng
//     (deterministic log implementation — no libm, so schedules are
//     bit-identical across toolchains).
// Scripted phases scale the open-loop rate over time (bursty ramps, diurnal
// patterns); the last phase's scale persists.
//
// Completion: a request is complete when the engine's quorum of distinct
// replicas (1 for the tree root, f + 1 for PBFT) have sent byte-identical
// results (ReplyQuorum); the client checks that result and stamps
// end-to-end latency from its *original* send (a retry does not reset the
// clock) into the fleet's fixed-size histogram.
// With `retry_timeout` set, an unanswered request is re-sent to the next
// replica id — how a fleet survives the crash of its target replica; the
// leader-side RequestQueue deduplicates, so re-routes never double-commit.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/net/network.h"
#include "src/rsm/metrics.h"
#include "src/statemachine/state_machine.h"
#include "src/util/rng.h"
#include "src/workload/messages.h"
#include "src/workload/reply_quorum.h"
#include "src/workload/request_queue.h"

namespace optilog {

enum class ArrivalProcess { kClosedLoop, kOpenPoisson };

// KV operation generation for deployments that execute a state machine
// (Deployment::Builder::WithStateMachine flips `enabled`). Each request
// carries a real encoded operation drawn from the client's seeded RNG; each
// reply carries the committed result, cross-checked against a per-client
// model oracle. Clients draw keys from a private range (client index tags
// the high bits), which is what makes the oracle exact: only the client's
// own ops touch its keys, and in a closed loop with one outstanding request
// its ops commit in completion order. Under multi-outstanding or open-loop
// traffic, concurrent same-key ops may verify against a transiently stale
// model; tier-1 pins use outstanding == 1.
struct KvWorkloadOptions {
  bool enabled = false;
  uint32_t keys_per_client = 16;
  uint32_t get_pct = 25;   // reads
  uint32_t put_pct = 50;   // blind writes; the remainder are read-modify-writes
};

// One scripted phase: the open-loop rate is scaled by `rate_scale` for
// `duration`; phases run in order and the last scale persists.
struct WorkloadPhase {
  SimTime duration = 0;
  double rate_scale = 1.0;
};

struct WorkloadOptions {
  uint32_t clients = 0;  // 0 = one per replica (filled by the deployment)
  ArrivalProcess arrival = ArrivalProcess::kClosedLoop;
  // Closed loop:
  uint32_t outstanding = 1;      // requests in flight per client
  SimTime think_time = 0;        // pause after each completion
  // Open loop (per client, at phase scale 1):
  double rate_per_client = 100.0;  // requests per second
  std::vector<WorkloadPhase> phases;
  SimTime retry_timeout = 0;    // 0 = never re-send
  bool record_samples = true;   // keep the per-client (at, latency) series
  uint64_t seed = 1;
  BatchPolicy batch;  // leader-side batching (see request_queue.h)
  KvWorkloadOptions kv;  // real KV operations + oracle (WithStateMachine)
};

struct ClientSample {
  SimTime at;
  double latency_ms;
};

class ClientFleet;

// One client actor. All its events are typed: arrivals and think-time
// expiries fire under tag 0, the retry timer of request `id` under id + 1.
class WorkloadClient : public Actor {
 public:
  WorkloadClient(ReplicaId id, uint32_t index, ClientFleet* fleet, Rng rng)
      : id_(id), index_(index), fleet_(fleet), rng_(rng) {}

  void OnMessage(ReplicaId from, const MessagePtr& msg, SimTime at) override;
  void OnTimer(uint64_t tag, SimTime at) override;

  ReplicaId id() const { return id_; }
  const std::vector<ClientSample>& samples() const { return samples_; }

 private:
  friend class ClientFleet;
  static constexpr uint64_t kTagArrival = 0;

  void Start(SimTime now);
  void StartNewRequest(SimTime now);
  void SendAttempt(uint64_t request_id);
  // Poisson arrivals: the next one after an exponential interarrival.
  void ScheduleNextArrival(SimTime now);
  // Draws this request's KV operation from the client's private key range.
  KvOp DrawOp();
  // Model-oracle cross-check of a completed request's committed result.
  void VerifyResult(const KvOp& op, const Bytes& result);

  struct Outstanding {
    SimTime sent_at = 0;
    ReplyQuorum replies;
    uint32_t attempts = 1;
    ReplicaId target = kNoReplica;
    EventId retry = kNoEvent;
    KvOp op;  // meaningful only when the fleet generates KV ops
  };

  const ReplicaId id_;
  const uint32_t index_;
  ClientFleet* fleet_;
  Rng rng_;
  uint64_t next_request_ = 0;
  std::map<uint64_t, Outstanding> outstanding_;
  std::vector<ClientSample> samples_;
  // The oracle: what this client's private keys must hold given its
  // completed operations (see KvWorkloadOptions for the soundness window).
  std::map<uint64_t, uint64_t> model_;
};

class ClientFleet {
 public:
  // `route` names the replica new requests target (the current leader /
  // tree root); retries cycle through the other replica ids from there.
  // `reply_quorum` is the engine's (see ReplyQuorum): 1 for the tree root,
  // f + 1 for the PBFT family.
  ClientFleet(Simulator* sim, Network* net, uint32_t n, uint32_t reply_quorum,
              WorkloadOptions opts, std::function<ReplicaId()> route);

  // Issues the initial requests / schedules the first arrivals, in client
  // index order (deterministic).
  void Start();

  uint32_t size() const { return static_cast<uint32_t>(clients_.size()); }
  const WorkloadClient& client(uint32_t i) const { return *clients_.at(i); }
  const WorkloadOptions& options() const { return opts_; }

  // Client-side half of the report (sent/completed/retried/abandoned plus
  // the latency percentiles); FillQueueReport adds the RequestQueue's half.
  void FillReport(WorkloadReport& report) const;

  uint64_t completed() const { return completed_; }
  const LatencyHistogram& latency_histogram() const { return latency_hist_; }

 private:
  friend class WorkloadClient;

  double RateScaleAt(SimTime t) const;
  void RecordCompletion(SimTime delta_us_signed);

  Simulator* sim_;
  Network* net_;
  const uint32_t n_;
  const uint32_t reply_quorum_;
  WorkloadOptions opts_;
  std::function<ReplicaId()> route_;
  std::vector<std::unique_ptr<WorkloadClient>> clients_;
  std::vector<std::pair<SimTime, double>> phase_ends_;  // (end, scale)

  uint64_t sent_ = 0;
  uint64_t completed_ = 0;
  uint64_t retried_ = 0;
  uint64_t abandoned_ = 0;
  uint64_t kv_checks_ = 0;
  uint64_t kv_mismatches_ = 0;
  LatencyHistogram latency_hist_;
  RunningStat latency_stat_;
};

// Folds a leader-side queue's accounting into the report next to the
// fleet's client-side half.
inline void FillQueueReport(const RequestQueue& queue, WorkloadReport& report) {
  report.enabled = true;
  report.requests_accepted = queue.accepted();
  report.requests_dropped = queue.dropped();
  report.requests_deduped = queue.duplicates();
  report.peak_queue_depth = queue.peak_depth();
  report.batches_size_triggered = queue.batches_size_triggered();
  report.batches_deadline_triggered = queue.batches_deadline_triggered();
  report.batches_idle_triggered = queue.batches_idle_triggered();
}

// --- The leader side of the client edge --------------------------------------
// Both engine families admit, trace and reply through these three functions;
// an engine keeps only the decision of when to propose.

// A client request delivered to `receiver`. A replica other than `leader`
// forwards the same immutable message to it (a client that has not seen a
// reconfiguration, or a retry probing another replica). The leader pushes it
// into `queue` and emits kQueueAdmit when the queue accepts it. Returns true
// exactly then: the engine's cue to consider proposing.
bool AdmitRequest(Network& net, RequestQueue& queue, ReplicaId receiver,
                  ReplicaId leader, const MessagePtr& msg);

// The trace records of a proposal: kPropose for (`proposer`, `seq`, batch
// size), then one kBatchSeal per request on board.
void TraceBatch(Simulator& sim, ReplicaId proposer, uint64_t seq,
                const std::vector<RequestRef>& batch);

// `replica`'s reply to `req`, committed at `seq` with `result`: emits
// kCommit, charges the reply's MAC hash (per-client MACs rather than
// signatures, the BFT-SMaRt reply model), emits kReplySent and sends.
void SendReply(Network& net, ReplicaId replica, uint64_t seq,
               const RequestRef& req, Bytes result);

}  // namespace optilog
