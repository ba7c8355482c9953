// Leader-side request queue with admission control and batch accounting —
// the piece both protocol harnesses share instead of a hard-coded batch
// size. The deployment owns one per consensus group and binds it into the
// engine (ConsensusEngine::BindRequestQueue).
//
// Requests enter through Push, which the leader calls from AdmitRequest
// (src/workload/workload.h), dropping on overflow and deduplicating retries
// and forwards per client; they leave in FIFO order through PopBatch, at
// most `max_batch` at a time. The batch triggers live in the engines —
// TreeRsm proposes when the queue reaches `max_batch` (size trigger) or when
// the oldest waiting request has aged `max_delay` (deadline trigger);
// PbftHarness proposes whenever no instance is open — but the queue is the
// single owner of depth/drop/duplicate statistics, so MetricsReport sees the
// same accounting for both families.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "src/sim/time.h"
#include "src/workload/messages.h"

namespace optilog {

struct BatchPolicy {
  // Size trigger: propose as soon as this many requests are waiting.
  uint32_t max_batch = 1000;
  // Deadline trigger: propose a partial batch once the oldest waiting
  // request has aged this much (0 = propose as soon as a slot is free).
  SimTime max_delay = 10 * kMsec;
  // Admission cap: requests arriving beyond this depth are dropped — the
  // backpressure signal an open-loop overload makes visible.
  size_t max_queue = size_t{1} << 20;
};

// Why a batch went out: the tree harness proposes on the size or deadline
// trigger; the PBFT harness proposes whenever no instance is open (idle).
enum class BatchTrigger { kSize, kDeadline, kIdle };

class RequestQueue {
 public:
  explicit RequestQueue(BatchPolicy policy) : policy_(policy) {}

  enum class Admit { kAccepted, kDuplicate, kDropped };

  // Admission: duplicates (a retry racing its own reply, or the same request
  // forwarded by two replicas) and overflow never enter the queue.
  Admit Push(const RequestRef& req, SimTime now);

  // Re-admits requests whose round was abandoned (reconfiguration, round
  // timeout) at the front of the queue, oldest first. Skips admission
  // control: they were already accepted once and must not count twice.
  void Requeue(std::vector<RequestRef> batch, SimTime now);

  // Up to max_batch requests, FIFO. `trigger` is what fired the proposal —
  // the harness knows; the queue only keeps the accounting.
  std::vector<RequestRef> PopBatch(SimTime now, BatchTrigger trigger);

  bool empty() const { return queue_.empty(); }
  size_t depth() const { return queue_.size(); }
  SimTime front_enqueued_at() const { return queue_.front().enqueued_at; }
  const BatchPolicy& policy() const { return policy_; }

  // --- accounting ------------------------------------------------------------
  uint64_t accepted() const { return accepted_; }
  uint64_t dropped() const { return dropped_; }
  uint64_t duplicates() const { return duplicates_; }
  size_t peak_depth() const { return peak_depth_; }
  uint64_t batches_size_triggered() const { return batches_size_triggered_; }
  uint64_t batches_deadline_triggered() const {
    return batches_deadline_triggered_;
  }
  uint64_t batches_idle_triggered() const { return batches_idle_triggered_; }

 private:
  struct Entry {
    RequestRef req;
    SimTime enqueued_at = 0;
  };
  // Per-(client, shard) duplicate window: ids below `floor` are long done;
  // ids[head, end) were admitted and not yet pruned, ascending. Clients
  // issue monotonically increasing ids per shard, so pruning the smallest
  // keeps the window tight without letting a late retry of a served request
  // back in. Keying on the shard as well as the client matters for sharded
  // deployments: one client (or one transaction coordinator) fans the same
  // id out to several shards, and a client-only window would falsely dedup
  // the later arrivals. The safe side of the trade-off: an id that ages
  // past the floor can never be re-admitted (never double-committed) even
  // if it was originally dropped — the client-side retry cap (kMaxRetries
  // in workload.cc) turns that corner into accounted abandonment instead of
  // an eternal retry loop.
  //
  // Layout: one sorted vector. The common case, a new id above every
  // windowed one, is a push_back; a retry or an out-of-order id is a binary
  // search (and, if admitted, an insert). Pruning advances `head`; the dead
  // prefix is erased once it reaches the window size, so each id is moved
  // O(1) times on average.
  struct ClientWindow {
    uint64_t floor = 0;
    std::vector<uint64_t> ids;
    size_t head = 0;
  };
  static constexpr size_t kWindowSize = 1024;

  BatchPolicy policy_;
  std::deque<Entry> queue_;
  std::map<std::pair<ReplicaId, uint32_t>, ClientWindow> windows_;
  uint64_t accepted_ = 0;
  uint64_t dropped_ = 0;
  uint64_t duplicates_ = 0;
  size_t peak_depth_ = 0;
  uint64_t batches_size_triggered_ = 0;
  uint64_t batches_deadline_triggered_ = 0;
  uint64_t batches_idle_triggered_ = 0;
};

}  // namespace optilog
