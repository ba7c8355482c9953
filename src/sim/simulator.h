// Discrete-event simulation engine.
//
// The simulator owns a virtual clock, a slab of event slots, and a bucketed
// time-wheel scheduler (with an overflow heap for far-future events). Events
// scheduled at the same instant run in scheduling order (a monotonically
// increasing sequence number breaks ties), which makes runs bit-for-bit
// reproducible regardless of event kind. Cancellation bumps the slot's
// generation and returns the slot to the free list; a wheel-resident event
// is unlinked from its bucket chain on the spot, while an overflow key is
// skipped at pop time by the generation mismatch — either way pending()
// stays exact under any Cancel/Step/RunUntil interleaving (pinned against a
// sorted reference model by the time-wheel differential test).
//
// Time wheel geometry: kWheelBuckets buckets of kBucketWidth microseconds
// cover a rolling horizon of ~1 simulated second. An event inside the
// horizon chains into the bucket of its tick (at >> kBucketShift) through
// the intrusive `next` index in its slot, kept sorted by (time, seq); one
// bucket holds at most one tick's events at a time, so the cursor executes
// chains front-to-back in exact global order. Events beyond the horizon wait
// in a (time, seq) min-heap and migrate into buckets as the cursor advances
// past tick boundaries. Insertion, cancellation, and pop are O(chain) with
// chains that stay O(1) at protocol densities — no O(log pending) heap
// traffic on the hot path.
//
// Three event kinds share the slab (see event_core.h): typed message
// deliveries and typed timers carry their payload inline in the slot —
// the hot paths never allocate a closure — while std::function events
// remain as the cold-path fallback. The simulator also owns the MessagePool
// every protocol message is carved from: the pool must outlive the pending
// slots holding MessagePtrs, and sharded deployments scheduling many groups
// on one simulator then share one pool (same confinement thread).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/obs/trace.h"
#include "src/sim/event_core.h"
#include "src/sim/time.h"
#include "src/util/check.h"

namespace optilog {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // The pool protocol messages scheduled on this simulator are carved from.
  MessagePool& pool() { return pool_; }

  // Capacity reservation from a topology-derived estimate of peak pending
  // events (Deployment::Builder calls this), eliminating mid-run vector
  // growth. Additive: sharded deployments call it once per group.
  void ReserveHint(size_t expected_peak_events);
  // Current slab capacity (for "no growth after warm-up" assertions).
  size_t slab_capacity() const { return slots_.capacity(); }

  // Cold path: schedules `fn` to run at absolute time `at` (clamped to
  // now()). Reserved for one-off scenario hooks; protocol hot paths use the
  // typed variants below.
  EventId ScheduleAt(SimTime at, std::function<void()> fn);

  // Cold path: schedules `fn` after a relative delay.
  EventId ScheduleAfter(SimTime delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Fast path: schedules `sink->OnDelivery(from, to, msg, at)` after
  // `delay`. The message pointer is stored inline in the slab slot.
  EventId ScheduleDelivery(SimTime delay, DeliverySink* sink, ReplicaId from,
                           ReplicaId to, MessagePtr msg);

  // Bulk multicast fast path: one entry per recipient, scheduled in array
  // order (so the (time, seq) assignment matches an equivalent loop of
  // ScheduleDelivery calls exactly). Acquires all slab slots in one
  // reservation pass and transfers one refcounted message reference per slot
  // with a single AddRef, instead of one atomic-free bump per recipient.
  struct BatchDelivery {
    DeliverySink* sink;
    ReplicaId to;
    SimTime delay;
  };
  void ScheduleDeliveryBatch(ReplicaId from, const BatchDelivery* entries,
                             size_t count, MessagePtr msg);

  // Fast path: schedules `target->OnTimer(tag, at)` after `delay` /
  // at absolute time `at` (clamped to now()).
  EventId ScheduleTimer(TimerTarget* target, uint64_t tag, SimTime delay) {
    return ScheduleTimerAt(now_ + delay, target, tag);
  }
  EventId ScheduleTimerAt(SimTime at, TimerTarget* target, uint64_t tag);

  // Cancels a pending event; no-op if it already ran, was cancelled, or the
  // slot has been reused (generation mismatch).
  void Cancel(EventId id);

  // Runs the next event. Returns false if the queue is empty.
  bool Step();

  // Runs all events with time <= t, then sets the clock to t.
  void RunUntil(SimTime t);
  void RunFor(SimTime d) { RunUntil(now_ + d); }

  // Drains the queue completely (use with care: protocols with periodic
  // timers never drain).
  void RunAll();

  // Exact count of live (scheduled, not yet run or cancelled) events.
  size_t pending() const { return live_; }
  uint64_t events_executed() const { return stats_.events_executed; }

  // --- flight recorder (src/obs/trace.h) ---------------------------------

  // Attaches a TraceRecorder to this simulator. Off by default; when off the
  // event hot path pays exactly one null test per dispatch. Recording is
  // schedule-neutral: it never schedules events or perturbs (at, seq)
  // assignment, so fingerprints are identical with tracing on or off. Must
  // precede scheduling, so that every dispatch record has its parent stamped.
  void EnableTrace() {
    if (trace_own_ != nullptr) {
      return;  // already on
    }
    OL_CHECK_MSG(live_ == 0, "tracing must be enabled before scheduling");
    trace_own_ = std::make_unique<TraceRecorder>();
    trace_ = trace_own_.get();
  }
  TraceRecorder* trace() { return trace_; }
  const TraceRecorder* trace() const { return trace_; }

  // Fire time of the earliest live event; false when nothing is pending.
  bool PeekEarliest(SimTime* at);

  // Snapshot of the run counters with the pool counters folded in.
  EventCoreStats event_core_stats() const {
    EventCoreStats s = stats_;
    s.message_pool_hits = pool_.hits();
    s.message_pool_misses = pool_.misses();
    return s;
  }

 private:
  enum class Kind : uint8_t { kClosure, kDelivery, kTimer };

  static constexpr uint32_t kNil = 0xffffffffu;
  // 16384 buckets x 64 us = a ~1.05 s rolling horizon. WAN one-way delays
  // (tens to hundreds of ms) land in buckets; multi-second protocol timers
  // take the overflow heap and migrate in as the cursor approaches.
  static constexpr int kBucketShift = 6;                 // 64 us per bucket
  static constexpr uint64_t kWheelBuckets = 1u << 14;    // power of two
  static constexpr uint64_t kWheelMask = kWheelBuckets - 1;

  // One slab slot. Payload members for the kinds overlap in spirit but stay
  // separate fields: the closure and message are cleared on release, so a
  // recycled slot carries no stale ownership. The wheel threads its bucket
  // chains through `next` and orders them by the slot's own (at, seq).
  struct Slot {
    uint32_t gen = 1;
    Kind kind = Kind::kClosure;
    bool in_wheel = false;        // bucket-chain resident (vs. overflow)
    ReplicaId from = kNoReplica;  // delivery
    ReplicaId to = kNoReplica;    // delivery
    uint64_t tag = 0;             // timer
    SimTime at = 0;               // fire time (wheel ordering + cancel unlink)
    uint64_t seq = 0;             // global schedule order (tie-break)
    uint32_t next = kNil;         // intrusive bucket chain link
    uint64_t trace_parent = 0;    // causal parent record id (tracing only)
    DeliverySink* sink = nullptr;
    TimerTarget* target = nullptr;
    MessagePtr msg;
    std::function<void()> fn;
  };

  // Overflow keys are tiny; the payload stays put in the slab. `gen` detects
  // keys whose slot was cancelled (and possibly reused) since the push.
  struct Key {
    SimTime at;
    uint64_t seq;
    uint32_t index;
    uint32_t gen;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  static uint64_t TickOf(SimTime at) {
    return static_cast<uint64_t>(at) >> kBucketShift;
  }

  // Claims a free slot (or grows the slab) and returns its index.
  uint32_t AcquireSlot();
  // Bumps the generation, drops owned payload, and recycles the slot.
  void ReleaseSlot(uint32_t index);
  // Stamps (at, seq), routes the just-filled slot to the wheel or the
  // overflow heap, and returns its EventId.
  EventId Commit(SimTime at, uint32_t index);

  // Wheel internals (see the design note at the top).
  void EnsureWheel();
  void InsertWheel(uint32_t index, uint64_t tick);
  void UnlinkWheel(uint32_t index);
  void AdvanceCursorTo(uint64_t tick);  // migrates newly in-horizon overflow
  // Locates the next live event without mutating wheel state. Returns false
  // when nothing is pending; otherwise fills (index, from_wheel).
  bool PeekNext(uint32_t* index, bool* from_wheel);
  // Pops exactly the event PeekNext reported and runs it.
  void Execute(uint32_t index, bool from_wheel);
  // Advances the clock to the slot's fire time, counts it, moves the payload
  // out, recycles the slot, and invokes the handler.
  void Dispatch(uint32_t index);

  // Min-heap over `heap_` (std::push_heap/pop_heap with Later), reservable:
  // the wheel's overflow store.
  void HeapPush(Key key);
  void HeapPop();
  const Key& HeapTop() const { return heap_.front(); }

  static EventId PackId(uint32_t index, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) |
           static_cast<EventId>(index + 1);
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  size_t live_ = 0;

  // Flight recorder (EnableTrace); null on the default, zero-cost path.
  std::unique_ptr<TraceRecorder> trace_own_;
  TraceRecorder* trace_ = nullptr;

  // Wheel state, allocated lazily on the first schedule (tests that only
  // poke the API shouldn't pay 128 KB per Simulator).
  std::vector<uint32_t> bucket_head_;
  std::vector<uint32_t> bucket_tail_;
  uint64_t current_tick_ = 0;  // == now_ >> kBucketShift after every run
  size_t wheel_live_ = 0;
  // Lower bound on the minimum live wheel tick; lets PeekNext skip empty
  // stretches instead of rescanning from the cursor every pop.
  uint64_t min_tick_hint_ = 0;

  std::vector<Key> heap_;  // wheel overflow
  // Declared before slots_: members are destroyed in reverse declaration
  // order, and pending slots hold MessagePtrs whose release recycles into
  // the pool — it must still be alive when slots_ is torn down.
  MessagePool pool_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  size_t hint_total_ = 0;  // accumulated ReserveHint across shard groups
  EventCoreStats stats_;
};

}  // namespace optilog
