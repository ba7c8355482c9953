// Typed event-core vocabulary shared by the simulator and its clients.
//
// The simulator stores every pending event in a slab (see simulator.h) and
// distinguishes three kinds:
//
//   - Delivery: a message en route to a replica. Carries {from, to,
//     MessagePtr} inline in the slab slot — no closure is allocated on the
//     hottest path in the system.
//   - Timer: a protocol timer. Carries {TimerTarget*, tag}; the tag is
//     protocol-defined (view numbers, well-known constants, ...).
//   - Closure: the generic std::function fallback for cold paths (fault
//     injection scripts, one-off scenario hooks).
//
// EventCoreStats reports how the split worked out for a run; benches assert
// with it that the delivery path stayed closure-free.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/sim/ids.h"
#include "src/sim/message.h"
#include "src/sim/time.h"

namespace optilog {

// Generation-checked handle to a pending event: the low 32 bits are the
// slab index + 1 (so a valid id is never 0), the high 32 bits the slot
// generation at scheduling time. A slot reuse bumps the generation, which
// makes Cancel on a stale handle a no-op instead of killing the tenant.
using EventId = uint64_t;
constexpr EventId kNoEvent = 0;

// Receives typed message deliveries. The network implements this once; the
// simulator calls it straight from the slab slot.
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;
  virtual void OnDelivery(ReplicaId from, ReplicaId to, const MessagePtr& msg,
                          SimTime at) = 0;
};

// Receives typed timer expirations. Protocol harnesses and actors implement
// this; the tag disambiguates concurrent timers (e.g. one per view).
class TimerTarget {
 public:
  virtual ~TimerTarget() = default;
  virtual void OnTimer(uint64_t tag, SimTime at) = 0;
};

// Counters for the event core, surfaced through MetricsReport so every
// bench can see whether its hot path stayed on the typed lanes.
struct EventCoreStats {
  uint64_t events_executed = 0;
  uint64_t typed_deliveries = 0;  // scheduled message deliveries (fast path)
  uint64_t typed_timers = 0;      // scheduled protocol timers (fast path)
  uint64_t closure_events = 0;    // scheduled std::function events (cold path)
  uint64_t cancellations = 0;     // Cancel() calls that hit a live event
  size_t peak_slab_slots = 0;     // high-water mark of the slab
  size_t peak_pending = 0;        // high-water mark of live events
  // Time-wheel scheduler: events whose fire time fell beyond the wheel
  // horizon at schedule time and took the overflow heap instead of a bucket.
  uint64_t wheel_overflow_events = 0;
  // Message pool: Make() calls served from a recycled block vs. fresh
  // operator new. Deterministic (allocation order is the event order), so
  // compare_bench gates them exactly like the lane counters.
  uint64_t message_pool_hits = 0;
  uint64_t message_pool_misses = 0;
  // Wall-clock seconds spent inside RunUntil/RunAll, for events/sec. Host
  // time, so not fingerprinted.
  double wall_seconds = 0.0;
  // Event-core partitions the deployment ran on: always 1, since every
  // deployment (sharded ones included) schedules on one simulator. Kept for
  // report readers that still print it; not fingerprinted.
  uint32_t partitions = 1;

  // Events that skipped the generic-closure lane — each would have paid a
  // type-erased std::function (with its possible heap allocation) plus a
  // handler-map insert/erase under the old design.
  uint64_t allocations_avoided() const {
    return typed_deliveries + typed_timers;
  }
  // Fraction of message constructions served from the pool's free lists.
  double message_pool_hit_rate() const {
    const uint64_t total = message_pool_hits + message_pool_misses;
    return total > 0 ? static_cast<double>(message_pool_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }
  double events_per_sec_wall() const {
    return wall_seconds > 0.0
               ? static_cast<double>(events_executed) / wall_seconds
               : 0.0;
  }
};

}  // namespace optilog
