#include "src/sim/simulator.h"

#include <algorithm>

namespace optilog {
namespace {

// Accumulates wall-clock time spent inside a run loop into `*sink`.
class WallTimer {
 public:
  explicit WallTimer(double* sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~WallTimer() {
    *sink_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start_)
                  .count();
  }

 private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

void Simulator::ReserveHint(size_t expected_peak_events) {
  hint_total_ += expected_peak_events;
  slots_.reserve(hint_total_);
  free_slots_.reserve(hint_total_);
  heap_.reserve(hint_total_);
  EnsureWheel();
}

uint32_t Simulator::AcquireSlot() {
  if (!free_slots_.empty()) {
    const uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  slots_.emplace_back();
  stats_.peak_slab_slots = std::max(stats_.peak_slab_slots, slots_.size());
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulator::ReleaseSlot(uint32_t index) {
  Slot& slot = slots_[index];
  ++slot.gen;
  slot.in_wheel = false;
  slot.next = kNil;
  slot.msg.reset();
  slot.fn = nullptr;
  slot.sink = nullptr;
  slot.target = nullptr;
  free_slots_.push_back(index);
  --live_;
}

void Simulator::EnsureWheel() {
  if (bucket_head_.empty()) {
    bucket_head_.assign(kWheelBuckets, kNil);
    bucket_tail_.assign(kWheelBuckets, kNil);
  }
}

void Simulator::HeapPush(Key key) {
  heap_.push_back(key);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::HeapPop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

void Simulator::InsertWheel(uint32_t index, uint64_t tick) {
  Slot& slot = slots_[index];
  const size_t b = static_cast<size_t>(tick & kWheelMask);
  slot.in_wheel = true;
  slot.next = kNil;
  const uint32_t tail = bucket_tail_[b];
  if (tail == kNil) {
    bucket_head_[b] = index;
    bucket_tail_[b] = index;
  } else if (slots_[tail].at <= slot.at) {
    // Fresh schedules carry the globally largest seq, so the chain order
    // (at, seq) permits a tail append whenever the fire times don't invert —
    // the overwhelmingly common case.
    slots_[tail].next = index;
    bucket_tail_[b] = index;
  } else {
    // Out-of-order fire time within the tick (or an overflow migration
    // landing behind younger residents): walk for the insertion point.
    uint32_t prev = kNil;
    uint32_t cur = bucket_head_[b];
    while (cur != kNil &&
           (slots_[cur].at < slot.at ||
            (slots_[cur].at == slot.at && slots_[cur].seq < slot.seq))) {
      prev = cur;
      cur = slots_[cur].next;
    }
    slot.next = cur;
    if (prev == kNil) {
      bucket_head_[b] = index;
    } else {
      slots_[prev].next = index;
    }
    if (cur == kNil) {
      bucket_tail_[b] = index;
    }
  }
  if (wheel_live_ == 0 || tick < min_tick_hint_) {
    min_tick_hint_ = tick;
  }
  ++wheel_live_;
}

void Simulator::UnlinkWheel(uint32_t index) {
  Slot& slot = slots_[index];
  const size_t b = static_cast<size_t>(TickOf(slot.at) & kWheelMask);
  uint32_t prev = kNil;
  uint32_t cur = bucket_head_[b];
  while (cur != index) {
    prev = cur;
    cur = slots_[cur].next;
  }
  if (prev == kNil) {
    bucket_head_[b] = slot.next;
  } else {
    slots_[prev].next = slot.next;
  }
  if (slot.next == kNil) {
    bucket_tail_[b] = prev;
  }
  slot.next = kNil;
  slot.in_wheel = false;
  --wheel_live_;
}

void Simulator::AdvanceCursorTo(uint64_t tick) {
  if (tick <= current_tick_) {
    return;
  }
  // Everything earlier than the event (or RunUntil target) driving this
  // advance has already executed, so the overflow minimum is >= `tick`:
  // the migration window [tick, tick + kWheelBuckets) spans at most one
  // full wheel turn and every freed bucket is empty — the one-tick-per-
  // bucket invariant survives the advance.
  const uint64_t new_limit = tick + kWheelBuckets;
  while (!heap_.empty()) {
    const Key top = HeapTop();
    if (TickOf(top.at) >= new_limit) {
      break;
    }
    HeapPop();
    if (slots_[top.index].gen != top.gen) {
      continue;  // cancelled while waiting in overflow
    }
    InsertWheel(top.index, TickOf(top.at));
  }
  current_tick_ = tick;
}

EventId Simulator::Commit(SimTime at, uint32_t index) {
  at = std::max(at, now_);
  Slot& slot = slots_[index];
  slot.at = at;
  slot.seq = next_seq_++;
  if (trace_ != nullptr) {
    slot.trace_parent = trace_->current();
  }
  ++live_;
  stats_.peak_pending = std::max(stats_.peak_pending, live_);
  EnsureWheel();
  const uint64_t tick = TickOf(at);
  if (tick < current_tick_ + kWheelBuckets) {
    InsertWheel(index, tick);
  } else {
    slot.in_wheel = false;
    HeapPush(Key{at, slot.seq, index, slot.gen});
    ++stats_.wheel_overflow_events;
  }
  return PackId(index, slot.gen);
}

EventId Simulator::ScheduleAt(SimTime at, std::function<void()> fn) {
  const uint32_t index = AcquireSlot();
  Slot& slot = slots_[index];
  slot.kind = Kind::kClosure;
  slot.fn = std::move(fn);
  ++stats_.closure_events;
  return Commit(at, index);
}

EventId Simulator::ScheduleDelivery(SimTime delay, DeliverySink* sink,
                                    ReplicaId from, ReplicaId to,
                                    MessagePtr msg) {
  const uint32_t index = AcquireSlot();
  Slot& slot = slots_[index];
  slot.kind = Kind::kDelivery;
  slot.sink = sink;
  slot.from = from;
  slot.to = to;
  slot.msg = std::move(msg);
  ++stats_.typed_deliveries;
  return Commit(now_ + delay, index);
}

void Simulator::ScheduleDeliveryBatch(ReplicaId from,
                                      const BatchDelivery* entries,
                                      size_t count, MessagePtr msg) {
  if (count == 0) {
    return;
  }
  // Grow the slab once up front so the per-entry acquisitions below never
  // reallocate mid-pass.
  if (free_slots_.size() < count) {
    slots_.reserve(slots_.size() + (count - free_slots_.size()));
  }
  // Transfer the caller's reference plus (count - 1) more in one bump; each
  // slot then adopts one already-counted reference.
  const Message* raw = msg.Detach();
  if (raw != nullptr && count > 1) {
    raw->AddRef(static_cast<uint32_t>(count - 1));
  }
  for (size_t i = 0; i < count; ++i) {
    const uint32_t index = AcquireSlot();
    Slot& slot = slots_[index];
    slot.kind = Kind::kDelivery;
    slot.sink = entries[i].sink;
    slot.from = from;
    slot.to = entries[i].to;
    slot.msg = MessagePtr::Adopt(raw);
    ++stats_.typed_deliveries;
    Commit(now_ + entries[i].delay, index);
  }
}

EventId Simulator::ScheduleTimerAt(SimTime at, TimerTarget* target,
                                   uint64_t tag) {
  const uint32_t index = AcquireSlot();
  Slot& slot = slots_[index];
  slot.kind = Kind::kTimer;
  slot.target = target;
  slot.tag = tag;
  ++stats_.typed_timers;
  return Commit(at, index);
}

void Simulator::Cancel(EventId id) {
  if (id == kNoEvent) {
    return;
  }
  const uint32_t index = static_cast<uint32_t>(id & 0xffffffffu) - 1;
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (index >= slots_.size() || slots_[index].gen != gen) {
    return;  // already ran, already cancelled, or slot reused
  }
  if (slots_[index].in_wheel) {
    UnlinkWheel(index);
  }
  // Overflow residents just leave a generation-mismatched key that the pop
  // paths skip (without counting it as executed).
  ReleaseSlot(index);
  ++stats_.cancellations;
}

bool Simulator::PeekNext(uint32_t* index, bool* from_wheel) {
  if (wheel_live_ > 0) {
    // The horizon invariant guarantees every wheel resident fires before
    // every overflow resident, so the first non-empty bucket at or after the
    // hint holds the global minimum at its chain head. The hint only moves
    // forward over verified-empty buckets, making the scan amortized O(1).
    uint64_t tick = std::max(min_tick_hint_, current_tick_);
    for (;;) {
      const uint32_t head = bucket_head_[static_cast<size_t>(tick & kWheelMask)];
      if (head != kNil) {
        min_tick_hint_ = tick;
        *index = head;
        *from_wheel = true;
        return true;
      }
      ++tick;
    }
  }
  while (!heap_.empty()) {
    const Key& top = HeapTop();
    if (slots_[top.index].gen == top.gen) {
      *index = top.index;
      *from_wheel = false;
      return true;
    }
    HeapPop();  // stale: cancelled while waiting; not an executed event
  }
  return false;
}

void Simulator::Dispatch(uint32_t index) {
  Slot& slot = slots_[index];
  now_ = slot.at;
  ++stats_.events_executed;
  TraceRecorder* const tr = trace_;
  const uint64_t tparent = tr != nullptr ? slot.trace_parent : 0;
  // Move the payload out before releasing: the handler may schedule new
  // events, which can recycle this very slot (and grow the slab, so the
  // `slot` reference must not outlive ReleaseSlot either).
  switch (slot.kind) {
    case Kind::kDelivery: {
      DeliverySink* sink = slot.sink;
      const ReplicaId from = slot.from;
      const ReplicaId to = slot.to;
      MessagePtr msg = std::move(slot.msg);
      ReleaseSlot(index);
      if (tr != nullptr) {
        // type packs (family << 8) | message type; the current context is
        // this dispatch for everything the handler schedules or emits.
        const uint16_t tag =
            msg ? static_cast<uint16_t>(
                      (static_cast<uint16_t>(msg->family()) << 8) |
                      (static_cast<uint16_t>(msg->type()) & 0xff))
                : 0;
        tr->SetCurrent(tr->Emit(now_, TraceKind::kDispatchDelivery, tag, to,
                                from, 0, tparent));
      }
      sink->OnDelivery(from, to, msg, now_);
      break;
    }
    case Kind::kTimer: {
      TimerTarget* target = slot.target;
      const uint64_t tag = slot.tag;
      ReleaseSlot(index);
      if (tr != nullptr) {
        tr->SetCurrent(tr->Emit(now_, TraceKind::kDispatchTimer, 0, 0, tag, 0,
                                tparent));
      }
      target->OnTimer(tag, now_);
      break;
    }
    case Kind::kClosure: {
      std::function<void()> fn = std::move(slot.fn);
      ReleaseSlot(index);
      if (tr != nullptr) {
        tr->SetCurrent(
            tr->Emit(now_, TraceKind::kDispatchClosure, 0, 0, 0, 0, tparent));
      }
      fn();
      break;
    }
  }
  if (tr != nullptr) {
    tr->SetCurrent(0);
  }
}

void Simulator::Execute(uint32_t index, bool from_wheel) {
  Slot& slot = slots_[index];
  if (from_wheel) {
    // PeekNext reported the chain head of the first non-empty bucket; pop it.
    const size_t b = static_cast<size_t>(TickOf(slot.at) & kWheelMask);
    bucket_head_[b] = slot.next;
    if (slot.next == kNil) {
      bucket_tail_[b] = kNil;
    }
    slot.next = kNil;
    slot.in_wheel = false;
    --wheel_live_;
  } else {
    HeapPop();
  }
  AdvanceCursorTo(TickOf(slot.at));
  Dispatch(index);
}

bool Simulator::Step() {
  uint32_t index;
  bool from_wheel;
  if (!PeekNext(&index, &from_wheel)) {
    return false;
  }
  Execute(index, from_wheel);
  return true;
}

void Simulator::RunUntil(SimTime t) {
  WallTimer timer(&stats_.wall_seconds);
  uint32_t index;
  bool from_wheel;
  while (PeekNext(&index, &from_wheel)) {
    if (slots_[index].at > t) {
      break;
    }
    Execute(index, from_wheel);
  }
  now_ = std::max(now_, t);
  // Keep current_tick_ == TickOf(now_) so freshly scheduled near-future
  // events land in buckets rather than the overflow heap.
  AdvanceCursorTo(TickOf(now_));
}

void Simulator::RunAll() {
  WallTimer timer(&stats_.wall_seconds);
  while (Step()) {
  }
}

bool Simulator::PeekEarliest(SimTime* at) {
  uint32_t index;
  bool from_wheel;
  if (!PeekNext(&index, &from_wheel)) {
    return false;
  }
  *at = slots_[index].at;
  return true;
}

}  // namespace optilog
