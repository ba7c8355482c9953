// Tests for the slab-backed event core: exact pending() accounting under
// Cancel/Step/RunUntil interleavings, generation-checked cancellation
// across slot reuse, typed delivery/timer lanes, and the determinism
// invariant that same-instant events run in scheduling order regardless of
// event kind — checked op by op against a sorted reference model, and on
// full Kauri and PBFT runs across the Step and RunUntil drive paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "src/api/deployment.h"
#include "src/net/fault_model.h"
#include "src/net/geo.h"
#include "src/net/latency_model.h"
#include "src/net/network.h"
#include "src/runner/scenario.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace optilog {
namespace {

struct NullMsg : Message {
  int type() const override { return 0; }
  MsgFamily family() const override { return MsgFamily::kWorkload; }
  void EncodeTo(ByteWriter& w) const override { w.ZeroPad(16); }
};

class TagRecorder : public TimerTarget {
 public:
  void OnTimer(uint64_t tag, SimTime at) override {
    fired.emplace_back(tag, at);
  }
  std::vector<std::pair<uint64_t, SimTime>> fired;
};

class CountingActor : public Actor {
 public:
  void OnMessage(ReplicaId from, const MessagePtr& msg, SimTime at) override {
    (void)from;
    (void)msg;
    (void)at;
    ++deliveries;
  }
  int deliveries = 0;
};

// --- pending() accounting (regression for the tombstone-window bug) ----------

TEST(EventSlab, PendingExactUnderCancelStepRunUntilInterleaving) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sim.ScheduleAt(10 * (i + 1), [] {}));
  }
  EXPECT_EQ(sim.pending(), 8u);

  // Cancel two events whose queue keys are still buried in the heap. The
  // old design counted these via a tombstone set subtracted from the queue
  // size, which went stale once a cancelled key was popped.
  sim.Cancel(ids[2]);
  sim.Cancel(ids[5]);
  EXPECT_EQ(sim.pending(), 6u);

  ASSERT_TRUE(sim.Step());  // runs ids[0]
  EXPECT_EQ(sim.pending(), 5u);

  // RunUntil past the cancelled ids[2] key: popping the stale key must not
  // change the live count twice.
  sim.RunUntil(40);  // runs ids[1], ids[3]
  EXPECT_EQ(sim.pending(), 3u);

  // Cancel between a pop window and the next run; then interleave again.
  sim.Cancel(ids[6]);
  EXPECT_EQ(sim.pending(), 2u);
  ASSERT_TRUE(sim.Step());  // runs ids[4]
  EXPECT_EQ(sim.pending(), 1u);
  sim.RunUntil(200);  // skips ids[5], ids[6] keys; runs ids[7]
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.events_executed(), 5u);

  // Cancelling everything that already ran or was cancelled is a no-op.
  for (EventId id : ids) {
    sim.Cancel(id);
  }
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(EventSlab, PendingCountsEventsScheduledDuringExecution) {
  Simulator sim;
  sim.ScheduleAt(10, [&] {
    sim.ScheduleAfter(5, [] {});
    sim.ScheduleAfter(6, [] {});
  });
  EXPECT_EQ(sim.pending(), 1u);
  sim.Step();
  EXPECT_EQ(sim.pending(), 2u);
  sim.RunAll();
  EXPECT_EQ(sim.pending(), 0u);
}

// --- generation checks across slot reuse -------------------------------------

TEST(EventSlab, StaleCancelDoesNotKillRecycledSlot) {
  Simulator sim;
  bool first = false, second = false;
  const EventId a = sim.ScheduleAt(10, [&] { first = true; });
  sim.Cancel(a);
  // The slab reuses a's slot for b under a new generation.
  const EventId b = sim.ScheduleAt(20, [&] { second = true; });
  EXPECT_NE(a, b);
  sim.Cancel(a);  // stale handle: must be a no-op
  sim.RunAll();
  EXPECT_FALSE(first);
  EXPECT_TRUE(second);
}

TEST(EventSlab, CancelAfterExecutionDoesNotKillRecycledSlot) {
  Simulator sim;
  int runs = 0;
  const EventId a = sim.ScheduleAt(10, [&] { ++runs; });
  sim.RunUntil(15);
  EXPECT_EQ(runs, 1);
  const EventId b = sim.ScheduleAt(20, [&] { ++runs; });
  sim.Cancel(a);  // a already ran; its slot now hosts b
  sim.RunAll();
  EXPECT_EQ(runs, 2);
  (void)b;
}

TEST(EventSlab, SlabReusesSlotsInsteadOfGrowing) {
  Simulator sim;
  // A ping-pong chain of depth 1 keeps at most two events live; the slab
  // must stay tiny no matter how many events pass through.
  for (int i = 0; i < 1000; ++i) {
    sim.ScheduleAfter(i + 1, [] {});
    sim.RunFor(i + 1);
  }
  EXPECT_EQ(sim.events_executed(), 1000u);
  EXPECT_LE(sim.event_core_stats().peak_slab_slots, 4u);
  EXPECT_LE(sim.event_core_stats().peak_pending, 4u);
}

// --- typed lanes -------------------------------------------------------------

TEST(EventSlab, TypedTimerCarriesTagAndFireTime) {
  Simulator sim;
  TagRecorder target;
  sim.ScheduleTimer(&target, 7, 100);
  sim.ScheduleTimerAt(50, &target, 9);
  sim.RunAll();
  ASSERT_EQ(target.fired.size(), 2u);
  EXPECT_EQ(target.fired[0], (std::pair<uint64_t, SimTime>{9, 50}));
  EXPECT_EQ(target.fired[1], (std::pair<uint64_t, SimTime>{7, 100}));
  EXPECT_EQ(sim.event_core_stats().typed_timers, 2u);
  EXPECT_EQ(sim.event_core_stats().closure_events, 0u);
}

TEST(EventSlab, CancelledTimerDoesNotFire) {
  Simulator sim;
  TagRecorder target;
  const EventId id = sim.ScheduleTimer(&target, 1, 10);
  sim.ScheduleTimer(&target, 2, 20);
  sim.Cancel(id);
  sim.RunAll();
  ASSERT_EQ(target.fired.size(), 1u);
  EXPECT_EQ(target.fired[0].first, 2u);
  EXPECT_EQ(sim.event_core_stats().cancellations, 1u);
}

TEST(EventSlab, MixedKindTiesRunInScheduleOrder) {
  Simulator sim;
  MatrixLatencyModel latency(2, /*one_way=*/50);
  FaultModel faults;
  Network net(&sim, &latency, &faults);

  std::vector<int> order;
  class OrderActor : public Actor {
   public:
    explicit OrderActor(std::vector<int>* order) : order_(order) {}
    void OnMessage(ReplicaId, const MessagePtr&, SimTime) override {
      order_->push_back(2);
    }

   private:
    std::vector<int>* order_;
  };
  class OrderTimer : public TimerTarget {
   public:
    explicit OrderTimer(std::vector<int>* order) : order_(order) {}
    void OnTimer(uint64_t, SimTime) override { order_->push_back(3); }

   private:
    std::vector<int>* order_;
  };
  OrderActor actor(&order);
  OrderTimer timer(&order);
  net.Register(1, &actor);

  // All three land at t = 50: closure scheduled first, then the delivery,
  // then the timer. Scheduling order must win regardless of kind.
  sim.ScheduleAt(50, [&] { order.push_back(1); });
  net.Send(0, 1, MakeMessage<NullMsg>());  // one-way = 50
  sim.ScheduleTimerAt(50, &timer, 0);
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventSlab, DeliveryPathSchedulesNoClosures) {
  Simulator sim;
  MatrixLatencyModel latency(4, kMsec);
  FaultModel faults;
  Network net(&sim, &latency, &faults);
  CountingActor a1, a2, a3;
  net.Register(1, &a1);
  net.Register(2, &a2);
  net.Register(3, &a3);

  auto msg = MakeMessage<NullMsg>();
  net.Multicast(0, {1, 2, 3}, msg);
  net.Send(0, 1, msg);
  sim.RunAll();

  const EventCoreStats& stats = sim.event_core_stats();
  EXPECT_EQ(stats.typed_deliveries, 4u);
  EXPECT_EQ(stats.closure_events, 0u);
  EXPECT_EQ(stats.allocations_avoided(), 4u);
  EXPECT_EQ(stats.events_executed, 4u);
  EXPECT_EQ(a1.deliveries, 2);
  EXPECT_EQ(a2.deliveries, 1);
  EXPECT_EQ(a3.deliveries, 1);
}

TEST(EventSlab, MulticastSharesOneMessageInstance) {
  Simulator sim;
  MatrixLatencyModel latency(4, kMsec);
  FaultModel faults;
  Network net(&sim, &latency, &faults);

  class PointerRecorder : public Actor {
   public:
    void OnMessage(ReplicaId, const MessagePtr& msg, SimTime) override {
      seen.push_back(msg.get());
    }
    std::vector<const Message*> seen;
  };
  PointerRecorder r1, r2, r3;
  net.Register(1, &r1);
  net.Register(2, &r2);
  net.Register(3, &r3);

  auto msg = MakeMessage<NullMsg>();
  const Message* raw = msg.get();
  net.Multicast(0, {1, 2, 3}, std::move(msg));
  sim.RunAll();
  ASSERT_EQ(r1.seen.size(), 1u);
  EXPECT_EQ(r1.seen[0], raw);
  EXPECT_EQ(r2.seen[0], raw);
  EXPECT_EQ(r3.seen[0], raw);
}

// --- time-wheel scheduler ----------------------------------------------------

// 64 µs buckets, 1 << 14 of them: ticks past ~1.05 s of simulated time from
// the cursor land in the overflow heap.
constexpr SimTime kBucketUs = 64;
constexpr SimTime kWheelHorizon = kBucketUs << 14;

TEST(TimeWheel, SameInstantSeqOrderAcrossBucketBoundaries) {
  // Same-instant events must run in scheduling order even when neighboring
  // instants straddle a bucket boundary (63 and 64 hash to different
  // buckets; two events at 64 share a chain).
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(kBucketUs, [&] { order.push_back(0); });
  sim.ScheduleAt(kBucketUs - 1, [&] { order.push_back(1); });
  sim.ScheduleAt(kBucketUs, [&] { order.push_back(2); });
  sim.ScheduleAt(kBucketUs + 1, [&] { order.push_back(3); });
  sim.ScheduleAt(kBucketUs - 1, [&] { order.push_back(4); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 4, 0, 2, 3}));
}

TEST(TimeWheel, CancelThenReuseSlotInsideBucketChain) {
  // Cancelling a wheel-resident event unlinks it from the middle of its
  // bucket chain and recycles the slot immediately; a later schedule that
  // reuses the slot must not corrupt the chain or fire twice.
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(100, [&] { order.push_back(0); });
  const EventId victim = sim.ScheduleAt(100, [&] { order.push_back(99); });
  sim.ScheduleAt(100, [&] { order.push_back(1); });
  sim.Cancel(victim);
  EXPECT_EQ(sim.pending(), 2u);
  // Same instant, same bucket: lands in the slot the cancel freed.
  sim.ScheduleAt(100, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(TimeWheel, OverflowHeapMigratesIntoWheel) {
  Simulator sim;
  std::vector<int> order;
  // Beyond the horizon from tick 0: parked in the overflow heap.
  sim.ScheduleAt(kWheelHorizon + 5 * kBucketUs, [&] { order.push_back(1); });
  sim.ScheduleAt(2 * kWheelHorizon, [&] { order.push_back(2); });
  EXPECT_EQ(sim.event_core_stats().wheel_overflow_events, 2u);
  // Near event: straight into the wheel.
  sim.ScheduleAt(10, [&] { order.push_back(0); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), 2 * kWheelHorizon);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(TimeWheel, CancelledOverflowEventNotCountedAsExecuted) {
  // Overflow cancels leave a stale generation-mismatched key behind;
  // skipping it at pop time must not increment events_executed.
  // Regression: the skip used to count as a run.
  Simulator sim;
  const EventId far = sim.ScheduleAt(kWheelHorizon + kBucketUs, [] {});
  sim.ScheduleAt(5, [] {});
  sim.Cancel(far);
  EXPECT_EQ(sim.pending(), 1u);
  sim.RunAll();
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(TimeWheel, ReserveHintPreallocatesSlab) {
  Simulator sim;
  sim.ReserveHint(256);
  const size_t cap = sim.slab_capacity();
  EXPECT_GE(cap, 256u);
  for (int i = 0; i < 200; ++i) {
    sim.ScheduleAt(i, [] {});
  }
  EXPECT_EQ(sim.slab_capacity(), cap);  // no growth under the hint
}

// --- differential test against a sorted reference ---------------------------

// The scheduler's whole contract as a sorted set: live events keyed
// (at, seq, tag), `at` clamped to now at schedule time; Step pops the
// minimum; RunUntil pops every event at or before t, then moves the clock
// to t.
struct ReferenceScheduler {
  using Key = std::tuple<SimTime, uint64_t, uint64_t>;  // (at, seq, tag)
  SimTime now = 0;
  uint64_t next_seq = 1;
  std::set<Key> live;
  std::map<uint64_t, Key> by_tag;

  void Schedule(SimTime at, uint64_t tag) {
    const Key key{std::max(at, now), next_seq++, tag};
    live.insert(key);
    by_tag[tag] = key;
  }
  void Cancel(uint64_t tag) {
    const auto it = by_tag.find(tag);
    if (it != by_tag.end()) {
      live.erase(it->second);
      by_tag.erase(it);
    }
  }
  uint64_t Pop() {
    const auto [at, seq, tag] = *live.begin();
    live.erase(live.begin());
    by_tag.erase(tag);
    now = at;
    return tag;
  }
};

// Handlers schedule follow-ups (up to three deep, tag + kDepthUnit each) at
// the same instant, inside the same tick, a few ms out, or past the wheel
// horizon — a pure function of the tag, so the reference mirrors them.
constexpr uint64_t kDepthUnit = uint64_t{1} << 32;

bool SpawnsFollowUp(uint64_t tag) {
  return tag % 4 == 0 && tag / kDepthUnit < 3;
}

SimTime FollowUpDelay(uint64_t tag) {
  switch ((tag / 4 + tag / kDepthUnit) % 4) {
    case 0:
      return 0;
    case 1:
      return 17;
    case 2:
      return 3 * kMsec;
    default:
      return kWheelHorizon + 100;
  }
}

// The simulator side: records every firing in order and schedules the same
// follow-ups, on the timer lane or (every third tag) the closure lane.
class DifferentialTarget : public TimerTarget {
 public:
  explicit DifferentialTarget(Simulator* sim) : sim_(sim) {}

  void OnTimer(uint64_t tag, SimTime at) override {
    EXPECT_EQ(at, sim_->now());
    fired.push_back(tag);
    if (SpawnsFollowUp(tag)) {
      Schedule(sim_->now() + FollowUpDelay(tag), tag + kDepthUnit);
    }
  }

  void Schedule(SimTime at, uint64_t tag) {
    if (tag % 3 == 0) {
      ids[tag] = sim_->ScheduleAt(at, [this, tag] { OnTimer(tag, sim_->now()); });
    } else {
      ids[tag] = sim_->ScheduleTimerAt(at, this, tag);
    }
    scheduled.push_back(tag);
  }

  std::vector<uint64_t> fired;
  std::vector<uint64_t> scheduled;  // every tag ever scheduled
  std::map<uint64_t, EventId> ids;  // latest handle per tag, live or stale

 private:
  Simulator* sim_;
};

TEST(TimeWheel, MatchesSortedReferenceUnderRandomOps) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Simulator sim;
    DifferentialTarget target(&sim);
    ReferenceScheduler ref;
    std::vector<uint64_t> expected;
    size_t checked = 0;
    Rng rng(seed);
    uint64_t next_tag = 1;
    auto ref_pop = [&] {
      const uint64_t tag = ref.Pop();
      expected.push_back(tag);
      if (SpawnsFollowUp(tag)) {
        ref.Schedule(ref.now + FollowUpDelay(tag), tag + kDepthUnit);
      }
    };

    for (int op = 0; op < 4000; ++op) {
      const uint64_t kind = rng.Below(100);
      if (kind < 45) {
        SimTime at = sim.now();
        switch (rng.Below(5)) {
          case 0:  // near
            at += rng.Range(0, 5 * kMsec);
            break;
          case 1:  // a live event's instant, or elsewhere in its tick
            if (!ref.live.empty()) {
              at = std::get<0>(
                  *std::next(ref.live.begin(), rng.Below(ref.live.size())));
              if (rng.Below(2) == 0) {
                at = at - at % kBucketUs + rng.Range(0, kBucketUs - 1);
              }
            }
            break;
          case 2:  // in the past: clamped to now
            at -= rng.Range(1, 10 * kMsec);
            break;
          case 3:  // beyond the horizon: overflow heap
            at += kWheelHorizon + rng.Range(0, 3 * kWheelHorizon);
            break;
          default:
            at += rng.Range(0, kWheelHorizon);
            break;
        }
        const uint64_t tag = next_tag++;
        target.Schedule(at, tag);
        ref.Schedule(at, tag);
      } else if (kind < 65) {
        // Cancel a live event, or any tag ever scheduled (stale handles of
        // executed, cancelled or recycled slots must be no-ops).
        uint64_t tag;
        if (kind < 55 && !ref.live.empty()) {
          tag = std::get<2>(
              *std::next(ref.live.begin(), rng.Below(ref.live.size())));
        } else if (!target.scheduled.empty()) {
          tag = target.scheduled[rng.Below(target.scheduled.size())];
        } else {
          continue;
        }
        sim.Cancel(target.ids.at(tag));
        ref.Cancel(tag);
      } else if (kind < 85) {
        const bool ref_has_next = !ref.live.empty();
        ASSERT_EQ(sim.Step(), ref_has_next) << "op " << op;
        if (ref_has_next) {
          ref_pop();
        }
      } else {
        const SimTime t =
            sim.now() + (rng.Below(2) == 0
                             ? rng.Range(-kMsec, 2 * kMsec)
                             : rng.Range(0, 2 * kWheelHorizon));
        sim.RunUntil(t);
        while (!ref.live.empty() && std::get<0>(*ref.live.begin()) <= t) {
          ref_pop();
        }
        ref.now = std::max(ref.now, t);
      }
      ASSERT_EQ(target.fired.size(), expected.size()) << "op " << op;
      for (; checked < expected.size(); ++checked) {
        ASSERT_EQ(target.fired[checked], expected[checked])
            << "op " << op << " firing " << checked;
      }
      ASSERT_EQ(sim.pending(), ref.live.size()) << "op " << op;
      ASSERT_EQ(sim.now(), ref.now) << "op " << op;
    }
    EXPECT_EQ(sim.events_executed(), expected.size());
  }
}

// --- scheduler-path parity on full deployments -------------------------------

// One RunUntil over the whole horizon, the same horizon in odd-sized
// RunUntil slices (the clock and wheel cursor stop mid-bucket, on idle
// stretches and across the overflow horizon), and a Step-driven loop must
// produce identical executions: same (time, seq) order, same slot recycling,
// same metrics fingerprint, event-core counters included. Exercised over
// both protocol families with a client workload whose retry timers land past
// the wheel horizon and are mostly cancelled, so delivery, timer, cancel,
// multicast and overflow paths all participate.

enum class Drive { kOneRunUntil, kSlicedRunUntil, kStep };

constexpr SimTime kParityHorizon = 3 * kSec;

MetricsReport RunDriven(Protocol proto, Drive drive) {
  constexpr SimTime kSliceUs = 997;  // prime: never aligned to a bucket
  WorkloadOptions w;
  w.outstanding = 2;
  w.retry_timeout = 1500 * kMsec;  // beyond kWheelHorizon: overflow heap
  w.batch.max_batch = 8;
  w.batch.max_delay = 2 * kMsec;
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithReplicas(7, 2)
               .WithProtocol(proto)
               .WithSeed(11)
               .WithWorkload(w)
               .WithStateMachine()
               .WithGaugeSampling(50 * kMsec)
               .Build();
  d->Start();
  Simulator& sim = d->sim();
  switch (drive) {
    case Drive::kOneRunUntil:
      d->RunUntil(kParityHorizon);
      break;
    case Drive::kSlicedRunUntil:
      while (sim.now() < kParityHorizon) {
        d->RunUntil(std::min(kParityHorizon, sim.now() + kSliceUs));
      }
      break;
    case Drive::kStep: {
      SimTime at;
      while (sim.PeekEarliest(&at) && at <= kParityHorizon) {
        sim.Step();
      }
      d->RunUntil(kParityHorizon);
      break;
    }
  }
  EXPECT_EQ(sim.now(), kParityHorizon);
  return d->Metrics();
}

void ExpectSchedulerParity(Protocol proto) {
  const MetricsReport whole = RunDriven(proto, Drive::kOneRunUntil);
  EXPECT_GT(whole.committed, 0u);
  EXPECT_GT(whole.event_core.cancellations, 0u);
  EXPECT_GT(whole.event_core.wheel_overflow_events, 0u);
  const std::string expected = MetricsFingerprint(whole);
  EXPECT_EQ(MetricsFingerprint(RunDriven(proto, Drive::kSlicedRunUntil)),
            expected);
  EXPECT_EQ(MetricsFingerprint(RunDriven(proto, Drive::kStep)), expected);
}

TEST(TimeWheel, SchedulerParityKauri) { ExpectSchedulerParity(Protocol::kKauri); }

TEST(TimeWheel, SchedulerParityPbft) { ExpectSchedulerParity(Protocol::kPbft); }

}  // namespace
}  // namespace optilog
