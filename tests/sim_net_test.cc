#include <gtest/gtest.h>

#include "src/net/fault_model.h"
#include "src/net/geo.h"
#include "src/net/latency_model.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "tests/test_support.h"

namespace optilog {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(30, [&] { order.push_back(3); });
  sim.ScheduleAt(10, [&] { order.push_back(1); });
  sim.ScheduleAt(20, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  sim.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.ScheduleAt(10, [&] { ran = true; });
  sim.Cancel(id);
  sim.RunAll();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, CancelIsIdempotent) {
  Simulator sim;
  const EventId id = sim.ScheduleAt(10, [] {});
  sim.Cancel(id);
  sim.Cancel(id);
  sim.Cancel(kNoEvent);
  sim.RunAll();
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(10, [&] { ++count; });
  sim.ScheduleAt(20, [&] { ++count; });
  sim.ScheduleAt(30, [&] { ++count; });
  sim.RunUntil(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 20);
  sim.RunUntil(100);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, PastScheduleClampsToNow) {
  Simulator sim;
  sim.RunUntil(50);
  SimTime ran_at = -1;
  sim.ScheduleAt(10, [&] { ran_at = sim.now(); });
  sim.RunAll();
  EXPECT_EQ(ran_at, 50);
}

TEST(Simulator, EventsScheduledDuringExecutionRun) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      sim.ScheduleAfter(10, recurse);
    }
  };
  sim.ScheduleAt(0, recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 40);
}

TEST(Geo, DatasetHas220Locations) {
  EXPECT_EQ(WorldCities().size(), 220u);
}

TEST(Geo, SubsetsMatchPaperSizes) {
  EXPECT_EQ(Europe21().size(), 21u);
  EXPECT_EQ(NaEu43().size(), 43u);
  EXPECT_EQ(Global73().size(), 73u);
  EXPECT_EQ(Stellar56().size(), 56u);
}

TEST(Geo, Europe21IsAllEuropean) {
  for (const City& c : Europe21()) {
    EXPECT_EQ(static_cast<int>(c.region), static_cast<int>(Region::kEurope));
  }
}

TEST(Geo, HaversineKnownDistances) {
  // London <-> New York is about 5570 km.
  const double d = HaversineKm(51.51, -0.13, 40.71, -74.01);
  EXPECT_NEAR(d, 5570, 100);
  // Same point.
  EXPECT_NEAR(HaversineKm(10, 20, 10, 20), 0.0, 1e-9);
}

TEST(Geo, IntercontinentalRttInPaperBand) {
  // §7.3: intercontinental delays range from 150 to 250 ms.
  const City london{"London", 51.51, -0.13, Region::kEurope};
  const City tokyo{"Tokyo", 35.68, 139.69, Region::kAsia};
  const City sydney{"Sydney", -33.87, 151.21, Region::kOceania};
  const City ny{"New York", 40.71, -74.01, Region::kNorthAmerica};
  EXPECT_GT(CityRttMs(london, tokyo), 120);
  EXPECT_LT(CityRttMs(london, tokyo), 260);
  EXPECT_GT(CityRttMs(london, sydney), 150);
  EXPECT_LT(CityRttMs(london, sydney), 300);
  EXPECT_GT(CityRttMs(ny, london), 60);
  EXPECT_LT(CityRttMs(ny, london), 120);
}

TEST(Geo, IntraEuropeRttSmall) {
  const auto eu = Europe21();
  const size_t u = eu.size();
  const std::vector<double> m = CityRttTableMs(eu);
  for (size_t i = 0; i < u; ++i) {
    for (size_t j = i + 1; j < u; ++j) {
      EXPECT_LT(m[i * u + j], 80.0) << eu[i].name << "<->" << eu[j].name;
      EXPECT_GE(m[i * u + j], 1.0);
    }
  }
}

TEST(Geo, RttMatrixSymmetric) {
  const auto cities = Global73();
  const size_t u = cities.size();
  const std::vector<double> m = CityRttTableMs(cities);
  for (size_t i = 0; i < u; ++i) {
    EXPECT_EQ(m[i * u + i], 1.0);  // colocated: the datacenter base delay
    for (size_t j = 0; j < u; ++j) {
      EXPECT_EQ(m[i * u + j], m[j * u + i]);
    }
  }
}

TEST(Geo, GlobalNDeterministicAndSized) {
  const auto a = GlobalN(100, 5);
  const auto b = GlobalN(100, 5);
  ASSERT_EQ(a.size(), 100u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
  }
  EXPECT_EQ(GlobalN(300, 5).size(), 300u);  // wraps beyond dataset
}

TEST(LatencyModel, GeoModelSymmetricOneWay) {
  const GeoLatencyModel model = GeoModel(Europe21());
  for (ReplicaId a = 0; a < 21; ++a) {
    for (ReplicaId b = 0; b < 21; ++b) {
      EXPECT_EQ(model.OneWay(a, b), model.OneWay(b, a));
    }
  }
  EXPECT_EQ(model.OneWay(3, 3), 0);
}

TEST(LatencyModel, MatrixModelSetAndGet) {
  MatrixLatencyModel model(4, 10 * kMsec);
  EXPECT_EQ(model.OneWay(0, 1), 10 * kMsec);
  model.Set(0, 1, 5 * kMsec);
  EXPECT_EQ(model.OneWay(0, 1), 5 * kMsec);
  EXPECT_EQ(model.OneWay(1, 0), 5 * kMsec);
  EXPECT_EQ(model.Rtt(0, 1), 10 * kMsec);
}

class Recorder : public Actor {
 public:
  void OnMessage(ReplicaId from, const MessagePtr& msg, SimTime at) override {
    (void)msg;
    deliveries.emplace_back(from, at);
  }
  std::vector<std::pair<ReplicaId, SimTime>> deliveries;
};

struct TestMsg : Message {
  size_t bytes = 100;
  int kind = 1;
  int type() const override { return kind; }
  MsgFamily family() const override { return MsgFamily::kWorkload; }
  void EncodeTo(ByteWriter& w) const override { w.ZeroPad(bytes); }
};

TEST(Network, DeliversWithPropagationDelay) {
  Simulator sim;
  MatrixLatencyModel latency(2, 7 * kMsec);
  FaultModel faults;
  Network net(&sim, &latency, &faults);
  Recorder r;
  net.Register(1, &r);
  net.Send(0, 1, MakeMessage<TestMsg>());
  sim.RunAll();
  ASSERT_EQ(r.deliveries.size(), 1u);
  EXPECT_EQ(r.deliveries[0].second, 7 * kMsec);
}

TEST(Network, CrashedSenderSendsNothing) {
  Simulator sim;
  MatrixLatencyModel latency(2, kMsec);
  FaultModel faults;
  faults.Mutable(0).crash_at = 0;
  Network net(&sim, &latency, &faults);
  Recorder r;
  net.Register(1, &r);
  net.Send(0, 1, MakeMessage<TestMsg>());
  sim.RunAll();
  EXPECT_TRUE(r.deliveries.empty());
}

TEST(Network, CrashedReceiverDropsDelivery) {
  Simulator sim;
  MatrixLatencyModel latency(2, kMsec);
  FaultModel faults;
  faults.Mutable(1).crash_at = 500;  // crashes before delivery at 1000
  Network net(&sim, &latency, &faults);
  Recorder r;
  net.Register(1, &r);
  net.Send(0, 1, MakeMessage<TestMsg>());
  sim.RunAll();
  EXPECT_TRUE(r.deliveries.empty());
}

TEST(Network, DelayFactorSlowsSender) {
  Simulator sim;
  MatrixLatencyModel latency(2, 10 * kMsec);
  FaultModel faults;
  faults.Mutable(0).outbound_delay_factor = 1.4;
  Network net(&sim, &latency, &faults);
  Recorder r;
  net.Register(1, &r);
  net.Send(0, 1, MakeMessage<TestMsg>());
  sim.RunAll();
  ASSERT_EQ(r.deliveries.size(), 1u);
  EXPECT_EQ(r.deliveries[0].second, 14 * kMsec);
}

TEST(Network, ProposalDelayAttack) {
  Simulator sim;
  MatrixLatencyModel latency(2, 10 * kMsec);
  FaultModel faults;
  faults.Mutable(0).proposal_delay = 500 * kMsec;
  Network net(&sim, &latency, &faults);
  net.SetProposalClassifier([](const Message& m) { return m.type() == 42; });
  Recorder r;
  net.Register(1, &r);
  auto proposal = MakeMessage<TestMsg>();
  proposal->kind = 42;
  net.Send(0, 1, proposal);
  net.Send(0, 1, MakeMessage<TestMsg>());
  sim.RunAll();
  ASSERT_EQ(r.deliveries.size(), 2u);
  // Non-proposal is on time; proposal is delayed by 500 ms.
  EXPECT_EQ(r.deliveries[0].second, 10 * kMsec);
  EXPECT_EQ(r.deliveries[1].second, 510 * kMsec);
}

// A multicast whose recipients include the sender delivers the sender's own
// copy through the zero-delay loopback.
TEST(Network, MulticastLoopbackHonorsCrashBetweenScheduleAndDelivery) {
  Simulator sim;
  MatrixLatencyModel latency(2, kMsec);
  FaultModel faults;
  Network net(&sim, &latency, &faults);
  Recorder r0, r1;
  net.Register(0, &r0);
  net.Register(1, &r1);
  // At t = 10: the multicast is scheduled first, then a same-instant event
  // crashes the sender before its zero-delay loopback copy runs. Loopback
  // must drop that copy exactly like Send's receiver-side check; the copy
  // already on the wire to replica 0 still lands.
  sim.ScheduleAt(10, [&] { net.Multicast(1, {0, 1}, MakeMessage<TestMsg>()); });
  sim.ScheduleAt(10, [&] { faults.Mutable(1).crash_at = 10; });
  sim.RunAll();
  EXPECT_TRUE(r1.deliveries.empty());
  ASSERT_EQ(r0.deliveries.size(), 1u);
  EXPECT_EQ(r0.deliveries[0].second, 10 + kMsec);
}

TEST(Network, MulticastLoopbackDeliversAtSameInstant) {
  Simulator sim;
  MatrixLatencyModel latency(2, kMsec);
  FaultModel faults;
  Network net(&sim, &latency, &faults);
  Recorder r0, r1;
  net.Register(0, &r0);
  net.Register(1, &r1);
  sim.RunUntil(25);
  net.Multicast(1, {0, 1}, MakeMessage<TestMsg>());
  sim.RunAll();
  ASSERT_EQ(r1.deliveries.size(), 1u);
  EXPECT_EQ(r1.deliveries[0].first, 1u);
  EXPECT_EQ(r1.deliveries[0].second, 25);
  ASSERT_EQ(r0.deliveries.size(), 1u);
  EXPECT_EQ(r0.deliveries[0].second, 25 + kMsec);
  // Loopback traffic never touches the wire.
  EXPECT_EQ(net.stats().messages_sent, 1u);
}

TEST(Network, BandwidthSerializesMulticast) {
  Simulator sim;
  MatrixLatencyModel latency(4, 10 * kMsec);
  FaultModel faults;
  Network net(&sim, &latency, &faults);
  net.SetBandwidthBps(8'000'000);  // 8 Mbit/s -> 1 MB/s -> 1000 bytes/ms
  Recorder r1, r2, r3;
  net.Register(1, &r1);
  net.Register(2, &r2);
  net.Register(3, &r3);
  auto msg = MakeMessage<TestMsg>();
  msg->bytes = 10'000;  // 10 ms serialization each
  net.Multicast(0, {1, 2, 3}, msg);
  sim.RunAll();
  ASSERT_EQ(r1.deliveries.size(), 1u);
  // Copy i finishes serializing at i * 10 ms, then 10 ms propagation.
  EXPECT_EQ(r1.deliveries[0].second, 20 * kMsec);
  EXPECT_EQ(r2.deliveries[0].second, 30 * kMsec);
  EXPECT_EQ(r3.deliveries[0].second, 40 * kMsec);
}

// A dissemination hop: forwards every received message to its children,
// recording arrival times — the network-level skeleton of a proposal
// flowing down a tree.
class ForwardingActor : public Actor {
 public:
  ForwardingActor(Network* net, ReplicaId id, std::vector<ReplicaId> children)
      : net_(net), id_(id), children_(std::move(children)) {}

  void OnMessage(ReplicaId from, const MessagePtr& msg, SimTime at) override {
    (void)from;
    arrivals.push_back(at);
    if (!children_.empty()) {
      net_->Multicast(id_, children_, msg);
    }
  }

  std::vector<SimTime> arrivals;

 private:
  Network* net_;
  const ReplicaId id_;
  std::vector<ReplicaId> children_;
};

// The Kauri §6.1.1 claim cited in network.h: under per-replica bandwidth, a
// star leader serializes k copies back to back (k * WireSize / bps on its
// single uplink), while a tree interior node serializes only its fanout —
// interior uplinks work in parallel, so the last replica hears the proposal
// sooner even though the tree adds propagation hops.
TEST(Network, BandwidthStarLeaderSerializesKCopiesTreeOnlyFanout) {
  constexpr SimTime kProp = 10 * kMsec;       // uniform one-way propagation
  constexpr SimTime kSerialize = 10 * kMsec;  // per-copy serialization
  // 8 Mbit/s uplinks and 10'000-byte messages give 10 ms per copy.
  auto msg = [] {
    auto m = MakeMessage<TestMsg>();
    m->bytes = 10'000;
    return m;
  };

  // Star: leader 0 fans out to 6 followers on one uplink.
  {
    Simulator sim;
    MatrixLatencyModel latency(7, kProp);
    FaultModel faults;
    Network net(&sim, &latency, &faults);
    net.SetBandwidthBps(8'000'000);
    std::vector<std::unique_ptr<ForwardingActor>> leaves;
    std::vector<ReplicaId> all;
    for (ReplicaId id = 1; id < 7; ++id) {
      leaves.push_back(std::make_unique<ForwardingActor>(&net, id,
                                                         std::vector<ReplicaId>{}));
      net.Register(id, leaves.back().get());
      all.push_back(id);
    }
    net.Multicast(0, all, msg());
    sim.RunAll();
    // Copy i leaves the leader's NIC at (i + 1) * S; k = 6 copies occupy the
    // uplink for k * WireSize / bps = 60 ms total.
    for (size_t i = 0; i < leaves.size(); ++i) {
      ASSERT_EQ(leaves[i]->arrivals.size(), 1u);
      EXPECT_EQ(leaves[i]->arrivals[0],
                static_cast<SimTime>(i + 1) * kSerialize + kProp);
    }
  }

  // Tree over the same 7 replicas: 0 -> {1, 2}, 1 -> {3, 4}, 2 -> {5, 6}.
  {
    Simulator sim;
    MatrixLatencyModel latency(7, kProp);
    FaultModel faults;
    Network net(&sim, &latency, &faults);
    net.SetBandwidthBps(8'000'000);
    ForwardingActor n1(&net, 1, {3, 4}), n2(&net, 2, {5, 6});
    ForwardingActor n3(&net, 3, {}), n4(&net, 4, {}), n5(&net, 5, {});
    ForwardingActor n6(&net, 6, {});
    net.Register(1, &n1);
    net.Register(2, &n2);
    net.Register(3, &n3);
    net.Register(4, &n4);
    net.Register(5, &n5);
    net.Register(6, &n6);
    net.Multicast(0, {1, 2}, msg());
    sim.RunAll();
    // The root's uplink is busy for only fanout * S = 20 ms.
    EXPECT_EQ(n1.arrivals[0], 1 * kSerialize + kProp);  // 20 ms
    EXPECT_EQ(n2.arrivals[0], 2 * kSerialize + kProp);  // 30 ms
    // Interiors serialize their own fanout in parallel on separate uplinks.
    EXPECT_EQ(n3.arrivals[0], n1.arrivals[0] + 1 * kSerialize + kProp);  // 40
    EXPECT_EQ(n4.arrivals[0], n1.arrivals[0] + 2 * kSerialize + kProp);  // 50
    EXPECT_EQ(n5.arrivals[0], n2.arrivals[0] + 1 * kSerialize + kProp);  // 50
    EXPECT_EQ(n6.arrivals[0], n2.arrivals[0] + 2 * kSerialize + kProp);  // 60
    // Last tree replica (60 ms) still beats the star's last (70 ms): the
    // root bottleneck, not propagation, dominates.
    EXPECT_LT(n6.arrivals[0], 6 * kSerialize + kProp);
  }
}

TEST(Network, StatsCountMessagesAndBytes) {
  Simulator sim;
  MatrixLatencyModel latency(2, kMsec);
  FaultModel faults;
  Network net(&sim, &latency, &faults);
  Recorder r;
  net.Register(1, &r);
  net.Send(0, 1, MakeMessage<TestMsg>());
  net.Send(0, 1, MakeMessage<TestMsg>());
  sim.RunAll();
  EXPECT_EQ(net.stats().messages_sent, 2u);
  EXPECT_EQ(net.stats().messages_delivered, 2u);
  EXPECT_EQ(net.stats().bytes_sent, 200u);
}

TEST(FaultModel, DefaultsAreHonest) {
  FaultModel faults;
  EXPECT_FALSE(faults.Of(3).IsByzantine());
  faults.Mutable(1).fast_probes = true;
  EXPECT_TRUE(faults.Of(1).IsByzantine());
  EXPECT_FALSE(faults.Of(3).IsByzantine());
  EXPECT_FALSE(faults.IsCrashedAt(1, 1000));
}

}  // namespace
}  // namespace optilog
