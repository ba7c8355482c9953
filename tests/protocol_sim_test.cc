#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <utility>

#include "src/api/deployment.h"
#include "src/statemachine/state_machine.h"
#include "src/tree/kauri.h"
#include "tests/test_support.h"

namespace optilog {
namespace {

// --- Tree protocol (HotStuff/Kauri family) ----------------------------------

// A deployment with an explicit topology installed after Build — the
// HotStuff protocol default (a star) is the cheapest base to override.
std::unique_ptr<Deployment> TreeDeployment(uint32_t n, uint32_t f,
                                           std::vector<City> cities,
                                           TreeRsmOptions opts) {
  return Deployment::Builder()
      .WithGeo(std::move(cities))
      .WithReplicas(n, f)
      .WithProtocol(Protocol::kHotStuff)
      .WithTreeOptions(opts)
      .Build();
}

TEST(TreeRsmSim, StarCommitsBlocks) {
  auto d = TreeDeployment(21, 6, Europe21(), {});
  d->Start();
  d->RunUntil(20 * kSec);
  EXPECT_GT(d->tree().committed_blocks(), 50u);
  EXPECT_EQ(d->tree().failed_rounds(), 0u);
  EXPECT_GT(d->tree().latency_stat().mean(), 1.0);   // > 1 ms
  EXPECT_LT(d->tree().latency_stat().mean(), 200.0);  // intra-EU
}

TEST(TreeRsmSim, TreeCommitsBlocks) {
  auto d = TreeDeployment(21, 6, Europe21(), {});
  Rng rng(5);
  d->tree().SetTopology(RandomTree(21, rng));
  d->Start();
  d->RunUntil(20 * kSec);
  EXPECT_GT(d->tree().committed_blocks(), 20u);
  EXPECT_EQ(d->tree().failed_rounds(), 0u);
}

TEST(TreeRsmSim, PipeliningRaisesThroughput) {
  uint64_t committed[2];
  for (int run = 0; run < 2; ++run) {
    TreeRsmOptions opts;
    opts.pipeline_depth = run == 0 ? 1 : 3;
    auto d = TreeDeployment(21, 6, Europe21(), opts);
    Rng rng(5);
    d->tree().SetTopology(RandomTree(21, rng));
    d->Start();
    d->RunUntil(20 * kSec);
    committed[run] = d->tree().committed_blocks();
  }
  EXPECT_GT(committed[1], committed[0] * 2);
}

TEST(TreeRsmSim, BandwidthMakesStarSlowerThanTreeThroughput) {
  // The §6.1.1 argument: with limited uplinks, the star leader serializes
  // n - 1 block copies while the tree spreads the load.
  uint64_t committed[2];
  for (int run = 0; run < 2; ++run) {
    TreeRsmOptions opts;
    opts.pipeline_depth = 3;
    auto d = Deployment::Builder()
                 .WithGeo(Global73())
                 .WithReplicas(73, 24)
                 .WithProtocol(Protocol::kHotStuff)
                 .WithTreeOptions(opts)
                 .WithBandwidth(500e6)  // 500 Mbit/s per replica
                 .Build();
    if (run == 1) {
      Rng rng(5);
      d->tree().SetTopology(RandomTree(73, rng));
    }
    d->Start();
    d->RunUntil(30 * kSec);
    committed[run] = d->tree().committed_blocks();
  }
  EXPECT_GT(committed[1], committed[0]);
}

TEST(TreeRsmSim, CrashedRootTriggersTimeoutAndReconfig) {
  auto d = TreeDeployment(21, 6, Europe21(), {});
  Rng rng(5);
  const TreeTopology first = RandomTree(21, rng);
  d->faults().Mutable(first.root()).crash_at = 5 * kSec;
  d->tree().SetTopology(first);

  const ReplicaId dead_root = first.root();
  d->tree().SetReconfigPolicy([dead_root, &rng](TreeRsm& rsm) {
    // Next random tree avoiding the dead root as an internal.
    for (;;) {
      TreeTopology t = RandomTree(rsm.options().n, rng);
      bool ok = true;
      for (ReplicaId id : t.Internals()) {
        if (id == dead_root) {
          ok = false;
        }
      }
      if (ok) {
        return std::optional<TreeTopology>(t);
      }
    }
  });
  d->Start();
  d->RunUntil(30 * kSec);
  EXPECT_GE(d->tree().failed_rounds(), 1u);
  EXPECT_GE(d->tree().reconfigurations(), 1u);
  EXPECT_NE(d->tree().topology().root(), dead_root);
  // Suspicions against the crashed root were recorded (CT2).
  bool suspected_root = false;
  for (const SuspicionRecord& rec : d->tree().logged_suspicions()) {
    if (rec.suspect == dead_root) {
      suspected_root = true;
    }
  }
  EXPECT_TRUE(suspected_root);
  // Progress resumed on the new tree.
  EXPECT_GT(d->tree().committed_blocks(), 20u);
}

TEST(TreeRsmSim, CrashedIntermediateSuspectedByAggregationRule) {
  TreeRsmOptions opts;
  opts.votes_required = 20;  // require all non-root votes -> crash must bite
  auto d = TreeDeployment(21, 6, Europe21(), opts);
  Rng rng(6);
  const TreeTopology tree = RandomTree(21, rng);
  const ReplicaId victim = tree.intermediates()[0];
  d->faults().Mutable(victim).crash_at = 0;
  d->tree().SetTopology(tree);
  d->Start();
  d->RunUntil(10 * kSec);
  EXPECT_GE(d->tree().failed_rounds(), 1u);
  bool suspected = false;
  for (const SuspicionRecord& rec : d->tree().logged_suspicions()) {
    if (rec.suspect == victim) {
      suspected = true;
    }
  }
  EXPECT_TRUE(suspected);
}

TEST(TreeRsmSim, DelayingIntermediateReducesThroughput) {
  // Fig. 11 mechanism: a faulty intermediate stretching delays by delta
  // inflates latency and cuts throughput.
  uint64_t committed[2];
  for (int run = 0; run < 2; ++run) {
    TreeRsmOptions opts;
    opts.delta = 1.5;  // timers tolerate the attacker
    auto d = TreeDeployment(21, 6, Europe21(), opts);
    Rng rng(7);
    const TreeTopology tree = RandomTree(21, rng);
    if (run == 1) {
      d->faults().Mutable(tree.intermediates()[0]).outbound_delay_factor = 1.4;
      d->faults().Mutable(tree.intermediates()[1]).outbound_delay_factor = 1.4;
    }
    d->tree().SetTopology(tree);
    d->Start();
    d->RunUntil(20 * kSec);
    committed[run] = d->tree().committed_blocks();
  }
  EXPECT_LT(committed[1], committed[0]);
}

TEST(TreeRsmSim, DeterministicAcrossRuns) {
  uint64_t blocks[2];
  double lat[2];
  for (int run = 0; run < 2; ++run) {
    auto d = TreeDeployment(21, 6, Europe21(), {});
    Rng rng(9);
    d->tree().SetTopology(RandomTree(21, rng));
    d->Start();
    d->RunUntil(10 * kSec);
    blocks[run] = d->tree().committed_blocks();
    lat[run] = d->tree().latency_stat().mean();
  }
  EXPECT_EQ(blocks[0], blocks[1]);
  EXPECT_DOUBLE_EQ(lat[0], lat[1]);
}

// View `view`'s block digest, as the root computes it.
Digest BlockOf(uint64_t view) {
  Bytes seed;
  ByteWriter w(&seed);
  w.U64(view);
  w.Str("block");
  return Sha256::Hash(seed);
}

// An aggregate's voter ids come off the wire. n = 4 HotStuff star with two
// leaves crashed: the root's own vote and the live leaf's make 2, short of
// the threshold of 3. An aggregate from the live leaf naming only ids
// outside the group must not make up the difference.
TEST(TreeRsmSim, RootCountsOnlyVotersInTheGroup) {
  auto d = Deployment::Builder()
               .WithReplicas(4, 1)
               .WithProtocol(Protocol::kHotStuff)
               .Build();
  const TreeTopology& star = d->tree().topology();
  const std::vector<ReplicaId> leaves = star.ChildrenOf(star.root());
  ASSERT_EQ(leaves.size(), 3u);
  d->faults().Mutable(leaves[1]).crash_at = 0;
  d->faults().Mutable(leaves[2]).crash_at = 0;
  ASSERT_EQ(d->tree().CommitThreshold(), 3u);
  d->Start();

  auto agg = MakeMessage<AggregateMsg>();
  agg->view = 0;
  agg->block = BlockOf(0);
  agg->voters = {4, 5, 6, ReplicaId{1} << 20};
  // It lands inside view 0's round timeout, which has 200 ms of slack.
  d->net().Send(leaves[0], star.root(), std::move(agg));
  d->RunFor(150 * kMsec);
  EXPECT_EQ(d->tree().committed_blocks(), 0u);
}

// Stands in for the root: keeps what every aggregate sent to it carried.
class AggregateSink : public Actor {
 public:
  struct Received {
    ReplicaId from = kNoReplica;
    uint64_t view = 0;
    Digest block{};
    std::vector<ReplicaId> voters;
    std::vector<ReplicaId> suspected;
  };

  void OnMessage(ReplicaId from, const MessagePtr& msg, SimTime at) override {
    (void)at;
    if (msg->type() != kMsgAggregate) {
      return;
    }
    const auto& agg = static_cast<const AggregateMsg&>(*msg);
    Received r{from, agg.view, agg.block, agg.voters, {}};
    for (const SuspicionRecord& rec : agg.missing) {
      r.suspected.push_back(rec.suspect);
    }
    received.push_back(std::move(r));
  }

  std::vector<Received> received;
};

// Stands in for a replica: keeps every vote sent to it, and nothing else.
class VoteSink : public Actor {
 public:
  struct Received {
    ReplicaId from = kNoReplica;
    Signature sig;
    size_t wire_size = 0;
  };

  void OnMessage(ReplicaId from, const MessagePtr& msg, SimTime at) override {
    (void)at;
    if (msg->type() == kMsgVote) {
      received.push_back({from, static_cast<const VoteMsg&>(*msg).sig, msg->WireSize()});
    }
  }

  std::vector<Received> received;
};

// Kauri over seven European replicas: root 0, intermediate 1 with leaves 3
// and 5, intermediate 2 with leaves 4 and 6. Self-driven, one view in flight;
// 5 votes commit.
std::unique_ptr<Deployment> SevenReplicaKauri() {
  return Deployment::Builder()
      .WithGeo(Europe21())
      .WithReplicas(7, 2)
      .WithProtocol(Protocol::kKauri)
      .WithTopology(TreeTopology::Build({0, 1, 2}, {3, 4, 5, 6}))
      .Build();
}

// An intermediate counts a vote only from its own child and only for the
// block it aggregates.
TEST(TreeRsmSim, IntermediateCountsOnlyItsChildrensVotesForItsBlock) {
  AggregateSink root;
  auto d = SevenReplicaKauri();
  const TreeTopology& tree = d->tree().topology();
  const ReplicaId inter = tree.intermediates()[0];
  const std::vector<ReplicaId> children = tree.ChildrenOf(inter);
  ASSERT_EQ(children.size(), 2u);
  const ReplicaId outsider = tree.ChildrenOf(tree.intermediates()[1])[0];
  d->faults().Mutable(children[0]).crash_at = 0;
  d->net().Register(tree.root(), &root);
  d->Start();  // self-driven: the root proposes view 0
  while (d->tree().PendingAggregations(inter) == 0) {
    ASSERT_TRUE(d->sim().Step());
  }

  // The intermediate now aggregates view 0 and has forwarded the proposal.
  // Its live child votes for another block and crashes before the proposal
  // reaches it; a leaf of the other intermediate votes for view 0's block.
  const SimTime at = d->sim().now();
  auto other_block = MakeMessage<VoteMsg>();
  other_block->view = 0;
  other_block->block = BlockOf(1);
  d->net().Send(children[1], inter, std::move(other_block));
  d->faults().Mutable(children[1]).crash_at = at + 1;
  auto non_child = MakeMessage<VoteMsg>();
  non_child->view = 0;
  non_child->block = BlockOf(0);
  d->net().Send(outsider, inter, std::move(non_child));

  // Both land inside the aggregation window (its slack alone is 50 ms);
  // counted with the intermediate's own vote they would make the three
  // votes that send the aggregate early.
  ASSERT_LT(d->net().latency()->OneWay(children[1], inter), 40 * kMsec);
  ASSERT_LT(d->net().latency()->OneWay(outsider, inter), 40 * kMsec);
  d->RunUntil(at + 40 * kMsec);
  EXPECT_EQ(d->tree().PendingAggregations(inter), 1u);

  d->RunUntil(at + 1 * kSec);
  const AggregateSink::Received* aggregate = nullptr;
  for (const AggregateSink::Received& r : root.received) {
    if (r.view == 0) {
      EXPECT_EQ(r.block, BlockOf(0));
      if (r.from == inter) {
        aggregate = &r;
      }
    }
  }
  ASSERT_NE(aggregate, nullptr);
  EXPECT_EQ(aggregate->voters, std::vector<ReplicaId>{inter});
  EXPECT_EQ(aggregate->suspected, children);
}

// The root counts a direct vote only from its own child, and from an
// aggregate only if the sender is its child and only the sender's and the
// sender's children's votes. Leaves 3 and 6 are crashed and a sink stands in
// for leaf 5, which stays alive but never votes, so view 0 gathers the root,
// both intermediates and leaf 4: one vote short of the 5 it needs. No forged
// message may supply the fifth; the aggregate naming 1's own child 5 then
// does.
TEST(TreeRsmSim, RootCountsOnlyItsChildrenAndTheirSubtrees) {
  const ReplicaId root = 0, inter = 1, other = 2, silent_leaf = 5;
  auto aggregate = [](std::vector<ReplicaId> voters) {
    auto agg = MakeMessage<AggregateMsg>();
    agg->view = 0;
    agg->block = BlockOf(0);
    agg->voters = std::move(voters);
    return MessagePtr(std::move(agg));
  };
  auto vote = [] {
    auto v = MakeMessage<VoteMsg>();
    v->view = 0;
    v->block = BlockOf(0);
    return MessagePtr(std::move(v));
  };
  struct Forged {
    const char* what;
    ReplicaId from;
    MessagePtr msg;
  };
  const Forged cases[] = {
      {"aggregate naming the other intermediate's children", inter, aggregate({inter, 4, 6})},
      {"direct vote from a leaf", silent_leaf, vote()},
      {"aggregate from a leaf", silent_leaf, aggregate({silent_leaf})},
  };
  for (const Forged& forged : cases) {
    SCOPED_TRACE(forged.what);
    VoteSink silent;
    auto d = SevenReplicaKauri();
    ASSERT_EQ(d->tree().CommitThreshold(), 5u);
    d->faults().Mutable(3).crash_at = 0;
    d->faults().Mutable(6).crash_at = 0;
    d->net().Register(silent_leaf, &silent);
    d->Start();
    // Both intermediates open view 0, then send its aggregate on their Lagg
    // timers.
    while (d->tree().PendingAggregations(inter) + d->tree().PendingAggregations(other) < 2) {
      ASSERT_TRUE(d->sim().Step());
    }
    while (d->tree().PendingAggregations(inter) + d->tree().PendingAggregations(other) > 0) {
      ASSERT_TRUE(d->sim().Step());
    }
    const auto* latency = d->net().latency();
    const SimTime hop = std::max({latency->OneWay(inter, root), latency->OneWay(other, root),
                                  latency->OneWay(silent_leaf, root)}) +
                        1 * kMsec;
    d->net().Send(forged.from, root, forged.msg);
    d->RunFor(hop);
    ASSERT_EQ(d->tree().failed_rounds(), 0u);  // view 0 is still open
    EXPECT_EQ(d->tree().committed_blocks(), 0u);

    d->net().Send(inter, root, aggregate({inter, silent_leaf}));
    d->RunFor(hop);
    EXPECT_EQ(d->tree().committed_blocks(), 1u);
  }
}

// The root records an aggregate's missing-child suspicion only in the
// sender's own name and only against the sender's own child.
TEST(TreeRsmSim, RootRecordsOnlyTheSendersOwnSuspicions) {
  const uint64_t kForgedRound = 1000;  // a view the run does not reach
  auto suspicion = [&](ReplicaId suspector, ReplicaId suspect) {
    SuspicionRecord rec;
    rec.suspector = suspector;
    rec.suspect = suspect;
    rec.round = kForgedRound;
    rec.phase = PhaseTag::kFirstVote;
    return rec;
  };
  auto d = SevenReplicaKauri();
  d->Start();
  auto agg = MakeMessage<AggregateMsg>();
  agg->view = 0;
  agg->block = BlockOf(0);
  agg->voters = {1};
  agg->missing = {
      suspicion(2, 4),  // in the other intermediate's name
      suspicion(3, 5),  // in a leaf's name
      suspicion(1, 4),  // against the other intermediate's child
      suspicion(1, 2),  // against the other intermediate
      suspicion(1, 0),  // against the root
      suspicion(1, 3),  // against the sender's own child: recorded
  };
  d->net().Send(1, 0, std::move(agg));
  d->RunFor(d->net().latency()->OneWay(1, 0) + 1 * kMsec);

  std::vector<std::pair<ReplicaId, ReplicaId>> recorded;
  for (const SuspicionRecord& rec : d->tree().logged_suspicions()) {
    if (rec.round == kForgedRound) {
      recorded.emplace_back(rec.suspector, rec.suspect);
    }
  }
  const std::vector<std::pair<ReplicaId, ReplicaId>> expected = {{1, 3}};
  EXPECT_EQ(recorded, expected);
}

// A leaf's vote carries a modeled signature: its own id as the signer and 64
// zero bytes, in the 108 wire bytes of a signed vote. A sink takes each
// intermediate's place as soon as it has forwarded view 0's proposal.
TEST(TreeRsmSim, LeafVotesCarryModeledSignatures) {
  auto d = SevenReplicaKauri();
  const TreeTopology tree = d->tree().topology();
  const std::vector<ReplicaId> inters = tree.intermediates();
  ASSERT_EQ(inters.size(), 2u);
  VoteSink sinks[2];
  bool swapped[2] = {false, false};
  d->Start();
  while (!swapped[0] || !swapped[1]) {
    ASSERT_TRUE(d->sim().Step());
    for (size_t i = 0; i < 2; ++i) {
      if (!swapped[i] && d->tree().PendingAggregations(inters[i]) > 0) {
        d->net().Register(inters[i], &sinks[i]);
        swapped[i] = true;
      }
    }
  }
  d->RunFor(500 * kMsec);

  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(inters[i]);
    std::vector<ReplicaId> voters;
    for (const VoteSink::Received& r : sinks[i].received) {
      voters.push_back(r.from);
      EXPECT_EQ(r.sig.signer, r.from);
      EXPECT_EQ(r.sig.bytes, SigBytes{});
      EXPECT_EQ(r.wire_size, 108u);
    }
    std::vector<ReplicaId> children = tree.ChildrenOf(inters[i]);
    std::sort(voters.begin(), voters.end());
    std::sort(children.begin(), children.end());
    EXPECT_EQ(voters, children);
  }
}

// The deadlines a tree engine arms, by their formulas evaluated afresh: the
// root's round timeout is delta * TreeScore at the commit threshold plus
// 200 ms (2 s plus 200 ms when the score is infinite); an intermediate's
// aggregation timeout is delta * the worst RTT to a child not excluded plus
// 50 ms.
SimTime UncachedRoundTimeout(const TreeTopology& tree, const LatencyMatrix& m, uint32_t k,
                             double delta) {
  const double d_rnd_ms = TreeScore(tree, m, k);
  if (!std::isfinite(d_rnd_ms)) {
    return 2 * kSec + 200 * kMsec;
  }
  return static_cast<SimTime>(delta * static_cast<double>(FromMs(d_rnd_ms))) + 200 * kMsec;
}

SimTime UncachedAggregationDeadline(const TreeTopology& tree, const LatencyMatrix& m,
                                    const std::set<ReplicaId>& excluded, ReplicaId inter,
                                    double delta) {
  double lagg_ms = 0.0;
  for (ReplicaId child : tree.ChildrenOf(inter)) {
    if (excluded.count(child) == 0) {
      lagg_ms = std::max(lagg_ms, m.Rtt(inter, child));
    }
  }
  return static_cast<SimTime>(delta * static_cast<double>(FromMs(lagg_ms))) + 50 * kMsec;
}

// Each input of the cached deadlines changes in turn: the exclusion set (both
// ways), the tree, the matrix version, and the star that rotate_root rebuilds
// every view. After each change, the timers the engine arms equal the
// formulas. n = 14: replicas 0..12 form the tree, and replica 13, 1 ms from
// everyone, stands outside it to hand proposals to intermediates. Every other
// link is 1000 s long, so no vote or aggregate arrives in time: every round
// fails on its timer and the next starts at that instant, and every
// aggregation timer fires.
TEST(TreeRsmSim, CachedDeadlinesFollowTheirInputs) {
  const uint32_t n = 14;
  const ReplicaId courier = 13;
  for (bool rotate : {false, true}) {
    SCOPED_TRACE(rotate ? "rotate_root" : "fixed root");
    Simulator sim;
    MatrixLatencyModel model(n, 1000 * kSec);
    for (ReplicaId id = 0; id < courier; ++id) {
      model.Set(courier, id, 1 * kMsec);
    }
    FaultModel faults;
    Network net(&sim, &model, &faults);
    LatencyMatrix matrix(n);
    for (ReplicaId a = 0; a < n; ++a) {
      for (ReplicaId b = 0; b < n; ++b) {
        if (a != b) {
          matrix.Record(a, b, 10.0 + (a * 7 + b * 13) % 90);
        }
      }
    }
    TreeRsmOptions opts;
    opts.n = n;
    opts.f = 4;
    opts.delta = 1.5;
    opts.rotate_root = rotate;
    TreeRsm rsm(&sim, &net, &matrix, opts);
    rsm.SetTopology(TreeTopology::Build({0, 1, 2, 3}, {4, 5, 6, 7, 8, 9, 10, 11, 12}));
    rsm.Start();

    auto step_until = [&](const std::function<bool()>& done) {
      while (!done()) {
        if (!sim.Step()) {
          ADD_FAILURE() << "no event left";
          break;
        }
      }
      return sim.now();
    };
    uint64_t view = 1'000'000;  // proposal views the engine never reaches
    auto check = [&](const char* after) {
      SCOPED_TRACE(after);
      // The round in flight may predate the change; the next one cannot.
      const uint64_t failed = rsm.failed_rounds();
      const SimTime started = step_until([&] { return rsm.failed_rounds() > failed; });
      const TreeTopology tree = rsm.topology();  // the round now in flight
      const SimTime fired = step_until([&] { return rsm.failed_rounds() > failed + 1; });
      EXPECT_EQ(fired - started,
                UncachedRoundTimeout(tree, matrix, rsm.CommitThreshold(), opts.delta));
      for (ReplicaId inter : rsm.topology().intermediates()) {
        auto propose = MakeMessage<ProposeMsg>();
        propose->view = view++;
        net.Send(courier, inter, std::move(propose));
        const SimTime armed =
            step_until([&] { return rsm.PendingAggregations(inter) == 1; });
        const TreeTopology now_tree = rsm.topology();
        const SimTime due = step_until([&] { return rsm.PendingAggregations(inter) == 0; });
        EXPECT_EQ(due - armed, UncachedAggregationDeadline(now_tree, matrix, rsm.excluded(),
                                                           inter, opts.delta))
            << "intermediate " << inter;
      }
    };

    check("start");
    if (rotate) {
      for (int round = 0; round < 4; ++round) {
        check("rotation");  // a star rooted at the next replica each view
      }
      continue;
    }
    // Intermediate 1's slowest child, so excluding it moves 1's deadline.
    const std::vector<ReplicaId>& children = rsm.topology().ChildrenOf(1);
    const ReplicaId slowest = *std::max_element(
        children.begin(), children.end(),
        [&](ReplicaId a, ReplicaId b) { return matrix.Rtt(1, a) < matrix.Rtt(1, b); });
    ASSERT_NE(UncachedAggregationDeadline(rsm.topology(), matrix, {slowest}, 1, opts.delta),
              UncachedAggregationDeadline(rsm.topology(), matrix, {}, 1, opts.delta));
    rsm.SetExcluded({slowest});
    check("SetExcluded");
    rsm.OnReplicaRecovered(slowest);
    check("OnReplicaRecovered");
    // A new root; intermediates 2 and 3 keep their place with other children.
    rsm.SetTopologyOrConfig(
        TreeTopology::Build({1, 2, 3, 0}, {12, 11, 10, 9, 8, 7, 6, 5, 4}).ToConfig());
    check("SetTopologyOrConfig");
    // Intermediate 2's subtree becomes the slowest: both deadlines move.
    matrix.Record(2, rsm.topology().ChildrenOf(2)[0], 400.0);
    check("Record");
  }
}

// --- Pipeline pacing -----------------------------------------------------------

// Every round takes the same time D, so rounds that restart as they commit
// stay bunched. Under a load that always keeps requests waiting, the hold on
// the last free slot spreads them within a few rounds: from two round times
// after the first commit on, no start (kPropose) follows the previous one by
// more than D / depth plus the batch deadline. Without the hold the gaps
// alternate between ~max_delay and ~D - 2 * max_delay.
TEST(TreeRsmSim, PipelineRoundsSpreadOverTheRound) {
  WorkloadOptions w;
  w.clients = 20;
  w.arrival = ArrivalProcess::kOpenPoisson;
  w.rate_per_client = 100.0;  // 2,000 req/s
  w.record_samples = false;
  w.batch.max_batch = 100'000;  // never the size trigger
  w.batch.max_delay = 5 * kMsec;
  TreeRsmOptions topts;
  topts.pipeline_depth = 3;
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kKauri)
               .WithSeed(9)
               .WithTreeOptions(topts)
               .WithWorkload(w)
               .WithTrace()
               .Build();
  d->Start();
  d->RunUntil(5 * kSec);

  const TreeRsm& tree = d->tree();
  ASSERT_EQ(tree.failed_rounds(), 0u);
  const SimTime round_max = FromMs(tree.latency_stat().max());
  std::vector<SimTime> starts;
  SimTime first_commit = -1;
  for (const TraceRecord& r : d->TraceRecords()) {
    if (r.kind == static_cast<uint16_t>(TraceKind::kPropose)) {
      starts.push_back(r.t);
    } else if (r.kind == static_cast<uint16_t>(TraceKind::kCommit) && first_commit < 0) {
      first_commit = r.t;
    }
  }
  ASSERT_GE(first_commit, 0);
  size_t gaps = 0;
  for (size_t i = 1; i < starts.size(); ++i) {
    if (starts[i - 1] < first_commit + 2 * round_max) {
      continue;
    }
    ++gaps;
    EXPECT_LE(starts[i] - starts[i - 1], round_max / topts.pipeline_depth + w.batch.max_delay)
        << "start " << i << " of " << starts.size();
  }
  EXPECT_GT(gaps, 100u);
}

// Stands in for a client: drops every reply.
class ReplySink : public Actor {
 public:
  void OnMessage(ReplicaId from, const MessagePtr& msg, SimTime at) override {
    (void)from;
    (void)msg;
    (void)at;
  }
};

// Four replicas 50 ms apart run a depth-3 star, so every round commits
// exactly D = 100 ms after its start. Client 4, 1 ms from root 0, sends
// requests at chosen instants; a round not held starts max_delay = 2 ms
// after the admission of its oldest request.
class PacedStar {
 public:
  static constexpr ReplicaId kClient = 4;

  explicit PacedStar(uint32_t max_batch)
      : model_(kClient + 1, 50 * kMsec),
        net_(&sim_, &model_, &faults_),
        matrix_(kClient),
        rsm_(&sim_, &net_, &matrix_, Options()),
        queue_(Policy(max_batch)) {
    sim_.EnableTrace();
    model_.Set(kClient, 0, 1 * kMsec);
    net_.Register(kClient, &sink_);
    rsm_.BindRequestQueue(&queue_);
    rsm_.SetTopology(TreeTopology::Build({0}, {1, 2, 3}));
    rsm_.Start();
  }

  void RunUntil(SimTime t) { sim_.RunUntil(t); }

  // Runs to `at`, then sends `count` requests.
  void SendAt(SimTime at, int count) {
    sim_.RunUntil(at);
    for (int i = 0; i < count; ++i) {
      auto req = MakeMessage<ClientRequestMsg>();
      req->client = kClient;
      req->request_id = next_id_++;
      req->sent_at = at;
      net_.Send(kClient, 0, std::move(req));
    }
  }

  // Every round start so far, with its batch size.
  std::vector<std::pair<SimTime, uint64_t>> Starts() const {
    std::vector<std::pair<SimTime, uint64_t>> starts;
    for (const TraceRecord& r : sim_.trace()->records()) {
      if (r.kind == static_cast<uint16_t>(TraceKind::kPropose)) {
        starts.emplace_back(r.t, r.b);
      }
    }
    return starts;
  }

  TreeRsm& rsm() { return rsm_; }
  const RequestQueue& queue() const { return queue_; }

 private:
  static TreeRsmOptions Options() {
    TreeRsmOptions opts;
    opts.n = kClient;
    opts.f = 1;
    opts.pipeline_depth = 3;
    return opts;
  }

  static BatchPolicy Policy(uint32_t max_batch) {
    BatchPolicy policy;
    policy.max_batch = max_batch;
    policy.max_delay = 2 * kMsec;
    return policy;
  }

  Simulator sim_;
  MatrixLatencyModel model_;
  FaultModel faults_;
  Network net_;
  ReplySink sink_;
  LatencyMatrix matrix_;
  TreeRsm rsm_;
  RequestQueue queue_;
  uint64_t next_id_ = 0;
};

// With two slots free the pipeline is not the bottleneck, so nothing is
// held: rounds start within D / 3 of the previous start, each exactly
// max_delay after its request's admission. (A closed-loop client cannot
// show this: its next request arrives after its round commits, more than
// D / 3 after the last start.)
TEST(TreeRsmSim, PacingNeverDelaysAFreePipeline) {
  PacedStar star(/*max_batch=*/1000);
  star.SendAt(0, 1);            // starts at 3, commits at 103: D = 100 ms
  star.SendAt(110 * kMsec, 1);  // starts at 113
  star.SendAt(120 * kMsec, 1);  // one round in flight: starts at 123
  star.SendAt(215 * kMsec, 1);  // 113's round is done: starts at 218
  star.SendAt(222 * kMsec, 1);  // 123's round commits at 223: starts at 225
  star.RunUntil(400 * kMsec);
  const std::vector<std::pair<SimTime, uint64_t>> expected = {
      {3 * kMsec, 1}, {113 * kMsec, 1}, {123 * kMsec, 1}, {218 * kMsec, 1}, {225 * kMsec, 1}};
  EXPECT_EQ(star.Starts(), expected);
  EXPECT_EQ(star.rsm().committed_blocks(), 5u);
}

// The start that would take the last free slot is held until D / 3 after
// the previous start, but max_batch requests arriving inside a hold start a
// round the instant the last of them is admitted.
TEST(TreeRsmSim, FullBatchOverridesPacing) {
  PacedStar star(/*max_batch=*/4);
  star.SendAt(0, 1);            // starts at 3, commits at 103: D = 100 ms
  star.SendAt(110 * kMsec, 1);  // starts at 113
  star.SendAt(120 * kMsec, 1);  // starts at 123: two rounds in flight
  star.SendAt(130 * kMsec, 1);  // the last free slot: held until 123 + D / 3
  star.SendAt(215 * kMsec, 1);  // 113's round is done: starts at 218
  star.SendAt(225 * kMsec, 4);  // 123's round is done: held until 218 + D / 3,
                                // but a full batch goes at once
  star.RunUntil(400 * kMsec);
  const SimTime third = 100 * kMsec / 3;
  const std::vector<std::pair<SimTime, uint64_t>> expected = {
      {3 * kMsec, 1},           {113 * kMsec, 1}, {123 * kMsec, 1},
      {123 * kMsec + third, 1}, {218 * kMsec, 1}, {226 * kMsec, 4}};
  EXPECT_EQ(star.Starts(), expected);
  EXPECT_EQ(star.rsm().committed_blocks(), 6u);
  EXPECT_EQ(star.queue().batches_size_triggered(), 1u);
}

// A new tree's round time is unknown, so it is not paced until it commits a
// round: after a forced reconfiguration, the start that fills the last free
// slot goes at its deadline.
TEST(TreeRsmSim, NewTreeIsNotPacedUntilItCommits) {
  PacedStar star(/*max_batch=*/1000);
  star.SendAt(0, 1);  // starts at 3, commits at 103: D = 100 ms
  star.RunUntil(150 * kMsec);
  star.rsm().SetTopologyOrConfig(TreeTopology::Build({0}, {3, 2, 1}).ToConfig());
  star.SendAt(200 * kMsec, 1);  // starts at 203
  star.SendAt(210 * kMsec, 1);  // starts at 213: two rounds in flight
  star.SendAt(220 * kMsec, 1);  // the last free slot, not held: starts at 223
  star.RunUntil(400 * kMsec);
  const std::vector<std::pair<SimTime, uint64_t>> expected = {
      {3 * kMsec, 1}, {203 * kMsec, 1}, {213 * kMsec, 1}, {223 * kMsec, 1}};
  EXPECT_EQ(star.Starts(), expected);
  EXPECT_EQ(star.rsm().reconfigurations(), 1u);
  EXPECT_EQ(star.rsm().committed_blocks(), 4u);
}

// --- PBFT family (Fig. 7 machinery) ------------------------------------------

std::unique_ptr<Deployment> PbftDeployment(Protocol protocol, PbftOptions opts) {
  return Deployment::Builder()
      .WithGeo(Europe21())
      .WithProtocol(protocol)
      .WithPbftOptions(opts)
      .Build();
}

PbftOptions BaseOptions() {
  PbftOptions opts;
  opts.optimize_at = 5 * kSec;
  return opts;
}

TEST(PbftSim, CommitsAndServesClients) {
  auto d = PbftDeployment(Protocol::kPbft, BaseOptions());
  d->Start();
  d->RunUntil(10 * kSec);
  EXPECT_GT(d->pbft().committed_instances(), 20u);
  const auto& samples = d->fleet()->client(0).samples();
  ASSERT_GT(samples.size(), 10u);
  for (const ClientSample& s : samples) {
    EXPECT_GT(s.latency_ms, 1.0);
    EXPECT_LT(s.latency_ms, 500.0);
  }
}

TEST(PbftSim, AwareOptimizationReducesLatency) {
  auto d = PbftDeployment(Protocol::kAware, BaseOptions());
  d->Start();
  d->RunUntil(30 * kSec);
  const auto& samples = d->fleet()->client(0).samples();
  ASSERT_FALSE(d->pbft().reconfigure_times().empty());
  const SimTime opt_at = d->pbft().reconfigure_times().front();
  RunningStat before, after;
  for (const ClientSample& s : samples) {
    (s.at < opt_at ? before : after).Add(s.latency_ms);
  }
  ASSERT_GT(before.count(), 5u);
  ASSERT_GT(after.count(), 5u);
  EXPECT_LT(after.mean(), before.mean());
}

TEST(PbftSim, ProbesFillLatencyMatrix) {
  auto d = PbftDeployment(Protocol::kAware, BaseOptions());
  d->Start();
  d->RunUntil(2 * kSec);
  EXPECT_DOUBLE_EQ(d->pbft().matrix().Coverage(), 1.0);
}

TEST(PbftSim, DelayAttackDetectedOnlyByOptiAware) {
  // The Fig. 7 storyline: the replica holding the leader role after Aware's
  // optimization turns Byzantine and delays its Pre-Prepares.
  for (Protocol protocol : {Protocol::kAware, Protocol::kOptiAware}) {
    PbftOptions opts = BaseOptions();
    opts.delta = 1.5;
    auto d = PbftDeployment(protocol, opts);
    ReplicaId attacker = kNoReplica;
    d->sim().ScheduleAt(15 * kSec, [&] {
      attacker = d->pbft().config().leader;
      auto& leader_faults = d->faults().Mutable(attacker);
      leader_faults.proposal_delay = 600 * kMsec;
      leader_faults.fast_probes = true;  // probes stay fast: Aware stays blind
    });
    d->Start();
    d->RunUntil(60 * kSec);
    ASSERT_NE(attacker, kNoReplica);
    if (protocol == Protocol::kOptiAware) {
      EXPECT_NE(d->pbft().config().leader, attacker)
          << "OptiAware must reassign the leader role";
      EXPECT_FALSE(d->pbft().suspicion_times().empty());
      // Latency recovered: recent samples far below the attack latency.
      const auto& samples = d->fleet()->client(0).samples();
      ASSERT_GT(samples.size(), 10u);
      double tail = 0;
      int count = 0;
      for (size_t i = samples.size() - 5; i < samples.size(); ++i) {
        tail += samples[i].latency_ms;
        ++count;
      }
      EXPECT_LT(tail / count, 400.0);
    } else {
      // Aware has no suspicion machinery: the attacker keeps the leader role
      // and the system stays degraded.
      EXPECT_EQ(d->pbft().config().leader, attacker);
      EXPECT_TRUE(d->pbft().suspicion_times().empty());
      const auto& samples = d->fleet()->client(0).samples();
      ASSERT_GT(samples.size(), 10u);
      EXPECT_GT(samples.back().latency_ms, 400.0);
    }
  }
}

TEST(PbftSim, NoFalseSuspicionsWithoutAttack) {
  // Lemma 3 in action: after the matrix is measured, correct replicas do not
  // suspect each other under honest timing.
  PbftOptions opts = BaseOptions();
  opts.delta = 1.5;
  auto d = PbftDeployment(Protocol::kOptiAware, opts);
  d->Start();
  d->RunUntil(30 * kSec);
  EXPECT_TRUE(d->pbft().suspicion_times().empty());
  EXPECT_GT(d->pbft().committed_instances(), 50u);
}

// --- PBFT instance window and per-digest vote tallies -------------------------

// A PBFT group (n = 4, f = 1, quorum 3, replica 0 leads) whose fleet never
// starts: only the messages a test injects through Deployment::net() move it.
std::unique_ptr<Deployment> QuietPbft() {
  auto d = Deployment::Builder()
               .WithReplicas(4, 1)
               .WithProtocol(Protocol::kPbft)
               .Build();
  d->engine().Start();
  return d;
}

// Leader 0's Pre-Prepare for `seq`, with an empty batch; two timestamps give
// two proposals for one seq with different digests.
IntrusivePtr<PrePrepareMsg> Proposal(uint64_t seq, SimTime timestamp = 0) {
  auto pp = MakeMessage<PrePrepareMsg>();
  pp->seq = seq;
  pp->leader = 0;
  pp->timestamp = timestamp;
  return pp;
}

IntrusivePtr<PhaseMsg> Vote(bool accept, uint64_t seq, const Digest& digest) {
  auto v = MakeMessage<PhaseMsg>();
  v->accept = accept;
  v->seq = seq;
  v->digest = digest;
  return v;
}

// Sends each (sender, message) to replica `to` and lets the group settle.
void Deliver(Deployment& d, ReplicaId to,
             std::vector<std::pair<ReplicaId, MessagePtr>> msgs) {
  for (auto& [from, msg] : msgs) {
    d.net().Send(from, to, std::move(msg));
  }
  d.RunFor(1 * kSec);
}

bool Preprepared(const PbftHarness& h, ReplicaId r, uint64_t seq) {
  const auto state = h.instance_state(r, seq);
  return state.has_value() && state->preprepared;
}

TEST(PbftVotes, QuorumSplitOverTwoDigestsDoesNotCommit) {
  auto d = QuietPbft();
  PbftHarness& h = d->pbft();
  const Digest ours = Proposal(5, 1)->BatchDigest();
  const Digest other = Proposal(5, 2)->BatchDigest();
  ASSERT_NE(ours, other);
  // Replica 1 holds the Pre-Prepare and its own Write and Accept; 0, 2 and
  // 3 all write for it, so it accepts.
  Deliver(*d, 1, {{0, Proposal(5, 1)}});
  Deliver(*d, 1, {{0, Vote(false, 5, ours)}, {2, Vote(false, 5, ours)},
                  {3, Vote(false, 5, ours)}});
  ASSERT_TRUE(h.instance_state(1, 5)->accepted);
  // Four Accepts, a quorum of three only if digests are ignored.
  Deliver(*d, 1, {{0, Vote(true, 5, ours)}, {2, Vote(true, 5, other)},
                  {3, Vote(true, 5, other)}});
  EXPECT_FALSE(h.instance_state(1, 5)->committed);
  // A Write quorum split the same way does not accept either.
  Deliver(*d, 2, {{0, Proposal(6, 1)}});
  const Digest ours6 = Proposal(6, 1)->BatchDigest();
  Deliver(*d, 2, {{0, Vote(false, 6, ours6)}, {1, Vote(false, 6, other)},
                  {3, Vote(false, 6, other)}});
  EXPECT_TRUE(h.instance_state(2, 6)->preprepared);
  EXPECT_FALSE(h.instance_state(2, 6)->accepted);
}

TEST(PbftVotes, VotesBeforeThePrePrepareCountOnceItLands) {
  auto d = QuietPbft();
  PbftHarness& h = d->pbft();
  const Digest ours = Proposal(5)->BatchDigest();
  const Digest other = Proposal(5, 9)->BatchDigest();
  // Three Writes and two Accepts for the coming proposal, one Accept for
  // another batch.
  Deliver(*d, 1, {{0, Vote(false, 5, ours)}, {2, Vote(false, 5, ours)},
                  {3, Vote(false, 5, ours)}, {0, Vote(true, 5, ours)},
                  {2, Vote(true, 5, ours)}, {3, Vote(true, 5, other)}});
  ASSERT_TRUE(h.instance_state(1, 5).has_value());
  EXPECT_FALSE(h.instance_state(1, 5)->preprepared);
  // The Pre-Prepare lands: the Writes make 1 accept, and its own Accept is
  // the third for this digest.
  Deliver(*d, 1, {{0, Proposal(5)}});
  EXPECT_TRUE(h.instance_state(1, 5)->accepted);
  EXPECT_TRUE(h.instance_state(1, 5)->committed);
}

TEST(PbftWindow, OlderSeqIsDroppedAndCountedNotReset) {
  auto d = QuietPbft();
  PbftHarness& h = d->pbft();
  EXPECT_EQ(h.window_slots(1), 0u);  // allocated on the first PBFT message
  const Digest d69 = Proposal(69)->BatchDigest();
  Deliver(*d, 1, {{0, Proposal(69)}});
  Deliver(*d, 1, {{0, Vote(false, 69, d69)}, {2, Vote(false, 69, d69)},
                  {0, Vote(true, 69, d69)}, {2, Vote(true, 69, d69)}});
  EXPECT_EQ(h.window_slots(1), 64u);
  ASSERT_TRUE(h.instance_state(1, 69)->committed);
  ASSERT_EQ(h.stale_drops(), 0u);
  // Seq 5 shares seq 69's slot: its Pre-Prepare and votes are dropped.
  const Digest d5 = Proposal(5)->BatchDigest();
  Deliver(*d, 1, {{0, Proposal(5)}, {2, Vote(false, 5, d5)}, {3, Vote(true, 5, d5)}});
  EXPECT_EQ(h.stale_drops(), 3u);
  EXPECT_FALSE(h.instance_state(1, 5).has_value());
  EXPECT_TRUE(h.instance_state(1, 69)->committed);
}

TEST(PbftWindow, NewerSeqWaitsForThePendingInstance) {
  auto d = QuietPbft();
  PbftHarness& h = d->pbft();
  const Digest d5 = Proposal(5)->BatchDigest();
  Deliver(*d, 1, {{0, Proposal(5)}});
  // Seq 69 shares seq 5's slot while 5 is pending: dropped and counted.
  Deliver(*d, 1, {{3, Vote(false, 69, d5)}, {3, Vote(true, 69, d5)}});
  EXPECT_EQ(h.busy_drops(), 2u);
  EXPECT_FALSE(h.instance_state(1, 69).has_value());
  // Seq 5 still commits; then seq 69 may take the slot.
  Deliver(*d, 1, {{0, Vote(false, 5, d5)}, {2, Vote(false, 5, d5)},
                  {0, Vote(true, 5, d5)}, {2, Vote(true, 5, d5)}});
  EXPECT_TRUE(h.instance_state(1, 5)->committed);
  Deliver(*d, 1, {{3, Vote(false, 69, d5)}});
  EXPECT_TRUE(h.instance_state(1, 69).has_value());
  EXPECT_EQ(h.busy_drops(), 2u);
}

TEST(PbftWindow, FarFutureFloodKeepsWindowsBoundedAndCommitting) {
  // One replica floods every other one with Writes and Accepts for 1,280
  // far-future seqs, 20 per slot.
  auto d = PbftDeployment(Protocol::kPbft, BaseOptions());
  PbftHarness& h = d->pbft();
  const uint32_t n = d->n();
  const ReplicaId flooder = n - 1;
  d->Start();
  d->RunUntil(3 * kSec);
  EXPECT_EQ(h.stale_drops() + h.busy_drops(), 0u);  // honest runs drop nothing
  const uint64_t live = h.committed_instances();    // the leader's open instance
  for (uint64_t seq = live + 100; seq < live + 100 + 20 * 64; ++seq) {
    for (ReplicaId r = 0; r < flooder; ++r) {
      d->net().Send(flooder, r, Vote(false, seq, Digest{}));
      d->net().Send(flooder, r, Vote(true, seq, Digest{}));
    }
  }
  d->RunUntil(8 * kSec);
  EXPECT_GT(h.busy_drops(), 0u);  // the live instance kept its slots
  const uint64_t committed = h.committed_instances();
  // Past the flood's first seqs, whose slots the flood still held.
  EXPECT_GT(committed, live + 120);
  for (ReplicaId r = 0; r < flooder; ++r) {
    EXPECT_EQ(h.window_slots(r), 64u);
    const auto recent = h.instance_state(r, committed - 5);
    ASSERT_TRUE(recent.has_value()) << "replica " << r;
    EXPECT_TRUE(recent->committed) << "replica " << r;
  }
}

TEST(PbftWindow, SelfNamedFarFuturePrePrepareDoesNotHaltTheGroup) {
  // One Pre-Prepare for a seq 70 ahead, from a replica naming itself leader:
  // had it committed, its slot would drop the live seq 6 ahead everywhere
  // and execution would stop there. Sent by a replica that never led, and by
  // the leader deposed just before.
  for (bool deposed : {false, true}) {
    auto d = PbftDeployment(Protocol::kPbft, BaseOptions());
    PbftHarness& h = d->pbft();
    const uint32_t n = d->n();
    d->Start();
    d->RunUntil(3 * kSec);
    ReplicaId attacker = n - 1;
    if (deposed) {
      attacker = h.config().leader;
      RoleConfig next = h.config();
      next.leader = attacker + 1;
      h.SetTopologyOrConfig(next);
    }
    const uint64_t far = h.committed_instances() + 70;
    auto pp = Proposal(far);
    pp->leader = attacker;
    for (ReplicaId r = 0; r < n; ++r) {
      d->net().Send(attacker, r, pp);
    }
    d->RunUntil(3500 * kMsec);
    for (ReplicaId r = 0; r < n; ++r) {
      EXPECT_FALSE(Preprepared(h, r, far)) << "deposed " << deposed << " replica " << r;
    }
    d->RunUntil(8 * kSec);
    EXPECT_GT(h.committed_instances(), far + 10) << "deposed " << deposed;
  }
}

TEST(PbftWindow, DeposedLeaderInFlightProposalStillLands) {
  auto d = QuietPbft();
  PbftHarness& h = d->pbft();
  // Leader 0 numbers seq 0 for one request; its Pre-Prepare is held back
  // 1 s on the wire.
  d->faults().Mutable(0).proposal_delay = 1 * kSec;
  auto req = MakeMessage<ClientRequestMsg>();
  req->client = 3;
  d->net().Send(3, 0, req);
  d->RunFor(300 * kMsec);
  ASSERT_TRUE(h.instance_state(0, 0)->preprepared);
  for (ReplicaId r = 1; r < 4; ++r) {
    ASSERT_FALSE(Preprepared(h, r, 0)) << "replica " << r;
  }
  // Replica 1 takes over from seq 1 on; seq 0 is still 0's to propose.
  RoleConfig next = h.config();
  next.leader = 1;
  h.SetTopologyOrConfig(next);
  d->RunFor(3 * kSec);
  for (ReplicaId r = 0; r < 4; ++r) {
    EXPECT_TRUE(h.instance_state(r, 0)->committed) << "replica " << r;
  }
  // Seq 1 is the new leader's: the deposed leader's proposal for it is
  // ignored, and the new leader's lands.
  Deliver(*d, 2, {{0, Proposal(1)}});
  EXPECT_FALSE(Preprepared(h, 2, 1));
  auto ours = Proposal(1);
  ours->leader = 1;
  Deliver(*d, 2, {{1, ours}});
  EXPECT_TRUE(Preprepared(h, 2, 1));
}

// --- PBFT batch records -------------------------------------------------------

// Leader 0's Pre-Prepare for seq 0 holding one put of `value` to key 1 from
// client 4, stamped `value`: two values give two proposals for one seq with
// different digests and batches.
IntrusivePtr<PrePrepareMsg> PutProposal(uint64_t value) {
  auto pp = Proposal(0, static_cast<SimTime>(value));
  KvOp op;
  op.kind = KvOpKind::kPut;
  op.key = 1;
  op.arg = value;
  RequestRef req;
  req.client = 4;
  req.request_id = value;
  req.op = op.Encode();
  pp->batch.push_back(req);
  return pp;
}

// A state machine that applied only `pp`'s batch.
Digest StateAfter(const PrePrepareMsg& pp) {
  KvStateMachine sm;
  for (const RequestRef& req : pp.batch) {
    sm.Apply(req.op);
  }
  return sm.StateDigest();
}

// An equivocating leader's two Pre-Prepares for one seq are two messages,
// so two batch records: each replica tallies and applies the digest and
// batch of the message it accepted. Replicas 0-2 take one proposal and
// commit it on their own votes; replica 3 takes the other, which forged
// votes then commit there.
TEST(PbftRecord, TwoProposalsForOneSeqKeepTheirOwnRecords) {
  auto d = Deployment::Builder()
               .WithReplicas(4, 1)
               .WithProtocol(Protocol::kPbft)
               .WithWorkload(PbftDefaultWorkload(4, 1))
               .WithStateMachine()
               .Build();
  d->engine().Start();  // the fleet never starts: only injected messages move
  PbftHarness& h = d->pbft();
  const RsmGroup& group = *d->state_machines();
  const auto ours = PutProposal(10);
  const auto other = PutProposal(20);
  ASSERT_NE(ours->BatchDigest(), other->BatchDigest());
  for (ReplicaId r = 0; r < 3; ++r) {
    d->net().Send(0, r, ours);
  }
  d->net().Send(0, 3, other);
  d->RunFor(1 * kSec);
  for (ReplicaId r = 0; r < 3; ++r) {
    EXPECT_TRUE(h.instance_state(r, 0)->committed) << "replica " << r;
  }
  EXPECT_TRUE(h.instance_state(3, 0)->preprepared);
  EXPECT_FALSE(h.instance_state(3, 0)->accepted);  // its peers voted for ours
  Deliver(*d, 3, {{0, Vote(false, 0, other->BatchDigest())},
                  {1, Vote(false, 0, other->BatchDigest())},
                  {0, Vote(true, 0, other->BatchDigest())},
                  {1, Vote(true, 0, other->BatchDigest())}});
  EXPECT_TRUE(h.instance_state(3, 0)->committed);
  for (ReplicaId r = 0; r < 4; ++r) {
    const PrePrepareMsg& mine = r < 3 ? *ours : *other;
    ASSERT_EQ(group.rsm(r).applied(), 1u) << "replica " << r;
    EXPECT_EQ(group.rsm(r).log().EntryAt(0).payload, EncodeOps(mine.batch))
        << "replica " << r;
    EXPECT_EQ(group.rsm(r).StateDigest(), StateAfter(mine)) << "replica " << r;
  }
}

// PBFT replicas share each Pre-Prepare's batch record, and with it the
// SharedBatch and chain step of its log entry; that must never hand a
// replica whose log diverged the others' chain. A forged Pre-Prepare for a
// coming seq, committed at one replica by forged votes, makes that
// replica's entry there differ from everyone else's; every later entry it
// shares with them. Each replica's head must still equal its own entries
// hashed one by one. The PBFT twin of RsmGroup.OneDivergedReplicaIsReported.
TEST(PbftRecord, OneDivergedReplicaKeepsItsOwnChain) {
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kOptiAware)
               .WithPbftOptions(BaseOptions())
               .WithWorkload(PbftDefaultWorkload(21, 3))
               .WithStateMachine()
               .Build();
  PbftHarness& h = d->pbft();
  const uint32_t n = d->n();
  const ReplicaId diverged = n - 1;
  d->Start();
  d->RunUntil(3 * kSec);
  // The leader proposes one instance at a time, so this seq is two commits
  // away: the forged proposal lands first.
  const uint64_t seq = h.committed_instances() + 3;
  auto forged = Proposal(seq, d->sim().now());
  forged->leader = h.config().leader;
  const Digest digest = forged->BatchDigest();
  d->net().Send(forged->leader, diverged, forged);
  for (ReplicaId r = 0; r < n; ++r) {
    if (r != diverged) {
      d->net().Send(r, diverged, Vote(false, seq, digest));
      d->net().Send(r, diverged, Vote(true, seq, digest));
    }
  }
  d->RunUntil(8 * kSec);
  const RsmGroup& group = *d->state_machines();
  ASSERT_GT(group.rsm(diverged).applied(), seq + 10);
  ASSERT_GT(group.rsm(0).applied(), seq + 10);
  EXPECT_NE(group.rsm(diverged).log().EntryAt(seq).payload,
            group.rsm(0).log().EntryAt(seq).payload);
  for (ReplicaId r = 0; r < n; ++r) {
    const Log& log = group.rsm(r).log();
    ASSERT_EQ(log.base_index(), 0u);  // no checkpoint truncated it
    Log rehashed;
    for (uint64_t i = 0; i < log.next_index(); ++i) {
      rehashed.Append(log.EntryAt(i));
    }
    EXPECT_EQ(rehashed.head(), log.head()) << "replica " << r;
    if (r != diverged && log.next_index() > seq) {
      EXPECT_NE(log.HeadAt(seq), group.rsm(diverged).log().HeadAt(seq))
          << "replica " << r;
    }
  }
}

}  // namespace
}  // namespace optilog
