// The workload layer (src/workload/): leader-side request queue admission,
// open/closed-loop client fleets on the typed event lanes, adaptive
// batching in TreeRsm, re-routing after a target-replica crash, the client
// edge both engine families share, and the thread-count determinism of
// workload-driven sweeps.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/api/deployment.h"
#include "src/runner/runner.h"
#include "src/shard/sharded_deployment.h"
#include "src/workload/request_queue.h"

namespace optilog {
namespace {

// --- RequestQueue ------------------------------------------------------------

TEST(RequestQueueTest, AdmissionDedupAndOverflow) {
  BatchPolicy policy;
  policy.max_batch = 2;
  policy.max_queue = 3;
  RequestQueue q(policy);

  EXPECT_EQ(q.Push({7, 0, 0, {}}, 10), RequestQueue::Admit::kAccepted);
  EXPECT_EQ(q.Push({7, 0, 0, {}}, 11), RequestQueue::Admit::kDuplicate);  // retry
  EXPECT_EQ(q.Push({7, 1, 0, {}}, 12), RequestQueue::Admit::kAccepted);
  EXPECT_EQ(q.Push({8, 0, 0, {}}, 13), RequestQueue::Admit::kAccepted);
  EXPECT_EQ(q.Push({8, 1, 0, {}}, 14), RequestQueue::Admit::kDropped);  // full
  EXPECT_EQ(q.accepted(), 3u);
  EXPECT_EQ(q.duplicates(), 1u);
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.peak_depth(), 3u);
  EXPECT_EQ(q.front_enqueued_at(), 10);

  // FIFO pop, capped at max_batch; the caller names the trigger.
  const auto first = q.PopBatch(20, BatchTrigger::kSize);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].client, 7u);
  EXPECT_EQ(first[0].request_id, 0u);
  EXPECT_EQ(first[1].request_id, 1u);
  EXPECT_EQ(q.batches_size_triggered(), 1u);
  const auto second = q.PopBatch(21, BatchTrigger::kDeadline);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(q.batches_deadline_triggered(), 1u);
  EXPECT_EQ(q.batches_idle_triggered(), 0u);
  EXPECT_TRUE(q.empty());

  // A duplicate of a popped (still-windowed) request stays rejected.
  EXPECT_EQ(q.Push({7, 0, 0, {}}, 30), RequestQueue::Admit::kDuplicate);
}

TEST(RequestQueueTest, RequeuePreservesOrderWithoutRecounting) {
  RequestQueue q(BatchPolicy{});
  q.Push({1, 0, 0, {}}, 0);
  q.Push({1, 1, 0, {}}, 1);
  q.Push({1, 2, 0, {}}, 2);
  auto batch = q.PopBatch(5, BatchTrigger::kDeadline);
  ASSERT_EQ(batch.size(), 3u);
  // The round failed: the batch returns to the FRONT, oldest first, and
  // `accepted` does not move (committed at most once per admission).
  q.Push({1, 3, 0, {}}, 6);
  q.Requeue(std::move(batch), 7);
  EXPECT_EQ(q.accepted(), 4u);
  const auto again = q.PopBatch(8, BatchTrigger::kDeadline);
  ASSERT_EQ(again.size(), 4u);
  EXPECT_EQ(again[0].request_id, 0u);
  EXPECT_EQ(again[1].request_id, 1u);
  EXPECT_EQ(again[2].request_id, 2u);
  EXPECT_EQ(again[3].request_id, 3u);
}

// The flat dedup window against the std::set model it replaced: a floor
// plus the 1024 newest admitted ids per (client, shard). Seeded sequences
// mix in-order ids, gaps, retries, duplicates, out-of-order and far-future
// ids, overflow drops and requeues, with thousands of ids per window; the
// Admit result and every counter must agree at every step.
class ReferenceQueue {
 public:
  explicit ReferenceQueue(BatchPolicy policy) : policy_(policy) {}

  RequestQueue::Admit Push(ReplicaId client, uint32_t shard, uint64_t id) {
    Window& w = windows_[{client, shard}];
    if (id < w.floor || w.seen.count(id) > 0) {
      ++duplicates;
      return RequestQueue::Admit::kDuplicate;
    }
    if (depth >= policy_.max_queue) {
      ++dropped;
      return RequestQueue::Admit::kDropped;
    }
    w.seen.insert(id);
    while (w.seen.size() > 1024) {
      w.floor = *w.seen.begin() + 1;
      w.seen.erase(w.seen.begin());
    }
    ++accepted;
    ++depth;
    peak_depth = std::max(peak_depth, depth);
    return RequestQueue::Admit::kAccepted;
  }
  size_t Pop() {
    const size_t take = std::min<size_t>(depth, policy_.max_batch);
    depth -= take;
    return take;
  }
  void Requeue(size_t count) {
    depth += count;
    peak_depth = std::max(peak_depth, depth);
  }
  uint64_t floor(ReplicaId client, uint32_t shard) const {
    const auto it = windows_.find({client, shard});
    return it == windows_.end() ? 0 : it->second.floor;
  }
  uint64_t max_floor() const {
    uint64_t out = 0;
    for (const auto& [key, w] : windows_) {
      out = std::max(out, w.floor);
    }
    return out;
  }

  uint64_t accepted = 0;
  uint64_t dropped = 0;
  uint64_t duplicates = 0;
  size_t depth = 0;
  size_t peak_depth = 0;

 private:
  struct Window {
    uint64_t floor = 0;
    std::set<uint64_t> seen;
  };
  BatchPolicy policy_;
  std::map<std::pair<ReplicaId, uint32_t>, Window> windows_;
};

TEST(RequestQueueTest, DedupWindowMatchesSetModel) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    BatchPolicy policy;
    policy.max_batch = 2 + static_cast<uint32_t>(rng.Below(8));
    policy.max_queue = 16 + rng.Below(64);
    RequestQueue q(policy);
    ReferenceQueue ref(policy);
    constexpr uint32_t kClients = 3;
    constexpr uint32_t kShards = 2;
    uint64_t next[kClients][kShards] = {};
    uint64_t last[kClients][kShards] = {};
    std::vector<std::vector<RequestRef>> popped;
    for (int step = 0; step < 60000; ++step) {
      // Alternate draining and flooding phases so the queue both empties
      // and overflows.
      const uint64_t pop_percent = (step / 2000) % 2 == 0 ? 25 : 2;
      const uint64_t action = rng.Below(100);
      if (action < pop_percent) {
        std::vector<RequestRef> batch = q.PopBatch(step, BatchTrigger::kSize);
        ASSERT_EQ(batch.size(), ref.Pop()) << "seed " << seed << " step " << step;
        popped.push_back(std::move(batch));
      } else if (action < pop_percent + 1 && !popped.empty()) {
        ref.Requeue(popped.back().size());
        q.Requeue(std::move(popped.back()), step);
        popped.pop_back();
      } else {
        const ReplicaId c = static_cast<ReplicaId>(rng.Below(kClients));
        const uint32_t s = static_cast<uint32_t>(rng.Below(kShards));
        uint64_t& n = next[c][s];
        const uint64_t kind = rng.Below(100);
        uint64_t id;
        if (kind < 45 || n == 0) {
          id = n++;  // in order
        } else if (kind < 55) {
          n += 1 + rng.Below(40);  // gap
          id = n++;
        } else if (kind < 65) {
          id = n - 1 - rng.Below(std::min<uint64_t>(n, 8));  // recent retry
        } else if (kind < 72) {
          id = last[c][s];  // back-to-back duplicate
        } else if (kind < 82) {
          id = n - 1 - rng.Below(std::min<uint64_t>(n, 3000));  // out of order
        } else if (kind < 88) {
          // Around the floor: pruned ids, the oldest windowed ones, and
          // never-admitted ids in between.
          id = std::max<uint64_t>(ref.floor(c, s), 3) - 3 + rng.Below(8);
        } else if (kind < 94) {
          id = rng.Below(n);  // anywhere in the client's history
        } else {
          id = n + rng.Below(2000);  // far future; in-order ids reach it later
        }
        last[c][s] = id;
        const RequestQueue::Admit got = q.Push({c, id, 0, {}, s}, step);
        ASSERT_EQ(got, ref.Push(c, s, id))
            << "seed " << seed << " step " << step << " id " << id;
      }
      ASSERT_EQ(q.accepted(), ref.accepted) << "seed " << seed << " step " << step;
      ASSERT_EQ(q.duplicates(), ref.duplicates) << "seed " << seed << " step " << step;
      ASSERT_EQ(q.dropped(), ref.dropped) << "seed " << seed << " step " << step;
      ASSERT_EQ(q.depth(), ref.depth) << "seed " << seed << " step " << step;
      ASSERT_EQ(q.peak_depth(), ref.peak_depth) << "seed " << seed << " step " << step;
    }
    // The sequence reached every branch: admissions, both rejections, and
    // windows that pruned past 1024 ids.
    EXPECT_GT(ref.accepted, 0u);
    EXPECT_GT(ref.duplicates, 0u);
    EXPECT_GT(ref.dropped, 0u);
    EXPECT_GT(ref.max_floor(), 1024u) << "seed " << seed;
  }
}

// --- Closed-loop fleets on the tree family ------------------------------------

std::unique_ptr<Deployment> KauriWithWorkload(WorkloadOptions w,
                                              TreeRsmOptions topts = {}) {
  return Deployment::Builder()
      .WithGeo(Europe21())
      .WithProtocol(Protocol::kKauri)
      .WithSeed(9)
      .WithTreeOptions(topts)
      .WithWorkload(w)
      .Build();
}

TEST(WorkloadTree, ClosedLoopServesRequestsOnTypedLanesOnly) {
  WorkloadOptions w;
  w.clients = 8;
  w.think_time = 20 * kMsec;
  w.batch.max_batch = 4;
  w.batch.max_delay = 10 * kMsec;
  auto d = KauriWithWorkload(w);
  d->Start();
  d->RunUntil(20 * kSec);

  const MetricsReport m = d->Metrics();
  EXPECT_TRUE(m.workload.enabled);
  EXPECT_GT(m.committed, 20u);
  EXPECT_GT(m.workload.requests_completed, 100u);
  EXPECT_LE(m.workload.requests_completed, m.workload.requests_sent);
  // Every committed command is an admitted client request (no self-driving,
  // no double-commits), and every admitted request came from the fleet. The
  // run stops mid-flight, so commits may lead completions by at most the
  // fleet's outstanding window (replies still on the wire).
  EXPECT_GE(m.total_commands, m.workload.requests_completed);
  EXPECT_LE(m.total_commands, m.workload.requests_completed + w.clients);
  EXPECT_LE(m.total_commands, m.workload.requests_accepted);
  // Honest end-to-end latency: a Europe-wide tree round trip, not zero.
  EXPECT_GT(m.workload.latency_p50_ms, 10.0);
  EXPECT_GE(m.workload.latency_p99_ms, m.workload.latency_p50_ms);
  EXPECT_GT(m.workload.batches_size_triggered +
                m.workload.batches_deadline_triggered,
            0u);
  // The whole client path (arrivals, requests, replies, think timers) rides
  // the typed lanes: zero closures, as in every protocol hot path.
  EXPECT_EQ(m.event_core.closure_events, 0u);
  EXPECT_GT(m.event_core.typed_timers, 0u);
}

TEST(WorkloadTree, ClosedLoopClientCountSaturatesThroughputMonotonically) {
  // Capacity is bounded by max_batch per round with pipeline depth 1: more
  // closed-loop clients raise throughput until the batch cap saturates it,
  // after which extra clients only buy queueing delay (p99 grows).
  TreeRsmOptions topts;
  topts.pipeline_depth = 1;
  double ops[3];
  double p99[3];
  const uint32_t client_counts[3] = {4, 32, 128};
  for (int i = 0; i < 3; ++i) {
    WorkloadOptions w;
    w.clients = client_counts[i];
    w.think_time = 0;
    w.batch.max_batch = 16;
    w.batch.max_delay = 5 * kMsec;
    auto d = KauriWithWorkload(w, topts);
    d->Start();
    d->RunUntil(20 * kSec);
    const MetricsReport m = d->Metrics();
    ops[i] = m.MeanOps(1, 20);
    p99[i] = m.workload.latency_p99_ms;
    EXPECT_GT(m.workload.requests_completed, 0u) << client_counts[i];
  }
  // Below saturation: more clients, more throughput.
  EXPECT_GT(ops[1], ops[0] * 1.5);
  // At saturation: throughput monotone (never collapses) but flat...
  EXPECT_GE(ops[2], ops[1] * 0.95);
  EXPECT_LE(ops[2], ops[1] * 1.25);
  // ...while the extra clients pay in queueing delay.
  EXPECT_GT(p99[2], p99[1] * 1.5);
}

// --- Re-routing after the target replica crashes -------------------------------

TEST(WorkloadTree, CrashedTargetReplicaReroutesWithoutDoubleCounting) {
  // Clients target the root; the root crashes mid-run. The OptiLog loop
  // elects a new tree while client retries probe other replicas, which
  // forward to the new root. The leader-side dedup window guarantees a
  // re-sent request is never committed twice.
  WorkloadOptions w;
  w.clients = 10;
  w.think_time = 10 * kMsec;
  w.retry_timeout = 500 * kMsec;  // several probes fit inside the recovery
  w.batch.max_batch = 32;
  w.batch.max_delay = 10 * kMsec;
  TreeRsmOptions topts;
  topts.pipeline_depth = 2;

  ReplicaId first_root = kNoReplica;
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kOptiTree)
               .WithSeed(11)
               .WithInitialSearch(AnnealingParams::ForBudget(2000))
               .WithTreeOptions(topts)
               .WithWorkload(w)
               .WithOptiLogReconfig(/*search_window=*/500 * kMsec)
               .WithFaults([&first_root](Deployment& dep) {
                 first_root = dep.tree().topology().root();
                 dep.faults().Mutable(first_root).crash_at = 10 * kSec;
               })
               .Build();
  d->Start();
  d->RunUntil(40 * kSec);

  const MetricsReport m = d->Metrics();
  ASSERT_NE(d->tree().topology().root(), first_root);
  EXPECT_GE(m.reconfigurations, 1u);
  // Clients noticed the dead target and re-routed.
  EXPECT_GT(m.workload.requests_retried, 0u);
  EXPECT_GT(m.workload.requests_deduped, 0u);  // retries caught by the window
  // Service resumed on the new root: completions recorded after recovery.
  uint64_t completed_after_crash = 0;
  for (uint32_t c = 0; c < w.clients; ++c) {
    for (const ClientSample& s : d->fleet()->client(c).samples()) {
      if (s.at > 15 * kSec) {
        ++completed_after_crash;
      }
    }
  }
  EXPECT_GT(completed_after_crash, 50u);
  // No double counting: every committed command maps to one admitted
  // request, and commits never exceed admissions even with retries and
  // requeued batches in play.
  EXPECT_LE(m.total_commands, m.workload.requests_accepted);
  EXPECT_GE(m.total_commands, m.workload.requests_completed);
  EXPECT_EQ(m.event_core.closure_events, 0u);
}

// Intermediates drop a view's aggregation state once its aggregate is sent,
// on the all-votes-in path and on the Lagg timer alike (a crashed leaf
// forces the timer every view). Sampled after every event, no replica ever
// holds more than a pipeline's worth of views, however many views the run
// commits.
TEST(WorkloadTree, PendingAggregationsStayBoundedByThePipeline) {
  WorkloadOptions w;
  w.clients = 16;
  w.think_time = 0;
  w.batch.max_batch = 8;
  w.batch.max_delay = 5 * kMsec;
  TreeRsmOptions topts;
  topts.pipeline_depth = 3;
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kKauri)
               .WithSeed(9)
               .WithTreeOptions(topts)
               .WithWorkload(w)
               .WithFaults([](Deployment& dep) {
                 const ReplicaId leaf = dep.tree().topology().Leaves().front();
                 dep.faults().Mutable(leaf).crash_at = 5 * kSec;
               })
               .Build();
  d->Start();
  size_t peak = 0;
  while (d->sim().now() < 30 * kSec && d->sim().Step()) {
    for (ReplicaId id = 0; id < d->n(); ++id) {
      peak = std::max(peak, d->tree().PendingAggregations(id));
    }
  }
  const MetricsReport m = d->Metrics();
  EXPECT_GT(m.committed, 500u);
  EXPECT_GT(m.suspicions, 0u);  // the crashed leaf's parent aggregated on its timer
  EXPECT_GE(peak, 1u);
  EXPECT_LE(peak, 2 * topts.pipeline_depth);
}

// --- PBFT family on the shared layer ------------------------------------------

TEST(WorkloadPbft, CustomFleetOverridesLegacyClosedLoop) {
  PbftOptions popts;
  popts.optimize_at = 5 * kSec;
  WorkloadOptions w;
  w.clients = 6;  // fewer clients than replicas
  w.arrival = ArrivalProcess::kOpenPoisson;
  w.rate_per_client = 10.0;
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithProtocol(Protocol::kPbft)
               .WithPbftOptions(popts)
               .WithWorkload(w)
               .Build();
  d->Start();
  d->RunUntil(10 * kSec);
  const MetricsReport m = d->Metrics();
  EXPECT_EQ(d->fleet()->size(), 6u);
  // ~6 clients x 10 req/s x 10 s, minus the tail in flight.
  EXPECT_GT(m.workload.requests_sent, 500u);
  EXPECT_GT(m.workload.requests_completed, 450u);
  EXPECT_GT(m.workload.latency_p50_ms, 1.0);
  // PBFT proposes on idle, not on a deadline timer.
  EXPECT_GT(m.workload.batches_idle_triggered, 0u);
  EXPECT_EQ(m.workload.batches_deadline_triggered, 0u);
  EXPECT_EQ(m.event_core.closure_events, 0u);
}

// The reply rule (ReplyQuorum): a PBFT request completes once f + 1 = 2
// distinct replicas have sent byte-identical results. The leader is crashed
// from t = 0, so the one outstanding request only sees injected replies.
TEST(WorkloadPbft, RequestCompletesOnFPlusOneMatchingResultsFromDistinctReplicas) {
  WorkloadOptions w;
  w.clients = 1;
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithReplicas(4, 1)
               .WithProtocol(Protocol::kPbft)
               .WithWorkload(w)
               .WithFaults([](Deployment& dep) { dep.faults().Mutable(0).crash_at = 0; })
               .Build();
  d->Start();
  SimTime now = 1 * kSec;
  d->RunUntil(now);
  const ReplicaId client = d->fleet()->client(0).id();
  ASSERT_EQ(d->fleet()->completed(), 0u);

  // Replica `from` replies to request 0 with `result`; returns the fleet's
  // completions once the reply has landed.
  auto reply = [&](ReplicaId from, const Bytes& result) {
    auto msg = d->sim().pool().Make<ClientReplyMsg>();
    msg->request_id = 0;
    msg->result = result;
    d->net().Send(from, client, std::move(msg));
    now += 1 * kSec;
    d->RunUntil(now);
    return d->fleet()->completed();
  };
  const Bytes a{1, 2, 3};
  const Bytes b{1, 2, 4};
  EXPECT_EQ(reply(1, a), 0u);
  EXPECT_EQ(reply(1, a), 0u);  // the same replica again
  EXPECT_EQ(reply(2, b), 0u);  // a second replica, a different result
  EXPECT_EQ(reply(3, a), 1u);  // a third replica that matches the first
  EXPECT_EQ(reply(2, a), 1u);  // completed exactly once
}

// --- The client edge, per family ----------------------------------------------

class ClientEdge : public ::testing::TestWithParam<Protocol> {
 protected:
  bool tree() const { return GetParam() == Protocol::kHotStuff; }
};

TEST_P(ClientEdge, LeaderAdmitsForwardedRequestsOnceAndShardsOwnNoFleet) {
  auto d = Deployment::Builder()
               .WithReplicas(4, 1)
               .WithProtocol(GetParam())
               .WithWorkload(WorkloadOptions{})
               .WithTrace()
               .Build();
  ConsensusEngine& engine = d->engine();
  EXPECT_EQ(engine.Leader(), 0u);  // HotStuff's star root, PBFT's leader
  EXPECT_EQ(engine.RepliesNeeded(), tree() ? 1u : d->f() + 1);

  // The leader follows an installed configuration.
  RoleConfig moved = engine.ActiveConfig();
  if (tree()) {
    moved = TreeTopology::Build({2}, {0, 1, 3}).ToConfig();
  } else {
    moved.leader = 2;
  }
  engine.SetTopologyOrConfig(moved);
  EXPECT_EQ(engine.Leader(), 2u);

  // The engine alone: the fleet never sends. A request injected at replica
  // 1 is forwarded to the leader and admitted there once; a second copy is
  // a duplicate.
  engine.Start();
  auto req = MakeMessage<ClientRequestMsg>();
  req->client = d->n();  // the fleet's first client id
  req->request_id = 0;
  d->net().Send(d->n(), 1, req);
  d->RunUntil(1 * kSec);
  d->net().Send(d->n(), 1, req);
  d->RunUntil(2 * kSec);
  const MetricsReport m = d->Metrics();
  EXPECT_EQ(m.workload.requests_sent, 0u);
  EXPECT_EQ(m.workload.requests_accepted, 1u);
  EXPECT_EQ(m.workload.requests_deduped, 1u);
  EXPECT_EQ(m.total_commands, 1u);
  std::vector<uint32_t> admitted_at;
  for (const TraceRecord& r : d->TraceRecords()) {
    if (r.kind == static_cast<uint16_t>(TraceKind::kQueueAdmit)) {
      admitted_at.push_back(r.actor);
    }
  }
  EXPECT_EQ(admitted_at, std::vector<uint32_t>{2});

  // A shard owns a queue but no fleet: its clients belong to the sharded
  // owner, whose transaction fleet's requests the shard's queue admits.
  TxnWorkloadOptions txn;
  txn.clients_per_shard = 2;
  auto sd = Deployment::Builder()
                .WithReplicas(4, 1)
                .WithProtocol(GetParam())
                .WithWorkload(WorkloadOptions{})
                .WithStateMachine()
                .WithShards(2)
                .WithTxnWorkload(txn)
                .BuildSharded();
  sd->Start();
  sd->RunUntil(3 * kSec);
  for (uint32_t s = 0; s < sd->shards(); ++s) {
    EXPECT_EQ(sd->shard(s).fleet(), nullptr);
    EXPECT_GT(sd->shard(s).Metrics().workload.requests_accepted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ClientEdge,
                         ::testing::Values(Protocol::kHotStuff, Protocol::kPbft),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           return info.param == Protocol::kHotStuff
                                      ? std::string("HotStuff")
                                      : std::string("Pbft");
                         });

// --- Determinism: workload sweeps are thread-count invariant -------------------

Scenario PoissonMiniSweep() {
  Scenario s;
  s.name = "test_workload_poisson_sweep";
  s.columns = {"rate", "seed", "completed", "p99_ms"};
  s.grid = {{"rate", {"50", "200"}}, {"seed", {"3", "4"}}};
  WorkloadOptions base;
  base.clients = 6;
  base.arrival = ArrivalProcess::kOpenPoisson;
  base.batch.max_batch = 32;
  base.batch.max_delay = 10 * kMsec;
  s.run = [base](const Params& p) {
    WorkloadOptions w = base;
    w.rate_per_client = p.GetDouble("rate") / 6.0;
    auto d = Deployment::Builder()
                 .WithGeo(Europe21())
                 .WithProtocol(Protocol::kKauri)
                 .WithSeed(static_cast<uint64_t>(p.GetInt("seed")))
                 .WithWorkload(w)
                 .Build();
    d->Start();
    d->RunUntil(8 * kSec);
    const MetricsReport m = d->Metrics();
    PointResult pr;
    pr.rows.push_back({p.Get("rate"), p.Get("seed"),
                       std::to_string(m.workload.requests_completed),
                       FormatDouble(m.workload.latency_p99_ms)});
    pr.metrics = {
        {"completed", static_cast<double>(m.workload.requests_completed)},
        {"p99_ms", m.workload.latency_p99_ms}};
    pr.event_core = m.event_core;
    pr.event_core.wall_seconds = 0.0;
    pr.digest = MetricsFingerprint(m);
    return pr;
  };
  return s;
}

TEST(WorkloadDeterminism, OpenLoopPoissonSweepIsThreadCountInvariant) {
  const Scenario s = PoissonMiniSweep();
  const ScenarioRunResult a = RunScenario(s, 1);
  const ScenarioRunResult b = RunScenario(s, 4);
  EXPECT_EQ(DeterministicJson(a), DeterministicJson(b));
  ASSERT_EQ(a.points.size(), 4u);
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].digest, b.points[i].digest);
    // The Poisson arrival path is closure-free like everything else.
    EXPECT_EQ(a.points[i].event_core.closure_events, 0u);
    EXPECT_GT(a.points[i].metrics[0].second, 0.0);
  }
  // Distinct seeds draw distinct arrival processes.
  EXPECT_NE(a.points[0].digest, a.points[1].digest);
}

}  // namespace
}  // namespace optilog
