// Scenario-runner subsystem: registry semantics, grid enumeration, JSON
// emission, ParallelFor, and the determinism contract (identical seeds ->
// byte-identical ScenarioResult JSON at any thread count).
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/api/deployment.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"

namespace optilog {
namespace {

// --- JsonWriter --------------------------------------------------------------

TEST(RunnerJson, WriterProducesCanonicalBytes) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("a \"quoted\"\nvalue\t\\");
  w.Key("count").Uint(42);
  w.Key("neg").Int(-7);
  w.Key("ratio").Double(0.5);
  w.Key("flag").Bool(true);
  w.Key("list").BeginArray().Uint(1).Uint(2).EndArray();
  w.Key("empty").BeginObject().EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"a \\\"quoted\\\"\\nvalue\\t\\\\\","
            "\"count\":42,\"neg\":-7,\"ratio\":0.5,\"flag\":true,"
            "\"list\":[1,2],\"empty\":{}}");
}

TEST(RunnerJson, ControlCharactersEscaped) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").String(std::string{'a', '\x01', 'b'});
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\u0001b\"}");
}

// --- BenchReporter CSV (RFC 4180) -------------------------------------------

TEST(RunnerCsv, EscapesDelimitersQuotesAndNewlines) {
  EXPECT_EQ(BenchReporter::CsvEscape("plain"), "plain");
  EXPECT_EQ(BenchReporter::CsvEscape("Washington, DC"),
            "\"Washington, DC\"");
  EXPECT_EQ(BenchReporter::CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(BenchReporter::CsvEscape("two\nlines"), "\"two\nlines\"");

  BenchReporter r("cities", {"city", "ms"});
  r.AddRow({"Washington, DC", "12"});
  EXPECT_EQ(r.ToCsv(),
            "csv,cities,city,ms\n"
            "csv,cities,\"Washington, DC\",12\n");
}

// --- Params and grid enumeration ---------------------------------------------

TEST(RunnerParams, TypedGetters) {
  Params p;
  p.Set("geo", "Europe21").Set("n", "21").Set("delta", "1.5");
  EXPECT_EQ(p.Get("geo"), "Europe21");
  EXPECT_EQ(p.GetInt("n"), 21);
  EXPECT_DOUBLE_EQ(p.GetDouble("delta"), 1.5);
  EXPECT_EQ(p.Label(), "geo=Europe21 n=21 delta=1.5");
  p.Set("geo", "Global73");  // overwrite keeps position
  EXPECT_EQ(p.entries()[0].second, "Global73");
}

TEST(RunnerGrid, CartesianEnumerationOrder) {
  Scenario s;
  s.name = "grid";
  s.run = [](const Params&) { return PointResult{}; };
  s.grid = {{"a", {"1", "2"}}, {"b", {"x", "y", "z"}}};
  const auto points = EnumeratePoints(s);
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(points[0].Label(), "a=1 b=x");
  EXPECT_EQ(points[1].Label(), "a=1 b=y");  // last axis fastest
  EXPECT_EQ(points[3].Label(), "a=2 b=x");
  EXPECT_EQ(points[5].Label(), "a=2 b=z");
}

TEST(RunnerGrid, EmptyGridIsOnePointAndExplicitPointsWin) {
  Scenario s;
  s.name = "single";
  s.run = [](const Params&) { return PointResult{}; };
  EXPECT_EQ(EnumeratePoints(s).size(), 1u);

  Params only;
  only.Set("k", "v");
  s.points = {only};
  s.grid = {{"ignored", {"1", "2"}}};
  const auto points = EnumeratePoints(s);
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].Label(), "k=v");
}

// --- Registry ----------------------------------------------------------------

TEST(ScenarioRegistryTest, AllElevenBenchesPlusWorkloadsRegistered) {
  const auto& registry = ScenarioRegistry::Instance();
  // The former standalone binaries, now registrations (EXPERIMENTS.md),
  // plus the post-paper workloads (crash churn, saturation, bursty phases).
  for (const char* name :
       {"fig07_runtime_attack", "fig08_mis_scaling", "fig09_baselines",
        "fig10_suspicion_attack", "fig11_malicious_delay",
        "fig12_sa_search_time", "fig13_proposal_size", "fig14_overprovision",
        "fig15_reconfig_timeline", "ablation_candidate_policy",
        "ablation_u_estimate", "ablation_cooling", "scale_events",
        "crash_churn", "saturation", "bursty_phases"}) {
    EXPECT_NE(registry.Find(name), nullptr) << name;
  }
  EXPECT_EQ(registry.Find("no_such_scenario"), nullptr);

  // All() is name-sorted (stable --list output).
  const auto all = registry.All();
  EXPECT_GE(all.size(), 16u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->name, all[i]->name);
  }

  // The CI gate's selection is non-empty and every member carries the tag.
  const auto tier1 = registry.WithTag("tier1");
  EXPECT_GE(tier1.size(), 5u);
  for (const Scenario* s : tier1) {
    EXPECT_TRUE(s->HasTag("tier1")) << s->name;
  }
  EXPECT_TRUE(registry.WithTag("no_such_tag").empty());
}

// --- ParallelFor -------------------------------------------------------------

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  constexpr size_t kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  ParallelFor(8, kTasks, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, FewerTasksThanThreadsAndEmptyBatch) {
  for (int batch = 0; batch < 20; ++batch) {
    std::atomic<size_t> sum{0};
    ParallelFor(6, 3, [&](size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 6u);
  }
  std::atomic<int> none{0};
  ParallelFor(6, 0, [&](size_t) { none.fetch_add(1); });
  EXPECT_EQ(none.load(), 0);
}

TEST(ParallelForTest, OneThreadRunsOnCallerLastIndexFirst) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  ParallelFor(1, 4, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{3, 2, 1, 0}));
}

TEST(ParallelForTest, PropagatesFirstException) {
  std::atomic<int> completed{0};
  EXPECT_THROW(ParallelFor(4, 64,
                           [&](size_t i) {
                             if (i == 13) {
                               throw std::runtime_error("boom");
                             }
                             completed.fetch_add(1);
                           }),
               std::runtime_error);
  EXPECT_EQ(completed.load(), 63);
  // A throwing call leaves nothing behind: the next one runs normally.
  ParallelFor(4, 8, [&](size_t) { completed.fetch_add(1); });
  EXPECT_EQ(completed.load(), 71);
}

// --- Determinism contract ----------------------------------------------------

// A real multi-deployment sweep (Kauri, two sizes x two seeds). Small
// enough for a unit test, real enough to cover simulator, network, crypto,
// and metrics end to end.
Scenario MiniSweep() {
  Scenario s;
  s.name = "test_mini_sweep";
  s.columns = {"n", "seed", "committed", "events"};
  s.grid = {{"n", {"11", "17"}}, {"seed", {"5", "6"}}};
  // One shared base recipe; every grid point clones it concurrently from a
  // worker thread — the Builder::Clone() sweep pattern.
  TreeRsmOptions opts;
  opts.pipeline_depth = 2;
  Deployment::Builder base;
  base.WithProtocol(Protocol::kKauri).WithTreeOptions(opts);
  s.run = [base](const Params& p) {
    const uint32_t n = static_cast<uint32_t>(p.GetInt("n"));
    auto d = base.Clone()
                 .WithReplicas(n, (n - 1) / 3)
                 .WithSeed(static_cast<uint64_t>(p.GetInt("seed")))
                 .Build();
    d->Start();
    d->RunUntil(5 * kSec);
    const MetricsReport m = d->Metrics();
    PointResult pr;
    pr.rows.push_back({p.Get("n"), p.Get("seed"), std::to_string(m.committed),
                       std::to_string(m.event_core.events_executed)});
    pr.metrics = {{"committed", static_cast<double>(m.committed)},
                  {"latency_ms", m.mean_latency_ms}};
    pr.event_core = m.event_core;
    pr.event_core.wall_seconds = 0.0;
    pr.digest = MetricsFingerprint(m);
    return pr;
  };
  s.finalize = [](const std::vector<PointResult>& points) {
    SummaryTable t;
    t.columns = {"total_committed"};
    uint64_t total = 0;
    for (const PointResult& p : points) {
      total += static_cast<uint64_t>(p.metrics[0].second);
    }
    t.rows.push_back({std::to_string(total)});
    return t;
  };
  return s;
}

TEST(SweepDeterminismTest, ByteIdenticalJsonAcrossThreadCounts) {
  const Scenario s = MiniSweep();
  const ScenarioRunResult a = RunScenario(s, 1);
  const ScenarioRunResult b = RunScenario(s, 8);

  EXPECT_FALSE(a.digest.empty());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(DeterministicJson(a), DeterministicJson(b));
  // Per-point digests (the log-head / fingerprint pins) survive too.
  ASSERT_EQ(a.points.size(), 4u);
  for (size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_FALSE(a.points[i].digest.empty());
    EXPECT_EQ(a.points[i].digest, b.points[i].digest);
  }
  // The deterministic JSON never contains the advisory wall clock.
  EXPECT_EQ(DeterministicJson(a).find("wall"), std::string::npos);
  EXPECT_NE(FullJson(a).find("wall_ms"), std::string::npos);
}

TEST(SweepDeterminismTest, RegisteredTier1ChurnSweepIsThreadCountInvariant) {
  const Scenario* churn = ScenarioRegistry::Instance().Find("crash_churn");
  ASSERT_NE(churn, nullptr);
  const ScenarioRunResult a = RunScenario(*churn, 1);
  const ScenarioRunResult b = RunScenario(*churn, 4);
  EXPECT_EQ(DeterministicJson(a), DeterministicJson(b));
  // OptiLog deployments pin their measurement bus: the digest must be the
  // log head fingerprint, not empty.
  for (const PointResult& p : a.points) {
    EXPECT_EQ(p.digest.size(), 64u);
  }
}

TEST(SweepDeterminismTest, RegisteredLogBoundSweepIsThreadCountInvariant) {
  // The state-machine tier-1 scenarios carry the PR-3 contract too: the
  // recovery/transfer path and the checkpoint/truncation path must be
  // byte-identical at any thread count. log_bound is the cheap proxy run
  // here (recovery's end-to-end determinism is pinned by
  // Recovery.RunsAreDeterministic and the committed baseline).
  const Scenario* s = ScenarioRegistry::Instance().Find("log_bound");
  ASSERT_NE(s, nullptr);
  const ScenarioRunResult a = RunScenario(*s, 1);
  const ScenarioRunResult b = RunScenario(*s, 4);
  EXPECT_EQ(DeterministicJson(a), DeterministicJson(b));
  for (const PointResult& p : a.points) {
    EXPECT_EQ(p.digest.size(), 64u);
  }
}

TEST(RunnerResult, FingerprintTracksEveryCountedField) {
  MetricsReport m;
  m.committed = 10;
  m.throughput_per_sec = {1, 2, 3};
  const std::string base = MetricsFingerprint(m);
  EXPECT_EQ(base.size(), 64u);

  MetricsReport changed = m;
  changed.committed = 11;
  EXPECT_NE(MetricsFingerprint(changed), base);
  changed = m;
  changed.throughput_per_sec[1] = 9;
  EXPECT_NE(MetricsFingerprint(changed), base);
  changed = m;
  changed.log_head_hex = "ab";
  EXPECT_NE(MetricsFingerprint(changed), base);
  changed = m;
  changed.event_core.typed_deliveries = 1;
  EXPECT_NE(MetricsFingerprint(changed), base);
  // The state machine joins the fingerprint: applied frontier, digest
  // agreement, and the transfer accounting all pin.
  changed = m;
  changed.statemachine.applied = 7;
  EXPECT_NE(MetricsFingerprint(changed), base);
  changed = m;
  changed.statemachine.state_digest_hex = "ab";
  EXPECT_NE(MetricsFingerprint(changed), base);
  changed = m;
  changed.statemachine.transfer_bytes = 1;
  EXPECT_NE(MetricsFingerprint(changed), base);
  changed = m;
  changed.workload.kv_mismatches = 1;
  EXPECT_NE(MetricsFingerprint(changed), base);
  // One schema: the wire and pool counters and every section count even
  // when its feature is off (every section of `m` is disabled).
  changed = m;
  changed.wire_messages = 1;
  EXPECT_NE(MetricsFingerprint(changed), base);
  changed = m;
  changed.wire_bytes = 1;
  EXPECT_NE(MetricsFingerprint(changed), base);
  changed = m;
  changed.event_core.wheel_overflow_events = 1;
  EXPECT_NE(MetricsFingerprint(changed), base);
  changed = m;
  changed.event_core.message_pool_hits = 1;
  EXPECT_NE(MetricsFingerprint(changed), base);
  changed = m;
  changed.event_core.message_pool_misses = 1;
  EXPECT_NE(MetricsFingerprint(changed), base);
  changed = m;
  changed.txn.committed = 1;
  EXPECT_NE(MetricsFingerprint(changed), base);
  changed = m;
  changed.crypto.signs = 1;
  EXPECT_NE(MetricsFingerprint(changed), base);
  changed = m;
  changed.timeseries.interval = kSec;
  EXPECT_NE(MetricsFingerprint(changed), base);
  changed = m;
  changed.timeseries.series.push_back({"queue_depth", {0.0}});
  EXPECT_NE(MetricsFingerprint(changed), base);
  // Host time and the constant partition count must NOT move it.
  changed = m;
  changed.event_core.wall_seconds = 123.0;
  EXPECT_EQ(MetricsFingerprint(changed), base);
  changed = m;
  changed.event_core.partitions = 4;
  EXPECT_EQ(MetricsFingerprint(changed), base);
}

}  // namespace
}  // namespace optilog
