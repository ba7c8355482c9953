#include <gtest/gtest.h>

#include "src/api/deployment.h"
#include "src/rsm/metrics.h"
#include "src/tree/kauri.h"

namespace optilog {
namespace {

TEST(ThroughputRecorder, BucketsBySecond) {
  ThroughputRecorder rec;
  rec.RecordCommit(100 * kMsec, 1000);
  rec.RecordCommit(900 * kMsec, 1000);
  rec.RecordCommit(1500 * kMsec, 500);
  EXPECT_EQ(rec.per_second().size(), 2u);
  EXPECT_EQ(rec.per_second()[0], 2000u);
  EXPECT_EQ(rec.per_second()[1], 500u);
  EXPECT_EQ(rec.total(), 2500u);
  EXPECT_DOUBLE_EQ(rec.MeanOps(0, 2), 1250.0);
  EXPECT_DOUBLE_EQ(rec.MeanOps(0, 100), 1250.0);  // clamps to data
  EXPECT_DOUBLE_EQ(rec.MeanOps(5, 3), 0.0);
}

TEST(TreeTopology, StarConfigRoundTrip) {
  const TreeTopology star = TreeTopology::Build({7}, {0, 1, 2, 3, 4, 5, 6});
  const TreeTopology back = TreeTopology::FromConfig(star.ToConfig());
  EXPECT_EQ(back.root(), 7u);
  EXPECT_TRUE(back.intermediates().empty());
  EXPECT_EQ(back.ChildrenOf(7).size(), 7u);
  EXPECT_EQ(back.size(), 8u);
}

// With the E_d/T candidate set, a single OptiTree reconfiguration avoids the
// crashed replica.
TEST(Integration, OptiTreeRecoversInOneReconfig) {
  const uint32_t n = 21, f = 6;
  const AnnealingParams params = AnnealingParams::ForBudget(2000);
  auto d = Deployment::Builder()
               .WithGeo(Europe21())
               .WithReplicas(n, f)
               .WithProtocol(Protocol::kHotStuff)
               .Build();

  Rng rng(5);
  std::vector<ReplicaId> all(n);
  for (ReplicaId id = 0; id < n; ++id) {
    all[id] = id;
  }
  const uint32_t k = d->tree().CommitThreshold();
  const TreeTopology tree = AnnealTree(n, all, d->matrix(), k, rng, params);
  d->tree().SetTopology(tree);
  const ReplicaId victim = tree.root();
  d->faults().Mutable(victim).crash_at = 3 * kSec;

  d->tree().SetReconfigPolicy([&](TreeRsm& r) -> std::optional<TreeTopology> {
    std::vector<ReplicaId> pool;
    for (ReplicaId id = 0; id < n; ++id) {
      bool suspected = false;
      for (const SuspicionRecord& rec : r.logged_suspicions()) {
        if (rec.suspect == id) {
          suspected = true;
        }
      }
      if (!suspected) {
        pool.push_back(id);
      }
    }
    r.SetExcluded({victim});
    return AnnealTree(n, pool, d->matrix(), k, rng, params);
  });
  d->Start();
  d->RunUntil(30 * kSec);

  EXPECT_EQ(d->tree().reconfigurations(), 1u);
  EXPECT_NE(d->tree().topology().root(), victim);
  EXPECT_GT(d->tree().committed_blocks(), 100u);
}

TEST(Integration, ExcludedLeavesDoNotStallAggregation) {
  const uint32_t n = 21, f = 6;
  // Crash two leaves; with them excluded, latency matches the healthy run
  // (no intermediate waits for the aggregation timeout).
  double healthy_latency = 0.0;
  for (int run = 0; run < 2; ++run) {
    auto d = Deployment::Builder()
                 .WithGeo(Europe21())
                 .WithReplicas(n, f)
                 .WithProtocol(Protocol::kHotStuff)
                 .Build();
    Rng rng(8);
    const TreeTopology tree = RandomTree(n, rng);
    std::vector<ReplicaId> leaves;
    for (ReplicaId id : tree.Members()) {
      if (tree.IsLeaf(id)) {
        leaves.push_back(id);
      }
    }
    if (run == 1) {
      d->faults().Mutable(leaves[0]).crash_at = 0;
      d->faults().Mutable(leaves[1]).crash_at = 0;
      d->tree().SetExcluded({leaves[0], leaves[1]});
    }
    d->tree().SetTopology(tree);
    d->Start();
    d->RunUntil(10 * kSec);
    EXPECT_GT(d->tree().committed_blocks(), 20u) << "run " << run;
    if (run == 0) {
      healthy_latency = d->tree().latency_stat().mean();
    } else {
      EXPECT_NEAR(d->tree().latency_stat().mean(), healthy_latency,
                  healthy_latency * 0.5);
    }
  }
}

}  // namespace
}  // namespace optilog
