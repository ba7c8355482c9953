#include <gtest/gtest.h>

#include "src/core/graph.h"
#include "src/core/mis.h"
#include "src/util/rng.h"

namespace optilog {
namespace {

std::vector<ReplicaId> Vertices(uint32_t n) {
  std::vector<ReplicaId> v(n);
  for (uint32_t i = 0; i < n; ++i) {
    v[i] = i;
  }
  return v;
}

bool IsIndependent(const SuspicionGraph& g, const std::vector<ReplicaId>& set) {
  for (size_t i = 0; i < set.size(); ++i) {
    for (size_t j = i + 1; j < set.size(); ++j) {
      if (g.HasEdge(set[i], set[j])) {
        return false;
      }
    }
  }
  return true;
}

TEST(Graph, AddRemoveEdges) {
  SuspicionGraph g;
  EXPECT_TRUE(g.AddEdge(1, 2));
  EXPECT_FALSE(g.AddEdge(2, 1));  // same undirected edge
  EXPECT_FALSE(g.AddEdge(3, 3));  // self loop ignored
  EXPECT_TRUE(g.HasEdge(2, 1));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.RemoveEdge(1, 2));
  EXPECT_FALSE(g.RemoveEdge(1, 2));
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Graph, RemoveVertexDropsIncidentEdges) {
  SuspicionGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.RemoveVertex(1);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.HasEdge(2, 3));
}

TEST(Graph, OldestEdgeFollowsInsertionOrder) {
  SuspicionGraph g;
  g.AddEdge(5, 6);
  g.AddEdge(1, 2);
  EdgeKey oldest;
  ASSERT_TRUE(g.OldestEdge(&oldest));
  EXPECT_EQ(oldest, EdgeKey::Make(5, 6));
  g.RemoveEdge(5, 6);
  ASSERT_TRUE(g.OldestEdge(&oldest));
  EXPECT_EQ(oldest, EdgeKey::Make(1, 2));
}

TEST(Mis, EmptyGraphReturnsAllVertices) {
  SuspicionGraph g;
  EXPECT_EQ(MaximumIndependentSet(g, Vertices(5)).size(), 5u);
}

TEST(Mis, SingleEdgeExcludesOne) {
  SuspicionGraph g;
  g.AddEdge(0, 1);
  const auto mis = MaximumIndependentSet(g, Vertices(4));
  EXPECT_EQ(mis.size(), 3u);
  EXPECT_TRUE(IsIndependent(g, mis));
}

TEST(Mis, StarGraphExcludesCenter) {
  SuspicionGraph g;
  for (ReplicaId leaf = 1; leaf < 8; ++leaf) {
    g.AddEdge(0, leaf);
  }
  const auto mis = MaximumIndependentSet(g, Vertices(8));
  EXPECT_EQ(mis.size(), 7u);
  EXPECT_FALSE(std::binary_search(mis.begin(), mis.end(), 0u));
}

TEST(Mis, PathGraph) {
  // Path 0-1-2-3-4: MIS = {0, 2, 4}.
  SuspicionGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 4);
  const auto mis = MaximumIndependentSet(g, Vertices(5));
  EXPECT_EQ(mis, (std::vector<ReplicaId>{0, 2, 4}));
}

TEST(Mis, OddCycle) {
  // 5-cycle: MIS size 2.
  SuspicionGraph g;
  for (int i = 0; i < 5; ++i) {
    g.AddEdge(i, (i + 1) % 5);
  }
  const auto mis = MaximumIndependentSet(g, Vertices(5));
  EXPECT_EQ(mis.size(), 2u);
  EXPECT_TRUE(IsIndependent(g, mis));
}

TEST(Mis, CompleteGraphLeavesOne) {
  SuspicionGraph g;
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      g.AddEdge(i, j);
    }
  }
  EXPECT_EQ(MaximumIndependentSet(g, Vertices(6)).size(), 1u);
}

TEST(Mis, RestrictedVertexSet) {
  SuspicionGraph g;
  g.AddEdge(0, 1);
  // Only vertices {1, 2, 3} considered; 0 is outside so edge 0-1 is moot.
  const auto mis = MaximumIndependentSet(g, {1, 2, 3});
  EXPECT_EQ(mis, (std::vector<ReplicaId>{1, 2, 3}));
}

TEST(Mis, DeterministicAcrossCalls) {
  SuspicionGraph g;
  Rng rng(77);
  for (int i = 0; i < 40; ++i) {
    g.AddEdge(static_cast<ReplicaId>(rng.Below(20)),
              static_cast<ReplicaId>(rng.Below(20)));
  }
  const auto a = MaximumIndependentSet(g, Vertices(20));
  const auto b = MaximumIndependentSet(g, Vertices(20));
  EXPECT_EQ(a, b);
}

TEST(Mis, DenseApiMatchesGraphApi) {
  SuspicionGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  std::vector<std::vector<uint8_t>> adj(3, std::vector<uint8_t>(3, 0));
  adj[0][1] = adj[1][0] = 1;
  adj[1][2] = adj[2][1] = 1;
  const auto dense = MaximumIndependentSetDense(adj);
  const auto sparse = MaximumIndependentSet(g, Vertices(3));
  ASSERT_EQ(dense.size(), sparse.size());
  for (size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(dense[i], sparse[i]);
  }
}

// Property sweep: on random graphs the result is always independent and
// maximal (no vertex can be added), and with f Byzantine vertices raising
// all suspicions the MIS keeps >= n - f members (Lemma 1 precondition).
class MisRandom : public ::testing::TestWithParam<int> {};

TEST_P(MisRandom, IndependentAndMaximal) {
  Rng rng(GetParam());
  const uint32_t n = 16;
  SuspicionGraph g;
  for (int e = 0; e < 30; ++e) {
    g.AddEdge(static_cast<ReplicaId>(rng.Below(n)),
              static_cast<ReplicaId>(rng.Below(n)));
  }
  const auto mis = MaximumIndependentSet(g, Vertices(n));
  EXPECT_TRUE(IsIndependent(g, mis));
  // Maximality: every excluded vertex conflicts with the set.
  for (ReplicaId v = 0; v < n; ++v) {
    if (std::binary_search(mis.begin(), mis.end(), v)) {
      continue;
    }
    bool conflicts = false;
    for (ReplicaId u : mis) {
      if (g.HasEdge(u, v)) {
        conflicts = true;
        break;
      }
    }
    EXPECT_TRUE(conflicts) << "vertex " << v << " could be added";
  }
}

TEST_P(MisRandom, ByzantineEdgesLeaveNMinusF) {
  Rng rng(GetParam() + 1000);
  const uint32_t n = 13, f = 4;
  // f Byzantine replicas suspect arbitrary correct replicas; all edges are
  // incident to a Byzantine vertex, so the n - f correct ones stay
  // independent.
  SuspicionGraph g;
  for (int e = 0; e < 40; ++e) {
    const ReplicaId byz = static_cast<ReplicaId>(rng.Below(f));
    const ReplicaId other = static_cast<ReplicaId>(rng.Below(n));
    g.AddEdge(byz, other);
  }
  const auto mis = MaximumIndependentSet(g, Vertices(n));
  EXPECT_GE(mis.size(), n - f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MisRandom, ::testing::Range(0, 10));

}  // namespace
}  // namespace optilog
