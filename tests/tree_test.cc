#include <gtest/gtest.h>

#include <numeric>

#include "bench/bench_util.h"
#include "src/core/measurement.h"
#include "src/net/geo.h"
#include "src/tree/kauri.h"
#include "src/tree/topology.h"
#include "src/tree/tree_score.h"
#include "src/tree/tree_space.h"

namespace optilog {
namespace {

LatencyMatrix UniformMatrix(uint32_t n, double rtt_ms) {
  LatencyMatrix m(n);
  for (ReplicaId a = 0; a < n; ++a) {
    for (ReplicaId b = 0; b < n; ++b) {
      if (a != b) {
        m.Record(a, b, rtt_ms);
      }
    }
  }
  return m;
}

TEST(BranchFactor, MatchesPaperSizes) {
  // §7.3: b = (sqrt(4n-3)-1)/2; paper sizes and their branch factors.
  EXPECT_EQ(BranchFactorFor(13), 3u);
  EXPECT_EQ(BranchFactorFor(21), 4u);
  EXPECT_EQ(BranchFactorFor(43), 6u);
  EXPECT_EQ(BranchFactorFor(57), 7u);
  EXPECT_EQ(BranchFactorFor(73), 8u);
  EXPECT_EQ(BranchFactorFor(91), 9u);
  EXPECT_EQ(BranchFactorFor(111), 10u);
  EXPECT_EQ(BranchFactorFor(157), 12u);
  EXPECT_EQ(BranchFactorFor(183), 13u);
  EXPECT_EQ(BranchFactorFor(211), 14u);
}

TEST(TreeTopology, BuildFig5Tree) {
  // Fig. 5: n = 13, b = 3: root R, I1..I3, T1..T9.
  std::vector<ReplicaId> internals{0, 1, 2, 3};
  std::vector<ReplicaId> leaves{4, 5, 6, 7, 8, 9, 10, 11, 12};
  const TreeTopology t = TreeTopology::Build(internals, leaves);
  EXPECT_EQ(t.root(), 0u);
  EXPECT_EQ(t.intermediates().size(), 3u);
  EXPECT_EQ(t.size(), 13u);
  for (ReplicaId inter : t.intermediates()) {
    EXPECT_EQ(t.ChildrenOf(inter).size(), 3u);
    EXPECT_EQ(t.ParentOf(inter), 0u);
    EXPECT_TRUE(t.IsIntermediate(inter));
    EXPECT_TRUE(t.IsInternal(inter));
  }
  for (ReplicaId leaf : leaves) {
    EXPECT_TRUE(t.IsLeaf(leaf));
    EXPECT_TRUE(t.IsIntermediate(t.ParentOf(leaf)));
  }
}

TEST(TreeTopology, ConfigRoundTrip) {
  std::vector<ReplicaId> internals{5, 2, 9, 0};
  std::vector<ReplicaId> leaves{1, 3, 4, 6, 7, 8, 10, 11, 12};
  const TreeTopology t = TreeTopology::Build(internals, leaves);
  const TreeTopology back = TreeTopology::FromConfig(t.ToConfig());
  EXPECT_EQ(back.root(), t.root());
  EXPECT_EQ(back.size(), t.size());
  for (ReplicaId id = 0; id < 13; ++id) {
    EXPECT_EQ(back.ParentOf(id), t.ParentOf(id)) << id;
  }
  std::vector<ReplicaId> a = t.Internals(), b = back.Internals();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(TreeTopology, ConfigRoundTripKeepsChildlessIntermediate) {
  // 2 leaves over 3 intermediates: 0 has no children but holds an internal
  // position, so it decodes as an intermediate, not as a leaf of the root.
  const TreeTopology t = TreeTopology::Build({5, 9, 2, 0}, {1, 3});
  ASSERT_TRUE(t.ChildrenOf(0).empty());
  const TreeTopology back = TreeTopology::FromConfig(t.ToConfig());
  EXPECT_EQ(back.root(), 5u);
  EXPECT_EQ(back.intermediates(), (std::vector<ReplicaId>{0, 2, 9}));
  EXPECT_TRUE(back.IsIntermediate(0));
  EXPECT_EQ(back.Leaves(), (std::vector<ReplicaId>{1, 3}));
  for (ReplicaId id = 0; id < 10; ++id) {
    EXPECT_EQ(back.ParentOf(id), t.ParentOf(id)) << id;
  }
  // A star's root children stay leaves.
  const TreeTopology star = TreeTopology::FromConfig(TreeTopology::Build({2}, {0, 1}).ToConfig());
  EXPECT_TRUE(star.intermediates().empty());
}

// A proposal's parent table comes from another replica: an entry naming a
// replica beyond the table leaves that replica out instead of indexing past
// the child lists, and the config space rejects the short tree.
TEST(TreeTopology, FromConfigDropsOutOfRangeParents) {
  RoleConfig config = TreeTopology::Build({0, 1}, {2, 3}).ToConfig();
  config.parent[3] = 1'000'000;
  const TreeTopology t = TreeTopology::FromConfig(config);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_FALSE(t.Contains(3));
  CandidateSet candidates;
  candidates.candidates = {0, 1, 2, 3};
  EXPECT_FALSE(TreeConfigSpace(4, 3).Valid(config, candidates));
}

TEST(TreeTopology, StarHasNoIntermediates) {
  const TreeTopology star = TreeTopology::Build({3}, {0, 1, 2, 4});
  EXPECT_EQ(star.root(), 3u);
  EXPECT_TRUE(star.intermediates().empty());
  EXPECT_EQ(star.ChildrenOf(3).size(), 4u);
}

TEST(TreeTopology, UnevenLeavesDistributedRoundRobin) {
  // n = 12 with 4 internals: 8 leaves over 3 intermediates -> 3/3/2.
  const TreeTopology t =
      TreeTopology::Build({0, 1, 2, 3}, {4, 5, 6, 7, 8, 9, 10, 11});
  size_t total = 0;
  for (ReplicaId inter : t.intermediates()) {
    const size_t c = t.ChildrenOf(inter).size();
    EXPECT_GE(c, 2u);
    EXPECT_LE(c, 3u);
    total += c;
  }
  EXPECT_EQ(total, 8u);
}

TEST(TreeScore, UniformMatrixKnownValue) {
  // Uniform RTT r: every subtree aggregate arrives at Lagg + L(I,R) = 2r.
  const LatencyMatrix m = UniformMatrix(13, 10.0);
  const TreeTopology t = TreeTopology::Build({0, 1, 2, 3},
                                             {4, 5, 6, 7, 8, 9, 10, 11, 12});
  EXPECT_DOUBLE_EQ(TreeScore(t, m, 9), 20.0);
  // k = 1: root's own vote suffices.
  EXPECT_DOUBLE_EQ(TreeScore(t, m, 1), 0.0);
}

TEST(TreeScore, PrefersFastSubtrees) {
  // Two intermediates: one fast (RTT 10), one slow (RTT 100). Collecting
  // k <= coverage(fast subtree) + 1 votes should not touch the slow one.
  LatencyMatrix m = UniformMatrix(7, 10.0);
  // Intermediate 2 and its children are slow.
  for (ReplicaId other = 0; other < 7; ++other) {
    if (other != 2) {
      m.Record(2, other, 100.0);
      m.Record(other, 2, 100.0);
    }
  }
  const TreeTopology t = TreeTopology::Build({0, 1, 2}, {3, 4, 5, 6});
  // Subtree of 1 covers {1, 3, 5} = 3 nodes; +root = 4 votes at 20 ms.
  EXPECT_DOUBLE_EQ(TreeScore(t, m, 4), 20.0);
  // Needing more forces the slow subtree: 100 (child) + 100 (to root).
  EXPECT_DOUBLE_EQ(TreeScore(t, m, 6), 200.0);
}

TEST(TreeScore, InfiniteWhenNotEnoughCoverage) {
  const LatencyMatrix m = UniformMatrix(5, 10.0);
  const TreeTopology t = TreeTopology::Build({0, 1}, {2, 3, 4});
  // Subtree of 1 covers 4 nodes; +root = 5 = n, so k = 6 is impossible.
  EXPECT_TRUE(std::isinf(TreeScore(t, m, 6)));
}

TEST(TreeScore, StarUsesDirectVotes) {
  const LatencyMatrix m = UniformMatrix(5, 10.0);
  const TreeTopology star = TreeTopology::Build({0}, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(TreeScore(star, m, 3), 10.0);
  EXPECT_TRUE(std::isinf(TreeScore(star, m, 6)));
}

TEST(TreeScore, MonotoneInK) {
  const LatencyMatrix m = MatrixFromCities(Europe21());
  Rng rng(4);
  const TreeTopology t = RandomTree(21, rng);
  double prev = 0.0;
  for (uint32_t k = 1; k <= 21; ++k) {
    const double s = TreeScore(t, m, k);
    EXPECT_GE(s, prev) << "k=" << k;
    prev = s;
  }
}

TEST(TreeSpace, RandomConfigsValidAndComplete) {
  TreeConfigSpace space(21, 15);
  CandidateSet k;
  for (ReplicaId id = 0; id < 21; ++id) {
    k.candidates.push_back(id);
  }
  Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    const RoleConfig cfg = space.RandomConfig(k, rng);
    EXPECT_TRUE(space.Valid(cfg, k));
    const TreeTopology t = TreeTopology::FromConfig(cfg);
    EXPECT_EQ(t.size(), 21u);
    EXPECT_EQ(t.Internals().size(), 5u);  // b + 1 = 5
  }
}

TEST(TreeSpace, MutateKeepsInternalsInCandidateSet) {
  TreeConfigSpace space(21, 15);
  CandidateSet k;
  for (ReplicaId id = 0; id < 15; ++id) {  // only 0..14 are candidates
    k.candidates.push_back(id);
  }
  Rng rng(8);
  RoleConfig cfg = space.RandomConfig(k, rng);
  for (int i = 0; i < 200; ++i) {
    cfg = space.Mutate(cfg, k, rng);
    ASSERT_TRUE(space.Valid(cfg, k)) << "iteration " << i;
  }
}

TEST(TreeSpace, RejectsInternalOutsideK) {
  TreeConfigSpace space(13, 9);
  CandidateSet k;
  for (ReplicaId id = 0; id < 12; ++id) {
    k.candidates.push_back(id);  // 12 is NOT a candidate
  }
  const TreeTopology t =
      TreeTopology::Build({12, 1, 2, 3}, {0, 4, 5, 6, 7, 8, 9, 10, 11});
  EXPECT_FALSE(space.Valid(t.ToConfig(), k));
}

TEST(KauriSa, BurnsFailedInternals) {
  const LatencyMatrix m = MatrixFromCities(Europe21());
  KauriSaScheduler sched(21, 5, 16, 77);
  AnnealingParams params;
  params.max_iterations = 300;
  auto first = sched.NextTree(m, params);
  ASSERT_TRUE(first.has_value());
  sched.BurnInternals(*first);
  EXPECT_EQ(sched.burned().size(), 5u);
  auto second = sched.NextTree(m, params);
  ASSERT_TRUE(second.has_value());
  for (ReplicaId id : second->Internals()) {
    EXPECT_EQ(sched.burned().count(id), 0u);
  }
  // Burning everything eventually exhausts candidates.
  for (int i = 0; i < 10; ++i) {
    auto t = sched.NextTree(m, params);
    if (!t.has_value()) {
      break;
    }
    sched.BurnInternals(*t);
  }
  EXPECT_FALSE(sched.NextTree(m, params).has_value());
}

TEST(AnnealTree, BeatsRandomTreeOnGeoMatrix) {
  const LatencyMatrix m = MatrixFromCities(Global73());
  std::vector<ReplicaId> all(73);
  for (ReplicaId id = 0; id < 73; ++id) {
    all[id] = id;
  }
  Rng rng(123);
  double random_score = 0, annealed_score = 0;
  const uint32_t k = 49;  // q = n - f
  for (int trial = 0; trial < 5; ++trial) {
    random_score += TreeScore(RandomTree(73, rng), m, k);
    AnnealingParams params;
    params.max_iterations = 2000;
    annealed_score += TreeScore(AnnealTree(73, all, m, k, rng, params), m, k);
  }
  EXPECT_LT(annealed_score, random_score * 0.8)
      << "SA should find markedly better trees than random selection";
}

// --- AnnealTree's incremental search -----------------------------------------

// A deployment's matrix: city-pair RTTs, 1 ms between colocated replicas.
LatencyMatrix CityBaselineMatrix(uint32_t n, uint64_t seed) {
  CityIndex ci = DedupeCities(GlobalN(n, seed));
  const size_t u = ci.unique.size();
  LatencyMatrix m;
  m.ResetWithCityBaseline(n, std::move(ci.index_of), CityRttTableMs(ci.unique), u);
  return m;
}

// Dense reports with ties: integer RTTs, 1 ms colocated pairs, pairs neither
// side reported, and one replica nobody reports on (+inf to everyone).
LatencyMatrix DenseMatrix(uint32_t n, uint64_t seed) {
  Rng rng(seed);
  const ReplicaId silent = static_cast<ReplicaId>(seed % n);
  LatencyMatrix m(n);
  for (ReplicaId a = 0; a < n; ++a) {
    for (ReplicaId b = 0; b < n; ++b) {
      const uint64_t r = rng.Below(8);
      if (a == b || a == silent || b == silent || r == 0) {
        continue;
      }
      m.Record(a, b, r == 1 ? 1.0 : static_cast<double>(10 + rng.Below(290)));
    }
  }
  return m;
}

// The search AnnealTree must reproduce: SimulatedAnnealing over flat trees
// held by value, each neighbor one MutateFlat swap of the current array (so
// an accepted swap of any kind is where the next draw starts), scored in
// full by TreeScore of the tree it builds.
TreeTopology ReferenceAnnealTree(uint32_t n, const std::vector<ReplicaId>& candidates,
                                 const LatencyMatrix& m, uint32_t k, Rng& rng,
                                 const AnnealingParams& params) {
  const size_t internals = BranchFactorFor(n) + 1;
  std::vector<ReplicaId> pool = candidates;
  rng.Shuffle(pool);
  pool.resize(internals);
  std::vector<ReplicaId> initial = FlatTree(n, pool, rng);
  std::vector<bool> eligible(n, false);
  for (ReplicaId id : candidates) {
    eligible[id] = true;
  }
  const std::vector<ReplicaId> best =
      SimulatedAnnealing(
          std::move(initial),
          [&](const std::vector<ReplicaId>& ids) {
            return TreeScore(BuildFlat(ids, internals), m, k);
          },
          [&](std::vector<ReplicaId> ids, Rng& r) {
            MutateFlat(ids, internals, eligible, r);
            return ids;
          },
          rng, params)
          .best;
  return BuildFlat(best, internals);
}

void ExpectSameTree(const TreeTopology& got, const TreeTopology& want, uint32_t n) {
  EXPECT_EQ(got.root(), want.root());
  EXPECT_EQ(got.intermediates(), want.intermediates());
  EXPECT_EQ(got.size(), want.size());
  std::vector<ReplicaId> got_parents, want_parents;
  for (ReplicaId id = 0; id < n; ++id) {
    got_parents.push_back(got.ParentOf(id));
    want_parents.push_back(want.ParentOf(id));
  }
  EXPECT_EQ(got_parents, want_parents);
  for (ReplicaId id : want.Internals()) {
    EXPECT_EQ(got.ChildrenOf(id), want.ChildrenOf(id)) << "children of " << id;
  }
}

class AnnealTreeDifferential : public ::testing::TestWithParam<uint32_t> {};

// The same tree, child order included, and the same Rng state afterwards.
TEST_P(AnnealTreeDifferential, MatchesWholeTreeSearch) {
  const uint32_t n = GetParam();
  const uint32_t b = BranchFactorFor(n);
  const uint32_t f = (n - 1) / 3;
  const uint64_t budget = n >= 1000 ? 200 : n >= 211 ? 800 : 1500;
  struct Named {
    const char* name;
    LatencyMatrix m;
  };
  std::vector<Named> matrices;
  matrices.push_back({"city", CityBaselineMatrix(n, 7)});
  matrices.push_back({"city+override", CityBaselineMatrix(n, 7)});
  for (ReplicaId a = 0; a < n; a += 3) {
    matrices.back().m.Record(a, (a * 7 + 1) % n, 350.0 + a);  // wins the max rule
    matrices.back().m.Record((a * 5 + 2) % n, a, 0.5);        // loses it
  }
  matrices.push_back({"dense", DenseMatrix(n, n)});

  // Everyone, every other replica, and exactly b + 1: then every candidate
  // is internal and no leaf can move up.
  std::vector<ReplicaId> all(n);
  std::iota(all.begin(), all.end(), 0);
  std::vector<ReplicaId> half;
  for (ReplicaId id = 0; id < n; id += 2) {
    half.push_back(id);
  }
  std::vector<ReplicaId> tight = all;
  Rng pick(n);
  pick.Shuffle(tight);
  tight.resize(b + 1);

  AnnealingParams fixed_rate;
  fixed_rate.max_iterations = budget;
  fixed_rate.min_temperature = 0;
  uint64_t seed = 0;
  for (const Named& matrix : matrices) {
    for (const std::vector<ReplicaId>* candidates : {&all, &half, &tight}) {
      for (uint32_t k : {1u, 2u, 2 * f + 1, n + 1}) {
        for (const AnnealingParams& params : {AnnealingParams::ForBudget(budget), fixed_rate}) {
          SCOPED_TRACE(::testing::Message()
                       << matrix.name << " candidates=" << candidates->size() << " k=" << k
                       << " min_temperature=" << params.min_temperature);
          Rng want_rng(++seed), got_rng(seed);
          const TreeTopology want =
              ReferenceAnnealTree(n, *candidates, matrix.m, k, want_rng, params);
          const TreeTopology got = AnnealTree(n, *candidates, matrix.m, k, got_rng, params);
          ExpectSameTree(got, want, n);
          EXPECT_EQ(got_rng.Next(), want_rng.Next());
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AnnealTreeDifferential, ::testing::Values(4, 21, 211, 1000));

// After every kind of swap, accepted or not and moving the root or not, the
// walk's proposal is one MutateFlat draw from the flat tree it stands at, and
// its incremental score is TreeScore of the tree the proposal builds. Runs of
// 500 accepted proposals alternate with runs that accept half at random, and
// ineligible ids start among the internals, so the swappable list gains and
// loses positions. At n = 1000 about 4.5 replicas share each of the 220
// cities, so a group's worst leaf is often tied, and often the one removed.
TEST(TreeWalk, IncrementalScoreEqualsTreeScore) {
  for (uint32_t n : {21u, 211u, 1000u}) {
    const uint32_t b = BranchFactorFor(n);
    const uint32_t f = (n - 1) / 3;
    for (const LatencyMatrix& m : {CityBaselineMatrix(n, 3), DenseMatrix(n, 5)}) {
      for (uint32_t k : {2u, 2 * f + 1, n - f}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " k=" << k);
        Rng rng(n * 31 + k);
        std::vector<ReplicaId> current(n);
        std::iota(current.begin(), current.end(), 0);
        rng.Shuffle(current);
        std::vector<bool> eligible(n);
        for (ReplicaId id = 0; id < n; ++id) {
          eligible[id] = id % 3 != 0;
        }
        TreeWalk walk(current, b + 1, eligible, m, k);
        EXPECT_EQ(walk.initial_score(), TreeScore(BuildFlat(current, b + 1), m, k));

        // [internals among the swapped positions][root moved][accepted]
        int seen[3][2][2] = {};
        for (int step = 0; step < 3000; ++step) {
          std::vector<ReplicaId> want = current;
          Rng want_rng = rng;
          MutateFlat(want, b + 1, eligible, want_rng);
          const double score = walk.Propose(rng);
          ASSERT_EQ(walk.ids(), want) << "step " << step;
          ASSERT_EQ(rng.Next(), want_rng.Next()) << "step " << step;
          const TreeTopology tree = BuildFlat(walk.ids(), b + 1);
          ASSERT_EQ(score, TreeScore(tree, m, k)) << "step " << step;
          const TreeSwap& swap = walk.last_swap();
          if (swap.a == swap.b) {
            continue;
          }
          const int internal = (swap.a <= b) + (swap.b <= b);
          const bool root = swap.a == 0 || swap.b == 0;
          const bool accept = (step / 500) % 2 == 0 || rng.Below(2) == 0;
          ++seen[internal][root][accept];
          if (accept) {
            walk.Accept();
            walk.SaveBest();
            current = walk.ids();
            EXPECT_EQ(walk.Best().ToConfig().parent, tree.ToConfig().parent);
          }
        }
        for (int accepted = 0; accepted < 2; ++accepted) {
          EXPECT_GT(seen[0][0][accepted], 0);  // leaf <-> leaf
          for (int root = 0; root < 2; ++root) {
            EXPECT_GT(seen[1][root][accepted], 0);  // internal <-> leaf
            EXPECT_GT(seen[2][root][accepted], 0);  // internal <-> internal
          }
        }
      }
    }
  }
}

// An accepted leaf↔leaf swap is the flat tree the next proposal is drawn
// from: undoing that proposal's swap gives the accepted array back.
TEST(TreeWalk, AcceptedLeafSwapPersists) {
  const uint32_t n = 73;
  const size_t internals = BranchFactorFor(n) + 1;
  const LatencyMatrix m = CityBaselineMatrix(n, 9);
  Rng rng(41);
  std::vector<ReplicaId> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  rng.Shuffle(ids);
  const std::vector<bool> eligible(n, true);
  TreeWalk walk(ids, internals, eligible, m, 2 * ((n - 1) / 3) + 1);
  int checked = 0;
  for (int step = 0; step < 2000 && checked < 50; ++step) {
    walk.Propose(rng);
    const TreeSwap swap = walk.last_swap();
    if (swap.a == swap.b || swap.a < internals || swap.b < internals) {
      continue;  // not a leaf↔leaf swap: rejected, so undone
    }
    walk.Accept();
    const std::vector<ReplicaId> accepted = walk.ids();
    walk.Propose(rng);
    std::vector<ReplicaId> from = walk.ids();
    std::swap(from[walk.last_swap().a], from[walk.last_swap().b]);
    ASSERT_EQ(from, accepted) << "leaf swap " << checked;
    ++checked;
  }
  EXPECT_EQ(checked, 50);
}

// A seeded 200-step TreeConfigSpace::Mutate chain, hashed: pins the §4.2.4
// draws and the trees they make.
TEST(TreeConfigSpace, MutateChainIsPinned) {
  const uint32_t n = 73;
  TreeConfigSpace space(n, 49);
  CandidateSet candidates;
  for (ReplicaId id = 0; id < n; id += 2) {
    candidates.candidates.push_back(id);
  }
  Rng rng(2024);
  RoleConfig config = space.RandomConfig(candidates, rng);
  uint64_t hash = 0;
  for (int step = 0; step < 200; ++step) {
    config = space.Mutate(config, candidates, rng);
    uint64_t word = hash ^ config.leader;
    hash = SplitMix64(word);
    for (ReplicaId parent : config.parent) {
      word = hash ^ parent;
      hash = SplitMix64(word);
    }
  }
  hash ^= rng.Next();
  EXPECT_EQ(hash, 0xd7ecb6469554a98fULL);
}

// Leaves() against the member-by-member definition it replaces, on random
// and annealing-style trees, a star, and trees decoded from configs with
// ids missing from the parent table.
TEST(TreeTopology, LeavesAreNonInternalMembersAscending) {
  auto reference = [](const TreeTopology& t) {
    std::vector<ReplicaId> out;
    for (ReplicaId id : t.Members()) {
      if (!t.IsInternal(id)) {
        out.push_back(id);
      }
    }
    return out;
  };
  Rng rng(77);
  for (uint32_t n : {4u, 13u, 21u, 73u, 200u}) {
    const TreeTopology t = RandomTree(n, rng);
    EXPECT_EQ(t.Leaves(), reference(t)) << "n=" << n;
    EXPECT_EQ(t.Leaves().size(), n - t.Internals().size()) << "n=" << n;

    RoleConfig partial = t.ToConfig();
    for (ReplicaId id = 0; id < n; id += 5) {
      if (!t.IsInternal(id)) {
        partial.parent[id] = kNoReplica;  // drop some leaves
      }
    }
    const TreeTopology decoded = TreeTopology::FromConfig(partial);
    EXPECT_EQ(decoded.Leaves(), reference(decoded)) << "n=" << n;
  }
  std::vector<ReplicaId> leaves = {5, 1, 3};
  const TreeTopology star = TreeTopology::Build({2}, leaves);
  EXPECT_EQ(star.Leaves(), (std::vector<ReplicaId>{1, 3, 5}));
  EXPECT_TRUE(TreeTopology().Leaves().empty());
}

class TreeSizeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TreeSizeSweep, RandomTreeWellFormed) {
  const uint32_t n = GetParam();
  Rng rng(n);
  const TreeTopology t = RandomTree(n, rng);
  EXPECT_EQ(t.size(), n);
  const uint32_t b = BranchFactorFor(n);
  EXPECT_EQ(t.Internals().size(), b + 1);
  // Every replica reachable: root + intermediates + leaves == n.
  size_t leaves = 0;
  for (ReplicaId inter : t.intermediates()) {
    leaves += t.ChildrenOf(inter).size();
  }
  EXPECT_EQ(1 + t.intermediates().size() + leaves, n);
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, TreeSizeSweep,
                         ::testing::Values(13, 21, 43, 56, 57, 73, 91, 111, 157,
                                           183, 211));

}  // namespace
}  // namespace optilog
