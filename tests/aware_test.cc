#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "bench/bench_util.h"
#include "src/aware/aware_score.h"
#include "src/net/geo.h"
#include "src/util/rng.h"

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

CandidateSet AllCandidates(uint32_t n) {
  CandidateSet k;
  for (ReplicaId id = 0; id < n; ++id) {
    k.candidates.push_back(id);
  }
  return k;
}

RoleConfig BasicConfig(uint32_t n, uint32_t f, ReplicaId leader) {
  RoleConfig cfg;
  cfg.leader = leader;
  cfg.weight_max.assign(n, 0);
  uint32_t assigned = 0;
  cfg.weight_max[leader] = 1;
  ++assigned;
  for (ReplicaId id = 0; id < n && assigned < 2 * f; ++id) {
    if (id != leader) {
      cfg.weight_max[id] = 1;
      ++assigned;
    }
  }
  return cfg;
}

TEST(WeightScheme, PbftCaseNoDelta) {
  // n = 3f + 1: Vmax = Vmin = 1, quorum = 2f + 1.
  const WeightScheme s = WeightScheme::For(13, 4);
  EXPECT_DOUBLE_EQ(s.v_max, 1.0);
  EXPECT_DOUBLE_EQ(s.v_min, 1.0);
  EXPECT_DOUBLE_EQ(s.quorum_weight, 9.0);
}

TEST(WeightScheme, AwareCaseWithDelta) {
  // n = 21, f = 6 -> Delta = 2, Vmax = 1 + 2/6, Qv = 2*6*Vmax + 1 = 17.
  const WeightScheme s = WeightScheme::For(21, 6);
  EXPECT_NEAR(s.v_max, 1.0 + 2.0 / 6.0, 1e-12);
  EXPECT_NEAR(s.quorum_weight, 17.0, 1e-9);
}

TEST(WeightedQuorumTime, PicksFastestQuorum) {
  // Weights 1, quorum 3: third-fastest arrival.
  std::vector<std::pair<double, double>> arrivals{
      {50, 1}, {10, 1}, {30, 1}, {20, 1}, {40, 1}};
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(arrivals, 3.0, 0), 30.0);
}

TEST(WeightedQuorumTime, HeavyVotesFormQuorumFaster) {
  std::vector<std::pair<double, double>> arrivals{
      {10, 2}, {20, 2}, {100, 1}, {110, 1}, {120, 1}};
  // Quorum weight 4: two Vmax replicas at t = 20 suffice.
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(arrivals, 4.0, 0), 20.0);
  // Without weights it would need four arrivals (t = 110).
  std::vector<std::pair<double, double>> flat{
      {10, 1}, {20, 1}, {100, 1}, {110, 1}, {120, 1}};
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(flat, 4.0, 0), 110.0);
}

TEST(WeightedQuorumTime, SkipFastestModelsMisbehavers) {
  std::vector<std::pair<double, double>> arrivals{
      {10, 1}, {20, 1}, {30, 1}, {40, 1}};
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(arrivals, 2.0, 0), 20.0);
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(arrivals, 2.0, 1), 30.0);
  EXPECT_DOUBLE_EQ(WeightedQuorumTime(arrivals, 2.0, 2), 40.0);
  EXPECT_TRUE(std::isinf(WeightedQuorumTime(arrivals, 2.0, 3)));
}

TEST(AwareScore, UniformMatrixIsThreePhases) {
  // Uniform RTT r, uniform weights: propose r, prepared 2r, committed 3r.
  const uint32_t n = 13, f = 4;
  const AwareConfigSpace space(n, f);
  const LatencyMatrix m = UniformMatrix(n, 10.0);
  const RoleConfig cfg = BasicConfig(n, f, 0);
  EXPECT_DOUBLE_EQ(space.Score(cfg, m, 0), 30.0);
}

TEST(AwareScore, LeaderPlacementMatters) {
  // Leader in the EU cluster beats a leader in an outlier city.
  const LatencyMatrix m = MatrixFromCities(NaEu43());
  // f = 10 leaves Delta = 12 spare replicas, so weighted quorums can form
  // from well-placed Vmax holders — the regime Aware/WHEAT target.
  const uint32_t f = 10;
  const AwareConfigSpace space(43, f);
  double best = 1e18, worst = 0;
  for (ReplicaId leader = 0; leader < 43; ++leader) {
    RoleConfig cfg;
    cfg.leader = leader;
    cfg.weight_max.assign(43, 0);
    // Give Vmax to the leader and its 2f - 1 nearest peers.
    std::vector<std::pair<double, ReplicaId>> near;
    for (ReplicaId other = 0; other < 43; ++other) {
      near.emplace_back(other == leader ? 0.0 : m.Rtt(leader, other), other);
    }
    std::sort(near.begin(), near.end());
    for (uint32_t i = 0; i < 2 * f; ++i) {
      cfg.weight_max[near[i].second] = 1;
    }
    const double d = space.Score(cfg, m, 0);
    best = std::min(best, d);
    worst = std::max(worst, d);
  }
  EXPECT_LT(best, 0.8 * worst);
}

TEST(AwareScore, UEstimateIncreasesPrediction) {
  const uint32_t n = 21, f = 6;
  const AwareConfigSpace space(n, f);
  const LatencyMatrix m = MatrixFromCities(Europe21());
  const RoleConfig cfg = BasicConfig(n, f, 0);
  double prev = 0;
  for (uint32_t u = 0; u <= 4; ++u) {
    const double d = space.Score(cfg, m, u);
    EXPECT_GE(d, prev) << "u=" << u;
    prev = d;
  }
}

TEST(AwareScore, TimeoutRequirementsTr1Tr2) {
  const uint32_t n = 13, f = 4;
  const LatencyMatrix m = UniformMatrix(n, 10.0);
  const RoleConfig cfg = BasicConfig(n, f, 2);
  // TR1: Propose timeout to A = L(leader, A).
  EXPECT_DOUBLE_EQ(AwareProposeTimeoutMs(cfg, m, 5), 10.0);
  EXPECT_DOUBLE_EQ(AwareProposeTimeoutMs(cfg, m, 2), 0.0);
  // TR2: Write from A to B = propose(A) + L(A, B).
  EXPECT_DOUBLE_EQ(AwareWriteTimeoutMs(cfg, m, 5, 7), 20.0);
  EXPECT_DOUBLE_EQ(AwareWriteTimeoutMs(cfg, m, 2, 7), 10.0);  // leader writes
}

TEST(AwareScore, Tr3RoundEqualsLeaderAcceptQuorum) {
  // d_rnd must equal the accept-quorum timeout at the leader (TR3), which is
  // exactly how the score is built; cross-check on a uniform matrix against
  // AwareAcceptTimeoutMs.
  const uint32_t n = 13, f = 4;
  const AwareConfigSpace space(n, f);
  const LatencyMatrix m = UniformMatrix(n, 10.0);
  const RoleConfig cfg = BasicConfig(n, f, 0);
  // Accept from any non-leader B to the leader: prepared(B) + L(B, L) = 30.
  EXPECT_DOUBLE_EQ(AwareAcceptTimeoutMs(cfg, space.scheme(), m, 1, 0, 0), 30.0);
  EXPECT_DOUBLE_EQ(space.Score(cfg, m, 0), 30.0);
}

// The space's deadline table and Score against the per-message reference
// functions, bit for bit. `configs` configurations come from annealing
// mutation chains over shrinking candidate sets, each checked at one u in
// 0..4; the first chain also checks every Write and Accept deadline.
// `space` may hold rows cached from an earlier matrix: none may leak in.
void ExpectTableMatchesReference(const AwareConfigSpace& space,
                                 const LatencyMatrix& m, uint64_t seed,
                                 uint32_t configs = 2000) {
  constexpr uint32_t kChain = 50;
  const uint32_t n = m.size();
  ASSERT_EQ(space.scheme().n, n);
  const WeightScheme& s = space.scheme();
  Rng rng(seed);
  AwareTimeouts t;
  for (uint32_t chain = 0; chain * kChain < configs; ++chain) {
    // The third candidate set is smaller than 2f, so fewer replicas hold
    // Vmax.
    const CandidateSet k = AllCandidates(n - (chain % 3) * (n / 3));
    RoleConfig cfg = space.RandomConfig(k, rng);
    for (uint32_t step = 0; step < kChain; ++step) {
      ASSERT_TRUE(space.Valid(cfg, k));
      const uint32_t u = static_cast<uint32_t>(rng.Below(5));
      SCOPED_TRACE(testing::Message() << "chain " << chain << " step " << step
                                      << " leader " << cfg.leader << " u " << u);
      space.ComputeTimeouts(cfg, m, u, t);
      ASSERT_EQ(t.propose.size(), n);
      ASSERT_EQ(t.prepared.size(), n);
      std::vector<std::pair<double, double>> accepts_at_leader;
      for (ReplicaId b = 0; b < n; ++b) {
        EXPECT_EQ(t.propose[b], AwareProposeTimeoutMs(cfg, m, b));
        // prepared(B) is B's Accept deadline to itself.
        EXPECT_EQ(t.prepared[b], AwareAcceptTimeoutMs(cfg, s, m, b, b, u));
        accepts_at_leader.emplace_back(
            AwareAcceptTimeoutMs(cfg, s, m, b, cfg.leader, u), WeightOf(cfg, s, b));
      }
      // TR3: the round ends at the leader's weighted quorum of Accepts.
      const double round = WeightedQuorumTime(accepts_at_leader, s.quorum_weight, u);
      EXPECT_EQ(t.round_ms, round);
      EXPECT_EQ(space.Score(cfg, m, u), round);
      if (chain == 0 && step < 4) {
        for (ReplicaId to = 0; to < n; ++to) {
          for (ReplicaId from = 0; from < n; ++from) {
            EXPECT_EQ(t.propose[from] + m.Rtt(from, to),
                      AwareWriteTimeoutMs(cfg, m, from, to));
            EXPECT_EQ(t.prepared[from] + m.Rtt(from, to),
                      AwareAcceptTimeoutMs(cfg, s, m, from, to, u));
          }
        }
      }
      if (testing::Test::HasFailure()) {
        return;
      }
      cfg = space.Mutate(cfg, k, rng);
    }
  }
}

void ExpectTableMatchesReference(const LatencyMatrix& m, uint32_t f, uint64_t seed) {
  ExpectTableMatchesReference(AwareConfigSpace(m.size(), f), m, seed);
}

TEST(AwareTimeoutTable, MatchesReferenceEurope21) {
  ExpectTableMatchesReference(MatrixFromCities(Europe21()), 6, 11);
}

TEST(AwareTimeoutTable, MatchesReferenceNaEu43) {
  ExpectTableMatchesReference(MatrixFromCities(NaEu43()), 10, 12);
}

TEST(AwareTimeoutTable, MatchesReferenceWithColocatedReplicas) {
  // Seven cities, three replicas each: equal rows, so arrivals tie.
  const auto europe = Europe21();
  std::vector<City> cities;
  for (size_t i = 0; i < 21; ++i) {
    cities.push_back(europe[i / 3]);
  }
  const LatencyMatrix m = MatrixFromCities(cities);
  ASSERT_EQ(m.Rtt(0, 5), m.Rtt(1, 5));
  ExpectTableMatchesReference(m, 6, 13);
}

TEST(AwareTimeoutTable, MatchesReferenceWithUnknownPair) {
  // Every pair but {0, 1} recorded: that one stays unknown, L = +inf.
  const LatencyMatrix full = MatrixFromCities(Europe21());
  LatencyMatrix m(21);
  for (ReplicaId a = 0; a < 21; ++a) {
    for (ReplicaId b = 0; b < 21; ++b) {
      if (a != b && a + b != 1) {
        m.Record(a, b, full.Rtt(a, b));
      }
    }
  }
  ASSERT_TRUE(std::isinf(m.Rtt(0, 1)));
  ExpectTableMatchesReference(m, 6, 14);
}

TEST(AwareTimeoutTable, MatchesReferenceBeyond64Replicas) {
  ExpectTableMatchesReference(MatrixFromCities(GlobalN(70)), 20, 15);
}

TEST(AwareTimeoutTable, RefreshesAfterRecord) {
  // One space scores, the matrix changes, the same space scores again.
  LatencyMatrix m = MatrixFromCities(Europe21());
  const AwareConfigSpace space(21, 6);
  ExpectTableMatchesReference(space, m, 16, 500);
  const RoleConfig cfg = BasicConfig(21, 6, 0);
  const double before = space.Score(cfg, m, 0);
  for (ReplicaId b = 1; b < 21; ++b) {
    m.Record(0, b, 900.0);  // replica 0 moves far from everyone
  }
  ExpectTableMatchesReference(space, m, 17, 500);
  EXPECT_GT(space.Score(cfg, m, 0), before);
}

TEST(AwareTimeoutTable, MatricesBuiltInTurnAtOneAddressDoNotAlias) {
  // Two matrices built in turn in one place, each with one Reset and the
  // same number of Records: equal edit counts, different contents.
  const AwareConfigSpace space(21, 6);
  std::optional<LatencyMatrix> m;
  auto build = [&](std::vector<City> cities) {
    const std::vector<double> rtts = CityRttTableMs(cities);
    m.emplace(21);
    for (ReplicaId a = 0; a < 21; ++a) {
      for (ReplicaId b = 0; b < 21; ++b) {
        if (a != b) {
          m->Record(a, b, rtts[a * 21 + b]);
        }
      }
    }
  };
  build(Europe21());
  const LatencyMatrix* first = &*m;
  ExpectTableMatchesReference(space, *m, 18, 500);
  std::vector<City> reversed = Europe21();
  std::reverse(reversed.begin(), reversed.end());
  build(reversed);
  ASSERT_EQ(&*m, first);
  ASSERT_NE(m->Rtt(0, 1), MatrixFromCities(Europe21()).Rtt(0, 1));
  ExpectTableMatchesReference(space, *m, 19, 500);
}

TEST(AwareSpace, RandomConfigsValid) {
  AwareConfigSpace space(21, 6);
  const CandidateSet k = AllCandidates(21);
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const RoleConfig cfg = space.RandomConfig(k, rng);
    EXPECT_TRUE(space.Valid(cfg, k));
    uint32_t vmax = 0;
    for (uint8_t w : cfg.weight_max) {
      vmax += w;
    }
    EXPECT_EQ(vmax, 12u);  // 2f
    EXPECT_EQ(cfg.weight_max[cfg.leader], 1);
  }
}

TEST(AwareSpace, MutatePreservesValidity) {
  AwareConfigSpace space(21, 6);
  CandidateSet k;
  for (ReplicaId id = 0; id < 16; ++id) {
    k.candidates.push_back(id);
  }
  Rng rng(3);
  RoleConfig cfg = space.RandomConfig(k, rng);
  for (int i = 0; i < 300; ++i) {
    cfg = space.Mutate(cfg, k, rng);
    ASSERT_TRUE(space.Valid(cfg, k)) << "iteration " << i;
  }
}

TEST(AwareSpace, RejectsVmaxOutsideCandidates) {
  AwareConfigSpace space(13, 4);
  CandidateSet k;
  for (ReplicaId id = 0; id < 12; ++id) {
    k.candidates.push_back(id);
  }
  RoleConfig cfg;
  cfg.leader = 0;
  cfg.weight_max.assign(13, 0);
  cfg.weight_max[0] = 1;
  cfg.weight_max[12] = 1;  // 12 is not a candidate
  EXPECT_FALSE(space.Valid(cfg, k));
}

TEST(AwareSpace, RejectsNonCandidateLeader) {
  AwareConfigSpace space(13, 4);
  CandidateSet k;
  for (ReplicaId id = 1; id < 13; ++id) {
    k.candidates.push_back(id);
  }
  RoleConfig cfg;
  cfg.leader = 0;
  cfg.weight_max.assign(13, 0);
  EXPECT_FALSE(space.Valid(cfg, k));
}

// AwareConfigSpace::Search against the sequence it replaces, written out:
// RandomConfig, then SimulatedAnnealing over Mutate and Score at
// candidates.u, all from one Rng. Seeded candidate sets, fault estimates u in
// [0, f] and per-pair scaled matrices; the Rng must end in the same state.
TEST(AwareSpace, SearchIsRandomStartThenAnnealing) {
  constexpr uint32_t n = 21, f = 6;
  const AwareConfigSpace space(n, f);
  const LatencyMatrix geo = MatrixFromCities(Europe21());
  const AnnealingParams params = AnnealingParams::ForBudget(300);
  Rng draw(41);
  for (int trial = 0; trial < 8; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    LatencyMatrix m(n);
    for (ReplicaId a = 0; a < n; ++a) {
      for (ReplicaId b = 0; b < n; ++b) {
        if (a != b) {
          m.Record(a, b, geo.Rtt(a, b) * draw.Uniform(1.0, 1.5));
        }
      }
    }
    CandidateSet k;
    k.u = static_cast<uint32_t>(draw.Below(f + 1));
    for (ReplicaId id = 0; id < n; ++id) {
      if (trial == 0 || draw.Below(3) != 0) {
        k.candidates.push_back(id);
      }
    }
    const uint64_t seed = draw.Next();
    Rng got_rng(seed), want_rng(seed);
    const std::optional<ScoredConfig> got = space.Search(k, m, got_rng, params);
    const AnnealingResult<RoleConfig> want = SimulatedAnnealing(
        space.RandomConfig(k, want_rng),
        [&](const RoleConfig& cfg) { return space.Score(cfg, m, k.u); },
        [&](const RoleConfig& cfg, Rng& r) { return space.Mutate(cfg, k, r); }, want_rng,
        params);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->config, want.best);
    EXPECT_EQ(got->score, want.best_score);
    EXPECT_EQ(got_rng.Next(), want_rng.Next());
  }
  // An empty K has no valid start.
  Rng rng(1);
  EXPECT_FALSE(space.Search(CandidateSet{}, geo, rng, params).has_value());
}

// Mutate's draws, pinned: a seeded 200-step chain, hashed step by step, over
// four candidate sets of 50 steps each (every replica, every third left out,
// fewer than 2f, and nine that leave most Vmax holders behind). Any change
// to which replica a draw picks, or to how many draws a step takes, moves
// the hash.
TEST(AwareSpace, MutateChainIsPinned) {
  const uint32_t n = 21;
  const AwareConfigSpace space(n, 6);
  std::vector<CandidateSet> sets(4);
  for (ReplicaId id = 0; id < n; ++id) {
    sets[0].candidates.push_back(id);
    if (id % 3 != 1) {
      sets[1].candidates.push_back(id);
    }
    if (id >= 11) {
      sets[2].candidates.push_back(id);
    }
    if (id < 9) {
      sets[3].candidates.push_back(id);
    }
  }
  Rng rng(2024);
  RoleConfig config = space.RandomConfig(sets[0], rng);
  uint64_t hash = 0;
  for (int step = 0; step < 200; ++step) {
    config = space.Mutate(config, sets[step / 50], rng);
    uint64_t word = hash ^ config.leader;
    hash = SplitMix64(word);
    for (uint8_t w : config.weight_max) {
      word = hash ^ w;
      hash = SplitMix64(word);
    }
  }
  hash ^= rng.Next();
  EXPECT_EQ(hash, 0xacae68c35dff266cULL);
}

// The vote deadline table against the per-vote formula HandlePhase applied
// before the table existed: ComputeTimeouts' propose[from] (Write) or
// prepared[from] (Accept) plus Rtt(from, to), checked only between distinct
// Known replicas of a complete matrix when the sum is finite. Seeded
// matrices with one-sided and +inf reports, the last with one pair never
// reported (Coverage() < 1), configurations from a mutation chain at u in
// 0..4, and sender ids at and above n.
TEST(AwareVoteDeadlines, EqualsThePerVoteFormula) {
  constexpr uint32_t n = 21;
  const double inf = std::numeric_limits<double>::infinity();
  const AwareConfigSpace space(n, 6);
  const LatencyMatrix geo = MatrixFromCities(Europe21());
  const CandidateSet k = AllCandidates(n);
  Rng rng(31);
  uint64_t observed = 0;
  uint64_t unobserved = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const bool incomplete = trial == 5;
    LatencyMatrix m(n);
    for (ReplicaId a = 0; a < n; ++a) {
      for (ReplicaId b = 0; b < n; ++b) {
        if (a == b || (incomplete && a + b == 1) || (a > b && rng.Below(3) == 0)) {
          continue;  // one-sided pairs, and {0, 1} unknown in the last trial
        }
        m.Record(a, b, rng.Below(25) == 0 ? inf : geo.Rtt(a, b) * rng.Uniform(1.0, 1.5));
      }
    }
    ASSERT_EQ(m.Coverage() < 1.0, incomplete);
    RoleConfig cfg = space.RandomConfig(k, rng);
    AwareTimeouts t;
    AwareVoteDeadlines table;
    for (int step = 0; step < 20; ++step) {
      const uint32_t u = static_cast<uint32_t>(rng.Below(5));
      space.ComputeTimeouts(cfg, m, u, t);
      table.Build(t, m);
      for (bool accept : {false, true}) {
        for (ReplicaId from = 0; from < n + 2; ++from) {
          for (ReplicaId to = 0; to < n; ++to) {
            SimTime expected = AwareVoteDeadlines::kUnobserved;
            if (from < n && from != to && m.Known(from, to) && m.Coverage() >= 1.0) {
              const double d_m =
                  (accept ? t.prepared[from] : t.propose[from]) + m.Rtt(from, to);
              if (std::isfinite(d_m)) {
                expected = FromMs(d_m);
              }
            }
            ASSERT_EQ(table.Of(accept, from, to), expected)
                << "trial " << trial << " step " << step << " accept " << accept
                << " " << from << " -> " << to;
            ++(expected == AwareVoteDeadlines::kUnobserved ? unobserved : observed);
          }
        }
      }
      cfg = space.Mutate(cfg, k, rng);
    }
  }
  EXPECT_GT(observed, unobserved);  // most votes are checked, not all
}

}  // namespace
}  // namespace optilog
