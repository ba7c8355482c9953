#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "src/core/latency_monitor.h"
#include "src/util/rng.h"
#include "src/core/misbehavior_monitor.h"
#include "src/core/suspicion_monitor.h"
#include "tests/test_support.h"

namespace optilog {
namespace {

// --- LatencyMonitor ----------------------------------------------------------

TEST(LatencyMatrix, SymmetryUsesMaxRule) {
  LatencyMatrix m(3);
  m.Record(0, 1, 10.0);
  m.Record(1, 0, 14.0);
  // §4.2.1: L[A][B] = L[B][A] = max(Lr(A,B), Lr(B,A)).
  EXPECT_DOUBLE_EQ(m.Rtt(0, 1), 14.0);
  EXPECT_DOUBLE_EQ(m.Rtt(1, 0), 14.0);
}

TEST(LatencyMatrix, OneSidedReportUsed) {
  LatencyMatrix m(3);
  m.Record(0, 1, 10.0);
  EXPECT_DOUBLE_EQ(m.Rtt(0, 1), 10.0);
  EXPECT_TRUE(m.Known(0, 1));
  EXPECT_FALSE(m.Known(0, 2));
  EXPECT_TRUE(std::isinf(m.Rtt(0, 2)));
}

TEST(LatencyMatrix, SelfIsZero) {
  LatencyMatrix m(2);
  EXPECT_DOUBLE_EQ(m.Rtt(1, 1), 0.0);
}

TEST(LatencyMatrix, CoverageProgresses) {
  LatencyMatrix m(3);
  EXPECT_DOUBLE_EQ(m.Coverage(), 0.0);
  m.Record(0, 1, 1.0);
  EXPECT_NEAR(m.Coverage(), 1.0 / 3.0, 1e-9);
  m.Record(0, 2, 1.0);
  m.Record(1, 2, 1.0);
  EXPECT_DOUBLE_EQ(m.Coverage(), 1.0);
}

TEST(LatencyMatrix, CoverageAndVersionFollowEveryRecord) {
  // A seeded mix of first reports, re-reports, self pairs, out-of-range ids
  // and unreachable (+inf) peers. After every step Coverage() equals a count
  // of known unordered pairs kept beside the matrix, and version() has moved
  // iff the Record was in range.
  constexpr uint32_t n = 9;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  LatencyMatrix m(n);
  std::set<std::pair<ReplicaId, ReplicaId>> reported;  // (reporter, peer)
  auto brute_force = [&] {
    size_t known = 0;
    for (ReplicaId a = 0; a < n; ++a) {
      for (ReplicaId b = a + 1; b < n; ++b) {
        known += reported.count({a, b}) + reported.count({b, a}) > 0 ? 1 : 0;
      }
    }
    return static_cast<double>(known) / static_cast<double>(n * (n - 1) / 2);
  };
  EXPECT_EQ(m.Coverage(), 0.0);
  EXPECT_FALSE(m.Known(0, 1));
  EXPECT_TRUE(std::isinf(m.Rtt(0, 1)));
  Rng rng(2024);
  for (int step = 0; step < 1000; ++step) {
    const auto a = static_cast<ReplicaId>(rng.Below(n + 2));  // n, n+1: out of range
    const auto b = rng.Below(4) == 0 ? a : static_cast<ReplicaId>(rng.Below(n + 2));
    const double rtt = rng.Below(5) == 0 ? kInf : rng.Uniform(1.0, 200.0);
    const uint64_t before = m.version();
    m.Record(a, b, rtt);
    if (a < n && b < n) {
      reported.insert({a, b});
      EXPECT_NE(m.version(), before) << "step " << step;
    } else {
      EXPECT_EQ(m.version(), before) << "step " << step;
    }
    ASSERT_EQ(m.Coverage(), brute_force()) << "step " << step;
  }
  EXPECT_EQ(m.Coverage(), 1.0);

  const uint64_t before_reset = m.version();
  m.Reset(n);
  EXPECT_NE(m.version(), before_reset);
  EXPECT_EQ(m.Coverage(), 0.0);
  EXPECT_FALSE(m.Known(2, 3));
  m.Record(2, 3, 5.0);
  EXPECT_EQ(m.Coverage(), 1.0 / 36.0);
  EXPECT_DOUBLE_EQ(m.Rtt(3, 2), 5.0);
}

TEST(LatencyMatrix, CityBaselineIsCompleteAndVersioned) {
  LatencyMatrix m(4);
  const uint64_t v0 = m.version();
  // Replicas 0, 1 in city 0 and 2, 3 in city 1, 30 ms apart.
  m.ResetWithCityBaseline(4, {0, 0, 1, 1}, {0.0, 30.0, 30.0, 0.0}, 2);
  EXPECT_NE(m.version(), v0);
  EXPECT_EQ(m.Coverage(), 1.0);
  EXPECT_DOUBLE_EQ(m.Rtt(0, 1), 1.0);  // colocated: the datacenter base delay
  EXPECT_DOUBLE_EQ(m.Rtt(0, 2), 30.0);
  const uint64_t v1 = m.version();
  m.Record(2, 0, 45.0);
  EXPECT_NE(m.version(), v1);
  EXPECT_DOUBLE_EQ(m.Rtt(0, 2), 45.0);
  EXPECT_EQ(m.Coverage(), 1.0);
}

// A city baseline stores each city pair under the max rule, so an
// asymmetric table reads as its symmetrized form; Records then apply the
// max rule on top, one direction at a time. Every Rtt and Known answer
// equals a dense matrix's that recorded the symmetrized baseline for every
// ordered pair and then the same Records, before and after the first of
// them, and so does Coverage after every Record. The first two Records
// report pair {0, 2} unknown in both directions, which leaves it unknown.
TEST(LatencyMatrix, CityBaselineMatchesDenseMaxRuleReference) {
  constexpr uint32_t kN = 12;
  constexpr size_t kCities = 5;
  constexpr double kUnknownReport = -1.0;  // Record's "no report"
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(77);
  std::vector<uint32_t> index_of(kN);
  for (uint32_t& c : index_of) {
    c = static_cast<uint32_t>(rng.Below(kCities));
  }
  std::vector<double> table(kCities * kCities);
  for (double& rtt : table) {
    rtt = 5.0 + static_cast<double>(rng.Below(40));  // asymmetric, with ties
  }
  table[1 * kCities + 3] = inf;  // one direction unreachable

  LatencyMatrix city;
  city.ResetWithCityBaseline(kN, index_of, table, kCities);
  LatencyMatrix dense(kN);
  for (ReplicaId a = 0; a < kN; ++a) {
    for (ReplicaId b = 0; b < kN; ++b) {
      const size_t ca = index_of[a], cb = index_of[b];
      if (a != b) {
        dense.Record(a, b,
                     ca == cb ? 1.0
                              : std::max(table[ca * kCities + cb], table[cb * kCities + ca]));
      }
    }
  }
  const auto expect_same = [&](const char* when) {
    for (ReplicaId a = 0; a < kN; ++a) {
      for (ReplicaId b = 0; b < kN; ++b) {
        ASSERT_EQ(city.Rtt(a, b), dense.Rtt(a, b)) << when << ": " << a << " <-> " << b;
        ASSERT_EQ(city.Known(a, b), dense.Known(a, b)) << when << ": " << a << " <-> " << b;
      }
    }
  };
  const auto record = [&](ReplicaId a, ReplicaId b, double rtt) {
    city.Record(a, b, rtt);
    dense.Record(a, b, rtt);
    ASSERT_EQ(city.Coverage(), dense.Coverage()) << a << " -> " << b << ": " << rtt;
  };
  expect_same("baseline");
  ASSERT_EQ(city.Coverage(), 1.0);
  ASSERT_EQ(dense.Coverage(), 1.0);
  record(0, 2, kUnknownReport);
  expect_same("first record");
  record(2, 0, kUnknownReport);
  EXPECT_FALSE(city.Known(0, 2));
  expect_same("pair {0, 2} unknown");
  // Reports in both directions: values that win and lose the max rule, the
  // unknown report and +inf.
  for (int i = 0; i < 80; ++i) {
    const ReplicaId a = static_cast<ReplicaId>(rng.Below(kN));
    const ReplicaId b = static_cast<ReplicaId>(rng.Below(kN));
    const uint64_t kind = rng.Below(4);
    const double rtt = kind == 0   ? kUnknownReport
                       : kind == 1 ? inf
                                   : 0.5 + static_cast<double>(rng.Below(80));
    record(a, b, rtt);
  }
  expect_same("every record");
}

TEST(LatencyMonitor, AppliesVectors) {
  LatencyMonitor mon(3);
  LatencyVectorRecord rec;
  rec.reporter = 0;
  rec.rtt_units = {0, EncodeRttMs(25.0), kRttInfinity};
  mon.OnLatencyVector(rec);
  EXPECT_DOUBLE_EQ(mon.matrix().Rtt(0, 1), 25.0);
  EXPECT_TRUE(std::isinf(mon.matrix().Rtt(0, 2)));
  EXPECT_EQ(mon.vectors_applied(), 1u);
}

TEST(LatencyMonitor, IgnoresOutOfRangeReporter) {
  LatencyMonitor mon(3);
  LatencyVectorRecord rec;
  rec.reporter = 9;
  rec.rtt_units = {1, 2, 3};
  mon.OnLatencyVector(rec);
  EXPECT_EQ(mon.vectors_applied(), 0u);
}

TEST(LatencyMonitor, InfinityMarksUnreachablePeer) {
  // "Any replica that fails to reply is marked as inf in the latency vector."
  LatencyMonitor mon(2);
  LatencyVectorRecord rec;
  rec.reporter = 0;
  rec.rtt_units = {0, kRttInfinity};
  mon.OnLatencyVector(rec);
  EXPECT_TRUE(std::isinf(mon.matrix().Rtt(0, 1)));
  // A later honest report from the other side dominates via the max rule --
  // the max of inf and finite stays inf, keeping the pair unusable until the
  // non-replier is measured again.
  LatencyVectorRecord rec2;
  rec2.reporter = 1;
  rec2.rtt_units = {EncodeRttMs(5.0), 0};
  mon.OnLatencyVector(rec2);
  EXPECT_TRUE(std::isinf(mon.matrix().Rtt(0, 1)));
}

// --- MisbehaviorMonitor --------------------------------------------------------

class MisbehaviorTest : public ::testing::Test {
 protected:
  MisbehaviorTest() : keys_(4, 9), monitor_(4, &keys_) {}

  SignedHeader MakeHeader(ReplicaId signer, uint64_t view, const std::string& tag) {
    SignedHeader h;
    h.view = view;
    h.digest = Sha256::Hash(tag);
    h.sig = keys_.Sign(signer, h.SigningBytes());
    return h;
  }

  KeyStore keys_;
  MisbehaviorMonitor monitor_;
};

TEST_F(MisbehaviorTest, ValidEquivocationConvictsAccused) {
  ComplaintRecord rec;
  rec.accuser = 0;
  rec.accused = 2;
  rec.kind = MisbehaviorKind::kEquivocation;
  rec.headers = {MakeHeader(2, 7, "block-a"), MakeHeader(2, 7, "block-b")};
  monitor_.OnComplaint(rec, /*sig_valid=*/true);
  EXPECT_TRUE(monitor_.IsFaulty(2));
  EXPECT_FALSE(monitor_.IsFaulty(0));
}

TEST_F(MisbehaviorTest, SameDigestIsNotEquivocation) {
  ComplaintRecord rec;
  rec.accuser = 0;
  rec.accused = 2;
  rec.kind = MisbehaviorKind::kEquivocation;
  rec.headers = {MakeHeader(2, 7, "same"), MakeHeader(2, 7, "same")};
  monitor_.OnComplaint(rec, true);
  // Bogus complaint: the accuser is convicted instead.
  EXPECT_FALSE(monitor_.IsFaulty(2));
  EXPECT_TRUE(monitor_.IsFaulty(0));
}

TEST_F(MisbehaviorTest, DifferentViewsAreNotEquivocation) {
  ComplaintRecord rec;
  rec.accuser = 1;
  rec.accused = 2;
  rec.kind = MisbehaviorKind::kEquivocation;
  rec.headers = {MakeHeader(2, 7, "a"), MakeHeader(2, 8, "b")};
  monitor_.OnComplaint(rec, true);
  EXPECT_TRUE(monitor_.IsFaulty(1));
}

TEST_F(MisbehaviorTest, InvalidSignatureProof) {
  SignedHeader bad;
  bad.view = 3;
  bad.digest = Sha256::Hash(std::string("x"));
  bad.sig = ForgedSignature(1);
  ComplaintRecord rec;
  rec.accuser = 0;
  rec.accused = 1;
  rec.kind = MisbehaviorKind::kInvalidSignature;
  rec.headers = {bad};
  monitor_.OnComplaint(rec, true);
  EXPECT_TRUE(monitor_.IsFaulty(1));
}

TEST_F(MisbehaviorTest, ValidSignatureIsNoProof) {
  ComplaintRecord rec;
  rec.accuser = 0;
  rec.accused = 1;
  rec.kind = MisbehaviorKind::kInvalidSignature;
  rec.headers = {MakeHeader(1, 3, "x")};  // genuinely signed -> no misbehavior
  monitor_.OnComplaint(rec, true);
  EXPECT_FALSE(monitor_.IsFaulty(1));
  EXPECT_TRUE(monitor_.IsFaulty(0));  // slanderous accuser convicted
}

TEST_F(MisbehaviorTest, InvalidCertProof) {
  const Digest d = Sha256::Hash(std::string("qc"));
  QuorumCert qc = QuorumCert::Aggregate(d, {keys_.Sign(0, d), keys_.Sign(1, d)}, keys_);
  qc.Corrupt();
  ComplaintRecord rec;
  rec.accuser = 3;
  rec.accused = 1;
  rec.kind = MisbehaviorKind::kInvalidQuorumCert;
  rec.cert = qc;
  monitor_.OnComplaint(rec, true);
  EXPECT_TRUE(monitor_.IsFaulty(1));
}

TEST_F(MisbehaviorTest, InvalidAggregationUnderCoverage) {
  // §6.3: aggregate must carry b + 1 = 4 votes or suspicions; this one has 2
  // votes and no suspicions.
  const Digest d = Sha256::Hash(std::string("agg"));
  ComplaintRecord rec;
  rec.accuser = 0;
  rec.accused = 2;
  rec.kind = MisbehaviorKind::kInvalidAggregation;
  rec.cert = QuorumCert::Aggregate(d, {keys_.Sign(2, d), keys_.Sign(3, d)}, keys_);
  rec.expected_votes = 4;
  monitor_.OnComplaint(rec, true);
  EXPECT_TRUE(monitor_.IsFaulty(2));
}

TEST_F(MisbehaviorTest, AggregationWithSuspicionsIsFine) {
  const Digest d = Sha256::Hash(std::string("agg"));
  ComplaintRecord rec;
  rec.accuser = 0;
  rec.accused = 2;
  rec.kind = MisbehaviorKind::kInvalidAggregation;
  rec.cert = QuorumCert::Aggregate(d, {keys_.Sign(2, d), keys_.Sign(3, d)}, keys_);
  rec.witness_sigs = {keys_.Sign(2, Bytes{1}), keys_.Sign(2, Bytes{2})};  // 2 suspicions
  rec.expected_votes = 4;
  monitor_.OnComplaint(rec, true);
  EXPECT_FALSE(monitor_.IsFaulty(2));  // 2 votes + 2 suspicions = b + 1
  EXPECT_TRUE(monitor_.IsFaulty(0));   // complaint was baseless
}

TEST_F(MisbehaviorTest, UnsignedComplaintIgnored) {
  ComplaintRecord rec;
  rec.accuser = 0;
  rec.accused = 1;
  rec.kind = MisbehaviorKind::kEquivocation;
  monitor_.OnComplaint(rec, /*sig_valid=*/false);
  EXPECT_TRUE(monitor_.faulty().empty());
}

// --- SuspicionMonitor -----------------------------------------------------------

SuspicionRecord Slow(ReplicaId a, ReplicaId b, uint64_t round = 1,
                     PhaseTag phase = PhaseTag::kFirstVote) {
  SuspicionRecord rec;
  rec.type = SuspicionType::kSlow;
  rec.suspector = a;
  rec.suspect = b;
  rec.round = round;
  rec.phase = phase;
  return rec;
}

SuspicionRecord False(ReplicaId a, ReplicaId b, uint64_t round = 1) {
  SuspicionRecord rec;
  rec.type = SuspicionType::kFalse;
  rec.suspector = a;
  rec.suspect = b;
  rec.round = round;
  rec.phase = PhaseTag::kFirstVote;
  return rec;
}

class SuspicionMonitorTest : public ::testing::Test {
 protected:
  SuspicionMonitorTest() : keys_(13, 1), misbehavior_(13, &keys_) {}

  SuspicionMonitor MakeMonitor(CandidatePolicy policy,
                               uint32_t min_candidates = 0) {
    SuspicionMonitorOptions opts;
    opts.policy = policy;
    opts.min_candidates = min_candidates;
    return SuspicionMonitor(13, 4, &misbehavior_, opts);
  }

  KeyStore keys_;
  MisbehaviorMonitor misbehavior_;
};

TEST_F(SuspicionMonitorTest, InitialCandidatesAreEveryone) {
  auto mon = MakeMonitor(CandidatePolicy::kMaxIndependentSet);
  EXPECT_EQ(mon.Current().candidates.size(), 13u);
  EXPECT_EQ(mon.Current().u, 0u);
}

TEST_F(SuspicionMonitorTest, TwoWaySuspicionExcludesOne) {
  auto mon = MakeMonitor(CandidatePolicy::kMaxIndependentSet);
  mon.OnSuspicion(Slow(1, 2), true);
  // Edge (1,2) in G: MIS drops exactly one of them; u = 1.
  EXPECT_EQ(mon.Current().candidates.size(), 12u);
  EXPECT_EQ(mon.Current().u, 1u);
}

TEST_F(SuspicionMonitorTest, C1AlwaysNMinusFCandidates) {
  // Lemma 1: even under heavy suspicion load, |K| >= n - f.
  auto mon = MakeMonitor(CandidatePolicy::kMaxIndependentSet);
  Rng rng(5);
  for (int i = 0; i < 120; ++i) {
    const auto a = static_cast<ReplicaId>(rng.Below(13));
    const auto b = static_cast<ReplicaId>(rng.Below(13));
    mon.OnSuspicion(Slow(a, b, 100 + i, PhaseTag::kProposal), true);
    EXPECT_GE(mon.Current().candidates.size(), 13u - 4u) << "after " << i;
  }
}

TEST_F(SuspicionMonitorTest, UnreciprocatedSuspicionMeansCrashed) {
  auto mon = MakeMonitor(CandidatePolicy::kMaxIndependentSet);
  mon.OnSuspicion(Slow(1, 2), true);
  EXPECT_FALSE(mon.IsCrashed(2));
  // f + 1 = 5 views without <False, 2 d 1>.
  for (uint64_t v = 1; v <= 6; ++v) {
    mon.OnView(v);
  }
  EXPECT_TRUE(mon.IsCrashed(2));
  // Crashed replicas leave G and the candidate set, but u stays 0 (crash
  // faults are not misbehavior).
  EXPECT_EQ(mon.graph().num_edges(), 0u);
  EXPECT_FALSE(mon.Current().Contains(2));
  EXPECT_EQ(mon.Current().u, 0u);
}

TEST_F(SuspicionMonitorTest, ReciprocationKeepsEdgeTwoWay) {
  auto mon = MakeMonitor(CandidatePolicy::kMaxIndependentSet);
  mon.OnSuspicion(Slow(1, 2), true);
  mon.OnSuspicion(False(2, 1), true);
  for (uint64_t v = 1; v <= 10; ++v) {
    mon.OnView(v);
  }
  EXPECT_FALSE(mon.IsCrashed(2));
  EXPECT_TRUE(mon.graph().HasEdge(1, 2));
  EXPECT_EQ(mon.Current().u, 1u);
}

TEST_F(SuspicionMonitorTest, FilterKeepsEarliestPhasePerRound) {
  auto mon = MakeMonitor(CandidatePolicy::kMaxIndependentSet);
  mon.OnSuspicion(Slow(1, 2, 5, PhaseTag::kFirstVote), true);
  // Later-phase suspicion in the same round is causally downstream: filtered.
  mon.OnSuspicion(Slow(3, 4, 5, PhaseTag::kAggregate), true);
  EXPECT_EQ(mon.suspicions_retained(), 1u);
  EXPECT_EQ(mon.suspicions_filtered(), 1u);
  EXPECT_FALSE(mon.graph().HasEdge(3, 4));
}

TEST_F(SuspicionMonitorTest, FilterExcusesLeaderAfterItsOwnSuspicion) {
  auto mon = MakeMonitor(CandidatePolicy::kMaxIndependentSet);
  // Leader 7 suspects someone in round 5 -> its delayed proposal timestamp
  // in round 6 must be excused.
  mon.OnSuspicion(Slow(7, 3, 5, PhaseTag::kSecondVote), true);
  mon.OnSuspicion(Slow(1, 7, 6, PhaseTag::kProposal), true);
  EXPECT_FALSE(mon.graph().HasEdge(1, 7));
  EXPECT_EQ(mon.suspicions_filtered(), 1u);
}

TEST_F(SuspicionMonitorTest, DuplicatePairInRoundFiltered) {
  auto mon = MakeMonitor(CandidatePolicy::kMaxIndependentSet);
  mon.OnSuspicion(Slow(1, 2, 5, PhaseTag::kProposal), true);
  mon.OnSuspicion(Slow(1, 2, 5, PhaseTag::kProposal), true);
  EXPECT_EQ(mon.suspicions_retained(), 1u);
}

TEST_F(SuspicionMonitorTest, UnsignedAndMalformedIgnored) {
  auto mon = MakeMonitor(CandidatePolicy::kMaxIndependentSet);
  mon.OnSuspicion(Slow(1, 2), false);
  mon.OnSuspicion(Slow(1, 1), true);    // self-suspicion
  mon.OnSuspicion(Slow(1, 99), true);   // out of range
  EXPECT_EQ(mon.graph().num_edges(), 0u);
}

TEST_F(SuspicionMonitorTest, StabilityWindowDecaysOldSuspicions) {
  SuspicionMonitorOptions opts;
  opts.policy = CandidatePolicy::kMaxIndependentSet;
  opts.stability_window = 4;
  SuspicionMonitor mon(13, 4, &misbehavior_, opts);
  mon.OnSuspicion(Slow(1, 2, 1), true);
  mon.OnSuspicion(False(2, 1, 1), true);
  EXPECT_EQ(mon.graph().num_edges(), 1u);
  // Quiet views beyond the window decay the edge.
  for (uint64_t v = 1; v <= 6; ++v) {
    mon.OnView(v);
  }
  EXPECT_EQ(mon.graph().num_edges(), 0u);
  EXPECT_EQ(mon.Current().candidates.size(), 13u);
}

TEST_F(SuspicionMonitorTest, ProvablyFaultyExcludedFromCandidates) {
  ComplaintRecord rec;
  rec.accuser = 0;
  rec.accused = 5;
  rec.kind = MisbehaviorKind::kInvalidSignature;
  SignedHeader bad;
  bad.view = 1;
  bad.digest = Sha256::Hash(std::string("z"));
  bad.sig = ForgedSignature(5);
  rec.headers = {bad};
  misbehavior_.OnComplaint(rec, true);

  auto mon = MakeMonitor(CandidatePolicy::kMaxIndependentSet);
  EXPECT_FALSE(mon.Current().Contains(5));
  EXPECT_EQ(mon.Current().candidates.size(), 12u);
}

TEST_F(SuspicionMonitorTest, EpochBumpsOnChange) {
  auto mon = MakeMonitor(CandidatePolicy::kMaxIndependentSet);
  const uint64_t e0 = mon.Current().epoch;
  mon.OnSuspicion(Slow(1, 2), true);
  EXPECT_GT(mon.Current().epoch, e0);
}

// Recompute reads only G, C and F, so a suspicion that adds no edge skips
// it. A seeded stream of Slow suspicions over few pairs (most edges repeat),
// matched and unsolicited False reciprocations, views (crash verdicts and
// decay) and complaints (recomputed as the Pipeline does): after every
// OnSuspicion, a forced Recompute must change neither K, u nor the epoch.
TEST_F(SuspicionMonitorTest, SuspicionsThatAddNoEdgeChangeNothing) {
  for (CandidatePolicy policy :
       {CandidatePolicy::kMaxIndependentSet, CandidatePolicy::kTreeDisjointEdges}) {
    MisbehaviorMonitor misbehavior(13, &keys_);
    SuspicionMonitorOptions opts;
    opts.policy = policy;
    opts.stability_window = 6;
    SuspicionMonitor mon(13, 4, &misbehavior, opts);
    Rng rng(policy == CandidatePolicy::kMaxIndependentSet ? 41 : 42);
    uint64_t view = 0;
    uint64_t round = 1;
    uint64_t added = 0;
    uint64_t repeated = 0;
    for (int step = 0; step < 600; ++step) {
      const uint64_t kind = rng.Below(100);
      if (kind < 10) {
        mon.OnView(++view);
        continue;
      }
      if (kind == 10) {
        ComplaintRecord rec;
        rec.accuser = 0;
        rec.accused = static_cast<ReplicaId>(1 + rng.Below(12));
        rec.kind = MisbehaviorKind::kInvalidSignature;
        SignedHeader bad;
        bad.view = step;
        bad.digest = Sha256::Hash(std::string("z"));
        bad.sig = ForgedSignature(rec.accused);
        rec.headers = {bad};
        misbehavior.OnComplaint(rec, true);
        mon.Recompute();
        continue;
      }
      // Suspicions among replicas 0-6, so most pairs come back.
      const auto a = static_cast<ReplicaId>(rng.Below(7));
      const auto b = static_cast<ReplicaId>(rng.Below(7));
      round += rng.Below(3) == 0 ? 0 : 1;
      const size_t edges = mon.graph().num_edges();
      if (kind < 40) {
        mon.OnSuspicion(False(a, b, round), true);
      } else {
        mon.OnSuspicion(Slow(a, b, round, PhaseTag::kProposal), true);
      }
      ++(mon.graph().num_edges() > edges ? added : repeated);
      const CandidateSet before = mon.Current();
      mon.Recompute();
      ASSERT_EQ(mon.Current().candidates, before.candidates) << "step " << step;
      ASSERT_EQ(mon.Current().u, before.u) << "step " << step;
      ASSERT_EQ(mon.Current().epoch, before.epoch) << "step " << step;
    }
    EXPECT_GT(added, 20u);
    EXPECT_GT(repeated, added);
    EXPECT_FALSE(misbehavior.faulty().empty());
  }
}

// --- Tree candidate policy (§6.4) ------------------------------------------------

TEST_F(SuspicionMonitorTest, TreePolicyFig6Example) {
  // Fig. 6: vertices S1..S4 (0..3), At (4), N1 (5), N2 (6), Bc (7), N3 (8),
  // R (9). Edges: (S1,S4), (S2,S3) land in E_d; At forms a triangle with
  // (S1,S4); Bc has a one-way suspicion (never reciprocated).
  SuspicionMonitorOptions opts;
  opts.policy = CandidatePolicy::kTreeDisjointEdges;
  opts.min_candidates = 3;
  SuspicionMonitor mon(10, 3, &misbehavior_, opts);

  auto two_way = [&](ReplicaId a, ReplicaId b, uint64_t round) {
    mon.OnSuspicion(Slow(a, b, round, PhaseTag::kProposal), true);
    mon.OnSuspicion(False(b, a, round), true);
  };
  two_way(0, 3, 1);  // S1-S4 -> E_d
  two_way(1, 2, 2);  // S2-S3 -> E_d
  two_way(4, 0, 3);  // At-S1: triangle arm 1
  two_way(4, 3, 4);  // At-S4: triangle arm 2 -> At in T
  mon.OnSuspicion(Slow(5, 7, 5, PhaseTag::kProposal), true);  // N1 d Bc, one-way
  for (uint64_t v = 1; v <= 8; ++v) {
    mon.OnView(v);  // Bc misses the reciprocation window -> crashed
  }

  EXPECT_TRUE(mon.IsCrashed(7));
  EXPECT_EQ(mon.disjoint_edges().size(), 2u);
  ASSERT_EQ(mon.triangles().size(), 1u);
  EXPECT_EQ(mon.triangles()[0], 4u);
  // K = {N1, N2, N3, R} = {5, 6, 8, 9}.
  EXPECT_EQ(mon.Current().candidates, (std::vector<ReplicaId>{5, 6, 8, 9}));
  // u = |E_d| + |T| = 3.
  EXPECT_EQ(mon.Current().u, 3u);
}

TEST_F(SuspicionMonitorTest, TreePolicyEdgeRemovesBothEndpoints) {
  SuspicionMonitorOptions opts;
  opts.policy = CandidatePolicy::kTreeDisjointEdges;
  opts.min_candidates = 4;
  SuspicionMonitor mon(13, 4, &misbehavior_, opts);
  mon.OnSuspicion(Slow(1, 2, 1, PhaseTag::kProposal), true);
  mon.OnSuspicion(False(2, 1, 1), true);
  EXPECT_FALSE(mon.Current().Contains(1));
  EXPECT_FALSE(mon.Current().Contains(2));
  EXPECT_EQ(mon.Current().u, 1u);
  EXPECT_EQ(mon.Current().candidates.size(), 11u);
}

TEST_F(SuspicionMonitorTest, TreePolicyMaintainsMaximalMatching) {
  // Chain 1-2, 2-3: E_d can hold only one of them (they share vertex 2),
  // and vertex 3 (or 1) stays out only if matched/triangled.
  SuspicionMonitorOptions opts;
  opts.policy = CandidatePolicy::kTreeDisjointEdges;
  opts.min_candidates = 4;
  SuspicionMonitor mon(13, 4, &misbehavior_, opts);
  auto two_way = [&](ReplicaId a, ReplicaId b, uint64_t round) {
    mon.OnSuspicion(Slow(a, b, round, PhaseTag::kProposal), true);
    mon.OnSuspicion(False(b, a, round), true);
  };
  two_way(1, 2, 1);
  two_way(2, 3, 2);
  EXPECT_EQ(mon.disjoint_edges().size(), 1u);
  // Vertex 3 is free and not in a triangle -> remains a candidate.
  EXPECT_TRUE(mon.Current().Contains(3));
  EXPECT_EQ(mon.Current().u, 1u);
}

TEST_F(SuspicionMonitorTest, TreePolicyAugmentingSwap) {
  // Edges arrive in an order where greedy matching picks (2,3) first; the
  // augmenting step should swap it out for (1,2) and (3,4).
  SuspicionMonitorOptions opts;
  opts.policy = CandidatePolicy::kTreeDisjointEdges;
  opts.min_candidates = 2;
  SuspicionMonitor mon(13, 4, &misbehavior_, opts);
  auto two_way = [&](ReplicaId a, ReplicaId b, uint64_t round) {
    mon.OnSuspicion(Slow(a, b, round, PhaseTag::kProposal), true);
    mon.OnSuspicion(False(b, a, round), true);
  };
  two_way(2, 3, 1);
  two_way(1, 2, 2);
  two_way(3, 4, 3);
  EXPECT_EQ(mon.disjoint_edges().size(), 2u);
  EXPECT_EQ(mon.Current().u, 2u);
  for (ReplicaId v : {1, 2, 3, 4}) {
    EXPECT_FALSE(mon.Current().Contains(v)) << v;
  }
}

}  // namespace
}  // namespace optilog
