#include <gtest/gtest.h>

#include "src/core/annealing.h"
#include "src/core/config_search.h"
#include "src/core/pipeline.h"
#include "src/core/suspicion_sensor.h"
#include "src/tree/tree_space.h"
#include "tests/test_support.h"

namespace optilog {
namespace {

// --- SuspicionSensor -------------------------------------------------------

class SensorTest : public ::testing::Test {
 protected:
  SensorTest()
      : sensor_(0, /*delta=*/1.5,
                [this](const SuspicionRecord& rec) { emitted_.push_back(rec); }) {}

  SuspicionSensor sensor_;
  std::vector<SuspicionRecord> emitted_;
};

TEST_F(SensorTest, ConditionA_DelayedProposalTimestamp) {
  // d_rnd = 100 ms; delta = 1.5 -> allowed gap 150 ms.
  sensor_.OnProposalTimestamp(1, /*leader=*/3, 0, FromMs(100));
  sensor_.OnProposalTimestamp(2, 3, FromMs(140), FromMs(100));
  EXPECT_TRUE(emitted_.empty());
  sensor_.OnProposalTimestamp(3, 3, FromMs(140) + FromMs(200), FromMs(100));
  ASSERT_EQ(emitted_.size(), 1u);
  EXPECT_EQ(emitted_[0].suspect, 3u);
  EXPECT_EQ(static_cast<int>(emitted_[0].type), static_cast<int>(SuspicionType::kSlow));
  EXPECT_EQ(static_cast<int>(emitted_[0].phase), static_cast<int>(PhaseTag::kProposal));
}

TEST_F(SensorTest, ObserveArrivalRetrospective) {
  sensor_.ObserveArrival(1, 4, PhaseTag::kProposal, FromMs(30), FromMs(0),
                         FromMs(44));  // deadline 45: on time
  EXPECT_TRUE(emitted_.empty());
  sensor_.ObserveArrival(2, 4, PhaseTag::kProposal, FromMs(30), FromMs(0),
                         FromMs(46));  // late
  ASSERT_EQ(emitted_.size(), 1u);
  EXPECT_EQ(emitted_[0].round, 2u);
}

TEST_F(SensorTest, ConditionC_Reciprocation) {
  SuspicionRecord against_self;
  against_self.type = SuspicionType::kSlow;
  against_self.suspector = 7;
  against_self.suspect = 0;  // us
  against_self.round = 3;
  sensor_.OnSuspicionAgainstSelf(against_self);
  ASSERT_EQ(emitted_.size(), 1u);
  EXPECT_EQ(static_cast<int>(emitted_[0].type), static_cast<int>(SuspicionType::kFalse));
  EXPECT_EQ(emitted_[0].suspect, 7u);
  // Repeated accusations from the same replica reciprocate once.
  sensor_.OnSuspicionAgainstSelf(against_self);
  EXPECT_EQ(emitted_.size(), 1u);
}

TEST_F(SensorTest, NoSelfSuspicionAndPerRoundDedup) {
  // Deadlines 10 + 1.5 * 40 = 70 ms; every arrival below is late.
  sensor_.ObserveArrival(1, /*from=*/0, PhaseTag::kFirstVote, FromMs(40), FromMs(10),
                         FromMs(100));  // our own vote: never suspected
  EXPECT_TRUE(emitted_.empty());
  sensor_.ObserveArrival(1, 5, PhaseTag::kFirstVote, FromMs(40), FromMs(10), FromMs(100));
  sensor_.ObserveArrival(1, 5, PhaseTag::kSecondVote, FromMs(40), FromMs(10), FromMs(100));
  ASSERT_EQ(emitted_.size(), 1u);  // one Slow per (round, suspect)
  EXPECT_EQ(emitted_[0].suspect, 5u);
  sensor_.ObserveArrival(2, 5, PhaseTag::kFirstVote, FromMs(40), FromMs(10), FromMs(100));
  EXPECT_EQ(emitted_.size(), 2u);  // a new round suspects again
}

TEST_F(SensorTest, GarbageCollectDropsOldRounds) {
  auto late = [this](uint64_t round) {
    sensor_.ObserveArrival(round, 5, PhaseTag::kFirstVote, FromMs(40), FromMs(10),
                           FromMs(100));
  };
  late(1);
  late(2);
  ASSERT_EQ(emitted_.size(), 2u);
  sensor_.GarbageCollect(1);
  late(1);  // round 1's dedup entry is gone: suspected again
  late(2);  // round 2's survives: still deduplicated
  ASSERT_EQ(emitted_.size(), 3u);
  EXPECT_EQ(emitted_[2].round, 1u);
}

// --- Simulated annealing ---------------------------------------------------

TEST(Annealing, FindsMinimumOfConvexProblem) {
  Rng rng(3);
  auto score = [](int x) { return static_cast<double>((x - 17) * (x - 17)) + 1.0; };
  auto mutate = [](int x, Rng& r) {
    return x + static_cast<int>(r.Range(-3, 3));
  };
  AnnealingParams params;
  params.max_iterations = 5000;
  const auto result = SimulatedAnnealing(100, score, mutate, rng, params);
  EXPECT_EQ(result.best, 17);
  EXPECT_DOUBLE_EQ(result.best_score, 1.0);
}

TEST(Annealing, RespectsIterationBudget) {
  Rng rng(3);
  auto score = [](int x) { return static_cast<double>(x); };
  auto mutate = [](int x, Rng&) { return x; };
  AnnealingParams params;
  params.max_iterations = 100;
  params.cooling_rate = 1.0;  // never converges by temperature
  const auto result = SimulatedAnnealing(5, score, mutate, rng, params);
  EXPECT_EQ(result.iterations, 100u);
  EXPECT_FALSE(result.converged);
}

TEST(Annealing, ConvergesByTemperature) {
  Rng rng(3);
  auto score = [](int x) { return static_cast<double>(x * x) + 1.0; };
  auto mutate = [](int x, Rng& r) { return x + static_cast<int>(r.Range(-1, 1)); };
  AnnealingParams params;
  params.max_iterations = 1'000'000;
  params.cooling_rate = 0.9;
  const auto result = SimulatedAnnealing(10, score, mutate, rng, params);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 1000u);
}

TEST(Annealing, MoreIterationsNeverWorse) {
  // Best-so-far is monotone in the budget for a fixed seed.
  auto score = [](int x) { return std::abs(static_cast<double>(x)) + 1.0; };
  auto mutate = [](int x, Rng& r) { return x + static_cast<int>(r.Range(-2, 2)); };
  double prev = 1e18;
  for (uint64_t budget : {10u, 100u, 1000u}) {
    Rng rng(9);
    AnnealingParams params;
    params.max_iterations = budget;
    params.min_temperature = 0;
    const auto result = SimulatedAnnealing(1000, score, mutate, rng, params);
    EXPECT_LE(result.best_score, prev);
    prev = result.best_score;
  }
}

// --- ConfigSensor / ConfigMonitor -------------------------------------------

class ConfigTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kN = 13, kF = 4;

  ConfigTest() : keys_(kN, 2), misbehavior_(kN, &keys_), space_(kN, 2 * kF + 1) {
    SuspicionMonitorOptions opts;
    opts.policy = CandidatePolicy::kTreeDisjointEdges;
    opts.min_candidates = BranchFactorFor(kN) + 1;
    suspicion_ = std::make_unique<SuspicionMonitor>(kN, kF, &misbehavior_, opts);
    latency_ = std::make_unique<LatencyMonitor>(kN);
    // Full matrix: RTT = 10 + |a - b| ms.
    for (ReplicaId a = 0; a < kN; ++a) {
      LatencyVectorRecord rec;
      rec.reporter = a;
      rec.rtt_units.resize(kN);
      for (ReplicaId b = 0; b < kN; ++b) {
        rec.rtt_units[b] =
            a == b ? 0 : EncodeRttMs(10.0 + std::abs(int(a) - int(b)));
      }
      latency_->OnLatencyVector(rec);
    }
    monitor_ = std::make_unique<ConfigMonitor>(
        kN, kF, &space_, latency_.get(), suspicion_.get(),
        [this](const RoleConfig& cfg, double score) {
          adopted_.push_back({cfg, score});
        });
  }

  ConfigProposalRecord MakeProposal(ReplicaId proposer, uint64_t seed) {
    ConfigSensor sensor(proposer, &space_, Rng(seed));
    AnnealingParams params;
    params.max_iterations = 300;
    auto rec = sensor.Search(suspicion_->Current(), latency_->matrix(), params);
    EXPECT_TRUE(rec.has_value());
    return *rec;
  }

  KeyStore keys_;
  MisbehaviorMonitor misbehavior_;
  TreeConfigSpace space_;
  std::unique_ptr<SuspicionMonitor> suspicion_;
  std::unique_ptr<LatencyMonitor> latency_;
  std::unique_ptr<ConfigMonitor> monitor_;
  std::vector<std::pair<RoleConfig, double>> adopted_;
};

TEST_F(ConfigTest, SensorProducesValidProposals) {
  const auto rec = MakeProposal(1, 11);
  EXPECT_TRUE(space_.Valid(rec.config, suspicion_->Current()));
  const double actual =
      space_.Score(rec.config, latency_->matrix(), suspicion_->Current().u);
  EXPECT_NEAR(rec.predicted_score, actual, 1e-9);
}

TEST_F(ConfigTest, ForcedReconfigWaitsForFPlusOneProposers) {
  // No active config -> forced path: needs f + 1 = 5 distinct proposers.
  for (uint32_t i = 0; i < kF; ++i) {
    monitor_->OnConfigProposal(MakeProposal(i, 100 + i), true);
    EXPECT_TRUE(adopted_.empty()) << "fired after only " << i + 1 << " proposals";
  }
  monitor_->OnConfigProposal(MakeProposal(kF, 100 + kF), true);
  ASSERT_EQ(adopted_.size(), 1u);
  EXPECT_TRUE(space_.Valid(adopted_[0].first, suspicion_->Current()));
}

TEST_F(ConfigTest, DuplicateProposerDoesNotCount) {
  for (int i = 0; i < 10; ++i) {
    monitor_->OnConfigProposal(MakeProposal(0, 200 + i), true);
  }
  EXPECT_TRUE(adopted_.empty());
}

TEST_F(ConfigTest, VoluntaryReconfigNeedsBigImprovement) {
  // Adopt an initial config; a marginally better proposal must NOT fire.
  const auto first = MakeProposal(0, 1);
  monitor_->SetActive(first.config, first.predicted_score);
  ConfigProposalRecord marginal = MakeProposal(1, 2);
  if (marginal.predicted_score <= 0.9 * first.predicted_score) {
    GTEST_SKIP() << "random search happened to find a >10% better tree";
  }
  monitor_->OnConfigProposal(marginal, true);
  EXPECT_TRUE(adopted_.empty());
}

TEST_F(ConfigTest, LyingProposerDetected) {
  ConfigProposalRecord rec = MakeProposal(2, 3);
  rec.predicted_score *= 0.5;  // claim an impossibly good score
  monitor_->OnConfigProposal(rec, true);
  EXPECT_TRUE(monitor_->lying_proposers().count(2) > 0);
}

TEST_F(ConfigTest, StaleEpochProposalsRejected) {
  ConfigProposalRecord rec = MakeProposal(0, 4);
  rec.epoch += 10;
  monitor_->OnConfigProposal(rec, true);
  for (uint32_t i = 1; i <= kF; ++i) {
    monitor_->OnConfigProposal(MakeProposal(i, 40 + i), true);
  }
  // The stale one never counted: only f valid proposers so far.
  EXPECT_TRUE(adopted_.empty());
}

TEST_F(ConfigTest, InvalidConfigRejected) {
  // Make replica 3 provably faulty, then propose a tree rooted at it.
  SignedHeader bad;
  bad.view = 1;
  bad.digest = Sha256::Hash(std::string("q"));
  bad.sig = ForgedSignature(3);
  ComplaintRecord complaint;
  complaint.accuser = 0;
  complaint.accused = 3;
  complaint.kind = MisbehaviorKind::kInvalidSignature;
  complaint.headers = {bad};
  misbehavior_.OnComplaint(complaint, true);
  suspicion_->Recompute();

  ConfigProposalRecord rec = MakeProposal(0, 5);
  TreeTopology t = TreeTopology::FromConfig(rec.config);
  // Force 3 into the root slot.
  std::vector<ReplicaId> internals = t.Internals();
  if (std::find(internals.begin(), internals.end(), 3) == internals.end()) {
    internals[0] = 3;
  }
  std::vector<ReplicaId> leaves;
  for (ReplicaId id = 0; id < kN; ++id) {
    if (std::find(internals.begin(), internals.end(), id) == leaves.end() &&
        std::find(internals.begin(), internals.end(), id) == internals.end()) {
      leaves.push_back(id);
    }
  }
  rec.config = TreeTopology::Build(internals, leaves).ToConfig();
  rec.epoch = suspicion_->Current().epoch;
  monitor_->OnConfigProposal(rec, true);
  EXPECT_EQ(monitor_->pending_proposals(), 0u);
}

// --- Pipeline (the monitor side) ----------------------------------------------

// The tree candidate policy (§6.4), as the deployment configures it.
SuspicionMonitorOptions TreePolicy(uint32_t n) {
  SuspicionMonitorOptions opts;
  opts.policy = CandidatePolicy::kTreeDisjointEdges;
  opts.min_candidates = BranchFactorFor(n) + 1;
  return opts;
}

void CommitMeasurement(Pipeline& pipeline, const Bytes& payload, uint64_t index) {
  LogEntry e;
  e.index = index;
  e.kind = EntryKind::kMeasurement;
  e.payload = payload;
  pipeline.OnCommit(e);
}

// The paper's core consistency claim: monitors are deterministic functions
// of the committed log.
TEST(Pipeline, IdenticalCommitOrderYieldsIdenticalState) {
  constexpr uint32_t kN = 13, kF = 4;
  KeyStore keys(kN, 3);
  TreeConfigSpace space(kN, 2 * kF + 1);

  std::vector<std::unique_ptr<Pipeline>> replicas;
  for (uint32_t i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<Pipeline>(
        kN, kF, &keys, &space, [](const RoleConfig&, double) {}, TreePolicy(kN)));
  }

  // A shared committed sequence of measurements, including Byzantine noise.
  std::vector<Bytes> committed;
  for (ReplicaId a = 0; a < kN; ++a) {
    LatencyVectorRecord rec;
    rec.reporter = a;
    rec.rtt_units.resize(kN);
    for (ReplicaId b = 0; b < kN; ++b) {
      rec.rtt_units[b] = a == b ? 0 : EncodeRttMs(20.0 + (a * 7 + b * 3) % 11);
    }
    committed.push_back(MakeLatencyMeasurement(rec, keys).Encode());
  }
  SuspicionRecord s1;
  s1.type = SuspicionType::kSlow;
  s1.suspector = 2;
  s1.suspect = 9;
  s1.round = 1;
  committed.push_back(MakeSuspicionMeasurement(s1, keys).Encode());
  SuspicionRecord s2;
  s2.type = SuspicionType::kFalse;
  s2.suspector = 9;
  s2.suspect = 2;
  s2.round = 1;
  committed.push_back(MakeSuspicionMeasurement(s2, keys).Encode());
  // Unsigned garbage that must be ignored identically everywhere.
  committed.push_back(Bytes{0x02, 0x01, 0x00, 0x00, 0x00});

  for (auto& pipeline : replicas) {
    uint64_t index = 0;
    for (const Bytes& payload : committed) {
      CommitMeasurement(*pipeline, payload, index++);
    }
  }

  const auto& first = replicas[0]->suspicion_monitor().Current();
  for (auto& pipeline : replicas) {
    const auto& cur = pipeline->suspicion_monitor().Current();
    EXPECT_EQ(cur.candidates, first.candidates);
    EXPECT_EQ(cur.u, first.u);
    for (ReplicaId a = 0; a < kN; ++a) {
      for (ReplicaId b = 0; b < kN; ++b) {
        EXPECT_EQ(pipeline->latency_monitor().matrix().Rtt(a, b),
                  replicas[0]->latency_monitor().matrix().Rtt(a, b));
      }
    }
  }
}

// Config searches reach the monitor only as signed, committed proposals: f
// of them do not force a reconfiguration, a proposal signed by someone other
// than the proposer it names does not count, and the (f + 1)-th valid one
// does (§4.2.4).
TEST(Pipeline, ConfigSearchProposesThroughLog) {
  constexpr uint32_t kN = 13, kF = 4;
  KeyStore keys(kN, 3);
  TreeConfigSpace space(kN, 2 * kF + 1);
  std::vector<RoleConfig> adopted;
  Pipeline pipeline(
      kN, kF, &keys, &space,
      [&](const RoleConfig& cfg, double) { adopted.push_back(cfg); },
      TreePolicy(kN));

  // Fill the latency matrix through the log: RTT = 10 + |a - b| ms.
  uint64_t index = 0;
  for (ReplicaId a = 0; a < kN; ++a) {
    LatencyVectorRecord rec;
    rec.reporter = a;
    rec.rtt_units.resize(kN);
    for (ReplicaId b = 0; b < kN; ++b) {
      rec.rtt_units[b] =
          a == b ? 0 : EncodeRttMs(10.0 + std::abs(int(a) - int(b)));
    }
    CommitMeasurement(pipeline, MakeLatencyMeasurement(rec, keys).Encode(), index++);
  }
  auto search = [&](ReplicaId proposer) {
    ConfigSensor sensor(proposer, &space, Rng(100 + proposer));
    auto rec = sensor.Search(pipeline.suspicion_monitor().Current(),
                             pipeline.latency_monitor().matrix(),
                             AnnealingParams::ForBudget(200));
    EXPECT_TRUE(rec.has_value());
    return *rec;
  };

  for (ReplicaId proposer = 0; proposer < kF; ++proposer) {
    CommitMeasurement(pipeline, MakeConfigMeasurement(search(proposer), keys).Encode(),
                      index++);
    EXPECT_TRUE(adopted.empty()) << "fired after " << proposer + 1 << " proposals";
  }
  EXPECT_EQ(pipeline.config_monitor().pending_proposals(), kF);

  // Names replica kF as proposer but carries replica 0's valid signature.
  const ConfigProposalRecord last = search(kF);
  Bytes body;
  ByteWriter w(&body);
  last.Serialize(w);
  CommitMeasurement(pipeline,
                    Measurement::Make(MeasurementKind::kConfigProposal, body,
                                      /*reporter=*/0, keys)
                        .Encode(),
                    index++);
  EXPECT_TRUE(adopted.empty());
  EXPECT_EQ(pipeline.config_monitor().pending_proposals(), kF);

  CommitMeasurement(pipeline, MakeConfigMeasurement(last, keys).Encode(), index++);
  ASSERT_EQ(adopted.size(), 1u);
  EXPECT_EQ(pipeline.config_monitor().reconfigurations(), 1u);
  EXPECT_TRUE(space.Valid(adopted[0], pipeline.suspicion_monitor().Current()));
  EXPECT_EQ(pipeline.config_monitor().active(), adopted[0]);
}

}  // namespace
}  // namespace optilog
