// Property tests for the paper's correctness claims (Appendices C and D):
//
//   C1  — always >= n - f candidates (MIS policy),
//   CT1 — always enough candidates for a tree (tree policy, n >= 13),
//   CT4 — after GST at most 2t reconfigurations to a correct tree,
//
// exercised against an adversary that drives the suspicion process.
#include <gtest/gtest.h>

#include <set>

#include "src/core/misbehavior_monitor.h"
#include "src/core/suspicion_monitor.h"
#include "src/tree/kauri.h"
#include "src/tree/topology.h"
#include "src/util/rng.h"

namespace optilog {
namespace {

struct AdversaryParams {
  uint32_t n;
  uint32_t f;        // tolerated faults
  uint32_t t;        // actual faults (t <= f)
  uint64_t seed;
};

// Simulates the post-GST suspicion process: the harness builds trees from
// the monitor's candidate set; whenever a tree has a faulty internal node,
// that node disrupts the round and gets (correctly) suspected by one of its
// neighbors — or itself raises a false suspicion against a correct internal.
// Counts reconfigurations until a tree with all-correct internals appears.
uint32_t ReconfigsUntilCorrectTree(const AdversaryParams& p) {
  Rng rng(p.seed);
  std::set<ReplicaId> faulty;
  while (faulty.size() < p.t) {
    faulty.insert(static_cast<ReplicaId>(rng.Below(p.n)));
  }

  KeyStore keys(p.n, p.seed);
  MisbehaviorMonitor misbehavior(p.n, &keys);
  SuspicionMonitorOptions opts;
  opts.policy = CandidatePolicy::kTreeDisjointEdges;
  opts.min_candidates = BranchFactorFor(p.n) + 1;
  SuspicionMonitor monitor(p.n, p.f, &misbehavior, opts);

  uint64_t round = 1;
  for (uint32_t reconfig = 0;; ++reconfig) {
    EXPECT_LE(reconfig, 2 * p.t) << "CT4 violated (n=" << p.n << ", t=" << p.t
                                 << ", seed=" << p.seed << ")";
    if (reconfig > 2 * p.t) {
      return reconfig;  // already failed the assertion; stop looping
    }
    // Build a tree from the candidate set (internal roles from K).
    std::vector<ReplicaId> pool = monitor.Current().candidates;
    const uint32_t internals_needed = BranchFactorFor(p.n) + 1;
    EXPECT_GE(pool.size(), internals_needed) << "CT1 violated";
    rng.Shuffle(pool);
    pool.resize(internals_needed);
    std::vector<ReplicaId> leaves;
    for (ReplicaId id = 0; id < p.n; ++id) {
      if (std::find(pool.begin(), pool.end(), id) == pool.end()) {
        leaves.push_back(id);
      }
    }
    const TreeTopology tree = TreeTopology::Build(pool, leaves);

    // Is this tree correct (all internals correct)?
    std::vector<ReplicaId> bad_internals;
    for (ReplicaId id : tree.Internals()) {
      if (faulty.count(id) > 0) {
        bad_internals.push_back(id);
      }
    }
    if (bad_internals.empty()) {
      return reconfig;
    }

    // The tree fails. The adversary chooses its most confusing option:
    // a faulty internal raises a false suspicion against a correct internal
    // if it can, otherwise a correct neighbor suspects the disruptor.
    const ReplicaId disruptor = bad_internals[rng.Below(bad_internals.size())];
    ReplicaId correct_internal = kNoReplica;
    for (ReplicaId id : tree.Internals()) {
      if (faulty.count(id) == 0) {
        correct_internal = id;
        break;
      }
    }
    ReplicaId accuser, accused;
    if (correct_internal != kNoReplica && rng.Bernoulli(0.5)) {
      accuser = disruptor;  // false suspicion against a correct replica
      accused = correct_internal;
    } else {
      accuser = correct_internal != kNoReplica ? correct_internal : tree.root();
      accused = disruptor;
      if (accuser == accused) {
        accuser = tree.Internals()[0];
      }
    }
    SuspicionRecord slow;
    slow.type = SuspicionType::kSlow;
    slow.suspector = accuser;
    slow.suspect = accused;
    slow.round = round;
    slow.phase = PhaseTag::kProposal;
    monitor.OnSuspicion(slow, true);
    // After GST correct replicas always reciprocate; faulty ones do too here
    // (silence would land them in C even faster).
    SuspicionRecord reciprocal;
    reciprocal.type = SuspicionType::kFalse;
    reciprocal.suspector = accused;
    reciprocal.suspect = accuser;
    reciprocal.round = round;
    reciprocal.phase = PhaseTag::kProposal;
    monitor.OnSuspicion(reciprocal, true);
    ++round;
  }
}

class Ct4Sweep : public ::testing::TestWithParam<int> {};

TEST_P(Ct4Sweep, AtMost2tReconfigurations) {
  const uint64_t seed = GetParam();
  for (uint32_t n : {13u, 21u, 43u, 57u}) {
    const uint32_t f = (n - 1) / 3;
    for (uint32_t t : {1u, 2u, f / 2, f}) {
      if (t == 0 || t > f) {
        continue;
      }
      const uint32_t reconfigs =
          ReconfigsUntilCorrectTree({n, f, t, seed * 97 + n * 13 + t});
      EXPECT_LE(reconfigs, 2 * t) << "n=" << n << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Ct4Sweep, ::testing::Range(1, 11));

TEST(Theorems, Ct1EnoughCandidatesUnderSaturation) {
  // Thm D.1: even when the adversary floods suspicions, enough candidates
  // remain to pick sqrt(n) + 1 internal nodes (n >= 13).
  for (uint32_t n : {13u, 21u, 43u}) {
    const uint32_t f = (n - 1) / 3;
    KeyStore keys(n, 4);
    MisbehaviorMonitor misbehavior(n, &keys);
    SuspicionMonitorOptions opts;
    opts.policy = CandidatePolicy::kTreeDisjointEdges;
    opts.min_candidates = BranchFactorFor(n) + 1;
    SuspicionMonitor monitor(n, f, &misbehavior, opts);
    Rng rng(n);
    for (int i = 0; i < 200; ++i) {
      SuspicionRecord slow;
      slow.type = SuspicionType::kSlow;
      slow.suspector = static_cast<ReplicaId>(rng.Below(n));
      slow.suspect = static_cast<ReplicaId>(rng.Below(n));
      slow.round = 100 + i;
      slow.phase = PhaseTag::kProposal;
      monitor.OnSuspicion(slow, true);
      ASSERT_GE(monitor.Current().candidates.size(), BranchFactorFor(n) + 1)
          << "n=" << n << " after " << i;
    }
  }
}

}  // namespace
}  // namespace optilog
