// Ablation study: which of OptiLog's mechanisms buys what. Three scenarios,
// one per question, so they list/filter/parallelize independently:
//
//   ablation_candidate_policy — maximum independent set (§4.2.3) vs the
//       E_d/T disjoint-edge machinery (§6.4), measured as reconfigurations
//       until a correct tree under the CT4 adversary. The MIS policy admits
//       Omega(f^2)-style behavior [39]; E_d/T is bounded by 2t.
//   ablation_u_estimate — tree latency when the score budgets for the
//       *actual* estimate u vs the worst case f (what Kauri-sa must do).
//   ablation_cooling — budget-scaled cooling vs a fixed rate, which is
//       greedy after ~2,000 iterations. Both means fall with budget; the
//       fixed rate's greedy tail ends lower at 5,000 and 20,000 iterations.
#include <set>

#include "bench/scenarios/common.h"
#include "src/core/misbehavior_monitor.h"
#include "src/core/suspicion_monitor.h"
#include "src/tree/kauri.h"
#include "src/tree/tree_score.h"
#include "src/util/stats.h"

namespace optilog {
namespace {

// --- ablation_candidate_policy ----------------------------------------------

uint32_t ReconfigsUntilCorrect(CandidatePolicy policy, uint32_t n, uint32_t t,
                               uint64_t seed) {
  const uint32_t f = (n - 1) / 3;
  Rng rng(seed);
  std::set<ReplicaId> faulty;
  while (faulty.size() < t) {
    faulty.insert(static_cast<ReplicaId>(rng.Below(n)));
  }
  KeyStore keys(n, seed);
  MisbehaviorMonitor misbehavior(n, &keys);
  SuspicionMonitorOptions opts;
  opts.policy = policy;
  opts.min_candidates = BranchFactorFor(n) + 1;
  SuspicionMonitor monitor(n, f, &misbehavior, opts);

  uint64_t round = 1;
  for (uint32_t reconfig = 0; reconfig < 10 * f; ++reconfig) {
    std::vector<ReplicaId> pool = monitor.Current().candidates;
    rng.Shuffle(pool);
    const uint32_t internals = BranchFactorFor(n) + 1;
    if (pool.size() < internals) {
      return 10 * f;  // policy starved the candidate set
    }
    pool.resize(internals);
    bool correct = true;
    ReplicaId disruptor = kNoReplica, witness = kNoReplica;
    for (ReplicaId id : pool) {
      (faulty.count(id) > 0 ? disruptor : witness) = id;
      correct = correct && faulty.count(id) == 0;
    }
    if (correct) {
      return reconfig;
    }
    // Adversarial suspicion: half the time the disruptor smears a correct
    // internal instead of being accused itself.
    ReplicaId accuser = witness != kNoReplica ? witness : pool[0];
    ReplicaId accused = disruptor;
    if (witness != kNoReplica && rng.Bernoulli(0.5)) {
      std::swap(accuser, accused);
    }
    SuspicionRecord slow;
    slow.type = SuspicionType::kSlow;
    slow.suspector = accuser;
    slow.suspect = accused;
    slow.round = round;
    slow.phase = PhaseTag::kProposal;
    monitor.OnSuspicion(slow, true);
    SuspicionRecord reciprocal;
    reciprocal.type = SuspicionType::kFalse;
    reciprocal.suspector = accused;
    reciprocal.suspect = accuser;
    reciprocal.round = round;
    reciprocal.phase = PhaseTag::kProposal;
    monitor.OnSuspicion(reciprocal, true);
    ++round;
  }
  return 10 * ((n - 1) / 3);
}

PointResult RunPolicyPoint(const Params& p) {
  const uint32_t n = static_cast<uint32_t>(p.GetInt("n"));
  const uint32_t f = (n - 1) / 3;
  const uint32_t t = p.Get("t") == "f" ? f : f / 2;
  const CandidatePolicy policy = p.Get("policy") == "mis"
                                     ? CandidatePolicy::kMaxIndependentSet
                                     : CandidatePolicy::kTreeDisjointEdges;
  RunningStat stat;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    stat.Add(ReconfigsUntilCorrect(policy, n, t, 1000 + seed));
  }
  PointResult pr;
  pr.rows.push_back({std::to_string(n), std::to_string(t), p.Get("policy"),
                     Fixed(stat.mean(), 1), Fixed(stat.ci95(), 1),
                     std::to_string(2 * t)});
  pr.metrics = {{"reconfigs_mean", stat.mean()},
                {"reconfigs_ci95", stat.ci95()}};
  return pr;
}

Scenario MakePolicy() {
  Scenario s;
  s.name = "ablation_candidate_policy";
  s.description =
      "Reconfigurations until a correct tree: MIS policy vs E_d/T under the "
      "CT4 adversary (bound: 2t)";
  s.tags = {"ablation", "sweep"};
  s.columns = {"n", "t", "policy", "reconfigs_mean", "reconfigs_ci95",
               "bound_2t"};
  s.grid = {{"n", {"21", "43", "91"}},
            {"t", {"f/2", "f"}},
            {"policy", {"mis", "edt"}}};
  s.run = RunPolicyPoint;
  return s;
}

// --- ablation_u_estimate ------------------------------------------------------

PointResult RunUEstimatePoint(const Params& p) {
  const uint32_t n = static_cast<uint32_t>(p.GetInt("n"));
  const LatencyMatrix matrix = MatrixFromCities(GlobalN(n, 909090));
  const uint32_t f = (n - 1) / 3;
  const uint32_t q = n - f;
  const uint32_t u = f / 8;  // few actual misbehavers
  std::vector<ReplicaId> all(n);
  for (ReplicaId id = 0; id < n; ++id) {
    all[id] = id;
  }
  const AnnealingParams params = ParamsForSearchSeconds(1.0);
  RunningStat with_u, with_f;
  for (int run = 0; run < 10; ++run) {
    Rng rng(n * 31 + run);
    const TreeTopology tu = AnnealTree(n, all, matrix, q + u, rng, params);
    with_u.Add(TreeScore(tu, matrix, q + u) / 1000.0);
    const TreeTopology tf = AnnealTree(n, all, matrix, q + f, rng, params);
    with_f.Add(TreeScore(tf, matrix, q + f) / 1000.0);
  }
  const double penalty_pct = 100.0 * (with_f.mean() / with_u.mean() - 1.0);

  PointResult pr;
  pr.rows.push_back({std::to_string(n), std::to_string(u),
                     Fixed(with_u.mean(), 3), Fixed(with_f.mean(), 3),
                     Fixed(penalty_pct, 0)});
  pr.metrics = {{"score_u_mean", with_u.mean()},
                {"score_f_mean", with_f.mean()},
                {"penalty_pct", penalty_pct}};
  return pr;
}

Scenario MakeUEstimate() {
  Scenario s;
  s.name = "ablation_u_estimate";
  s.description =
      "Tree latency budgeting for the actual u estimate vs the worst case f "
      "(§4.2.4's adaptivity claim)";
  s.tags = {"ablation", "sweep"};
  s.columns = {"n", "u", "score_u_s", "score_f_s", "penalty_pct"};
  s.grid = {{"n", {"57", "111", "211"}}};
  s.run = RunUEstimatePoint;
  return s;
}

// --- ablation_cooling ---------------------------------------------------------

PointResult RunCoolingPoint(const Params& p) {
  const uint64_t budget = static_cast<uint64_t>(p.GetInt("budget"));
  const uint32_t n = 211, f = 70, k = n - f;
  const LatencyMatrix matrix = MatrixFromCities(GlobalN(n, 787878));
  std::vector<ReplicaId> all(n);
  for (ReplicaId id = 0; id < n; ++id) {
    all[id] = id;
  }
  RunningStat scaled, fixed;
  for (int run = 0; run < 10; ++run) {
    Rng r1(run), r2(run);
    scaled.Add(TreeScore(AnnealTree(n, all, matrix, k, r1,
                                    AnnealingParams::ForBudget(budget)),
                         matrix, k) /
               1000.0);
    AnnealingParams fixed_params;
    fixed_params.max_iterations = budget;
    fixed_params.min_temperature = 0;
    fixed.Add(
        TreeScore(AnnealTree(n, all, matrix, k, r2, fixed_params), matrix, k) /
        1000.0);
  }

  PointResult pr;
  pr.rows.push_back({std::to_string(budget), Fixed(scaled.mean(), 3),
                     Fixed(scaled.ci95(), 3), Fixed(fixed.mean(), 3),
                     Fixed(fixed.ci95(), 3)});
  pr.metrics = {{"scaled_s_mean", scaled.mean()},
                {"fixed_s_mean", fixed.mean()}};
  return pr;
}

Scenario MakeCooling() {
  Scenario s;
  s.name = "ablation_cooling";
  s.description =
      "Budget-scaled vs fixed-rate SA cooling (n=211): both means fall with "
      "budget";
  s.tags = {"ablation", "sweep", "tier1"};
  s.columns = {"budget", "scaled_s_mean", "scaled_s_ci95", "fixed_s_mean",
               "fixed_s_ci95"};
  s.grid = {{"budget", {"1250", "5000", "20000"}}};
  s.run = RunCoolingPoint;
  return s;
}

const ScenarioRegistrar reg_policy(MakePolicy());
const ScenarioRegistrar reg_u(MakeUEstimate());
const ScenarioRegistrar reg_cooling(MakeCooling());

}  // namespace
}  // namespace optilog
