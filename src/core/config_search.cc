#include "src/core/config_search.h"

#include <cmath>

namespace optilog {
namespace {

// Required relative improvement before replacing a *valid* configuration
// (hysteresis against churn): the new score must be <= 90% of the current.
constexpr double kImprovementFactor = 0.9;
// Tolerance when re-checking a proposer's claimed score (floating-point
// slack only; a real mismatch marks the proposer as lying).
constexpr double kScoreTolerance = 1e-6;

}  // namespace

std::optional<ConfigProposalRecord> ConfigSensor::Search(
    const CandidateSet& candidates, const LatencyMatrix& latency,
    const AnnealingParams& params) {
  if (candidates.candidates.empty()) {
    return std::nullopt;
  }
  RoleConfig initial = space_->RandomConfig(candidates, rng_);
  if (!space_->Valid(initial, candidates)) {
    return std::nullopt;
  }
  auto score = [&](const RoleConfig& cfg) {
    return space_->Score(cfg, latency, candidates.u);
  };
  auto mutate = [&](const RoleConfig& cfg, Rng& rng) {
    return space_->Mutate(cfg, candidates, rng);
  };
  const AnnealingResult<RoleConfig> result =
      SimulatedAnnealing(std::move(initial), score, mutate, rng_, params);

  ConfigProposalRecord rec;
  rec.proposer = self_;
  rec.epoch = candidates.epoch;
  rec.predicted_score = result.best_score;
  rec.config = result.best;
  return rec;
}

ConfigMonitor::ConfigMonitor(uint32_t n, uint32_t f, const ConfigSpace* space,
                             const LatencyMonitor* latency,
                             const SuspicionMonitor* suspicion,
                             ReconfigureFn reconfigure)
    : n_(n),
      f_(f),
      space_(space),
      latency_(latency),
      suspicion_(suspicion),
      reconfigure_(std::move(reconfigure)) {}

void ConfigMonitor::SetActive(const RoleConfig& config, double score) {
  active_ = config;
  active_score_ = score;
  have_active_ = true;
  active_valid_ = space_->Valid(active_, suspicion_->Current());
}

void ConfigMonitor::OnCandidateUpdate() {
  const CandidateSet& k = suspicion_->Current();
  if (have_active_) {
    active_valid_ = space_->Valid(active_, k);
  }
  if (k.epoch != proposals_epoch_) {
    // Stale proposals were searched against an outdated candidate set; a
    // deterministic flush keeps all replicas in lockstep.
    proposals_.clear();
    proposals_epoch_ = k.epoch;
  }
  MaybeReconfigure();
}

void ConfigMonitor::OnConfigProposal(const ConfigProposalRecord& rec,
                                     bool sig_valid) {
  if (!sig_valid || rec.proposer >= n_) {
    return;
  }
  const CandidateSet& k = suspicion_->Current();
  if (rec.epoch != k.epoch) {
    return;  // searched against a stale candidate set
  }
  if (!space_->Valid(rec.config, k)) {
    return;  // assigns special roles outside K
  }
  // Accountability: recompute the score from the shared matrices. The
  // proposal is only as good as its *recomputed* score; a proposer whose
  // claim deviates is recorded as lying (its proposal still competes with
  // the true score).
  const double actual = space_->Score(rec.config, latency_->matrix(), k.u);
  if (std::abs(actual - rec.predicted_score) >
      kScoreTolerance * std::max(1.0, std::abs(actual))) {
    lying_.insert(rec.proposer);
  }
  ConfigProposalRecord verified = rec;
  verified.predicted_score = actual;

  auto it = proposals_.find(rec.proposer);
  if (it == proposals_.end() || verified.predicted_score < it->second.predicted_score) {
    proposals_[rec.proposer] = std::move(verified);
  }
  MaybeReconfigure();
}

void ConfigMonitor::MaybeReconfigure() {
  if (proposals_.empty()) {
    return;
  }
  // Best proposal: lowest score; ties broken by proposer id (map order).
  const ConfigProposalRecord* best = nullptr;
  for (const auto& [proposer, rec] : proposals_) {
    if (best == nullptr || rec.predicted_score < best->predicted_score) {
      best = &rec;
    }
  }

  bool fire = false;
  if (!have_active_ || !active_valid_) {
    // Forced reconfiguration: wait for f + 1 proposers so a faulty replica
    // cannot rush the system into its own suboptimal configuration (§4.2.4).
    fire = proposals_.size() >= f_ + 1;
  } else {
    // Voluntary: only for significantly better configurations.
    fire = best->predicted_score <= kImprovementFactor * active_score_;
  }
  if (!fire || best == nullptr) {
    return;
  }
  if (have_active_ && active_valid_ && best->config == active_) {
    return;
  }
  active_ = best->config;
  active_score_ = best->predicted_score;
  active_valid_ = true;
  have_active_ = true;
  ++reconfigurations_;
  proposals_.clear();
  reconfigure_(active_, active_score_);
}

}  // namespace optilog
