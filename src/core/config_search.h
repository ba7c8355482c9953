// ConfigSensor and ConfigMonitor (§4.2.4).
//
// The ConfigSensor *searches* — non-deterministically, with the
// protocol-provided ConfigSpace's simulated-annealing Search — and proposes
// its best configuration to the log. The ConfigMonitor *decides* —
// deterministically, from committed proposals: it validates each proposal
// against the current candidate set, re-computes its score (accountability:
// a lying proposer is caught because metrics are consistent across
// replicas), waits for f + 1 distinct proposers when a reconfiguration is
// forced, and triggers the reconfigure callback with the best-scoring valid
// configuration.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "src/core/annealing.h"
#include "src/core/latency_monitor.h"
#include "src/core/measurement.h"
#include "src/core/suspicion_monitor.h"

namespace optilog {

// A configuration and its Score.
struct ScoredConfig {
  RoleConfig config;
  double score = 0.0;
};

// Protocol-specific search space: how the best configuration is searched
// for, validated and scored. Score units are milliseconds of predicted round
// duration (lower is better).
class ConfigSpace {
 public:
  virtual ~ConfigSpace() = default;

  // One search: the best valid configuration found over the candidate set,
  // scored at its fault estimate u, with its Score; nullopt when none
  // exists. Special roles stay inside K (§4.2.4: "our mutate function
  // ensures that replicas with special roles are only swapped with other
  // replicas from K").
  virtual std::optional<ScoredConfig> Search(const CandidateSet& candidates,
                                             const LatencyMatrix& latency, Rng& rng,
                                             const AnnealingParams& params) const = 0;

  virtual double Score(const RoleConfig& config, const LatencyMatrix& latency,
                       uint32_t u) const = 0;

  // Valid == all special roles are held by candidates (§4.2.4).
  virtual bool Valid(const RoleConfig& config, const CandidateSet& candidates) const = 0;
};

class ConfigSensor {
 public:
  ConfigSensor(ReplicaId self, const ConfigSpace* space, Rng rng)
      : self_(self), space_(space), rng_(rng) {}

  // Runs one search and returns the proposal record to submit via the
  // sensor app. Returns nullopt when no valid configuration exists.
  std::optional<ConfigProposalRecord> Search(const CandidateSet& candidates,
                                             const LatencyMatrix& latency,
                                             const AnnealingParams& params = {});

 private:
  const ReplicaId self_;
  const ConfigSpace* space_;
  Rng rng_;
};

class ConfigMonitor {
 public:
  using ReconfigureFn = std::function<void(const RoleConfig&, double score)>;

  ConfigMonitor(uint32_t n, uint32_t f, const ConfigSpace* space,
                const LatencyMonitor* latency, const SuspicionMonitor* suspicion,
                ReconfigureFn reconfigure);

  // Committed config proposal. Deterministic across replicas.
  void OnConfigProposal(const ConfigProposalRecord& rec, bool sig_valid);

  // Candidate-set changes may invalidate the active configuration.
  void OnCandidateUpdate();

  void SetActive(const RoleConfig& config, double score);
  const RoleConfig& active() const { return active_; }
  double active_score() const { return active_score_; }
  bool active_valid() const { return active_valid_; }
  uint64_t reconfigurations() const { return reconfigurations_; }
  size_t pending_proposals() const { return proposals_.size(); }

  // Proposers caught claiming scores that do not reproduce.
  const std::set<ReplicaId>& lying_proposers() const { return lying_; }

 private:
  void MaybeReconfigure();

  const uint32_t n_;
  const uint32_t f_;
  const ConfigSpace* space_;
  const LatencyMonitor* latency_;
  const SuspicionMonitor* suspicion_;
  ReconfigureFn reconfigure_;

  RoleConfig active_;
  double active_score_ = 0.0;
  bool active_valid_ = false;
  bool have_active_ = false;

  // Best valid proposal per proposer for the current epoch.
  std::map<ReplicaId, ConfigProposalRecord> proposals_;
  uint64_t proposals_epoch_ = 0;
  std::set<ReplicaId> lying_;
  uint64_t reconfigurations_ = 0;
};

}  // namespace optilog
