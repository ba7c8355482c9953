#include "src/aware/aware_score.h"

#include <algorithm>
#include <limits>

#include "src/util/check.h"

namespace optilog {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

WeightScheme WeightScheme::For(uint32_t n, uint32_t f) {
  OL_CHECK(n >= 3 * f + 1);
  WeightScheme s;
  s.n = n;
  s.f = f;
  const uint32_t delta = n - (3 * f + 1);
  s.v_min = 1.0;
  s.v_max = f > 0 ? 1.0 + static_cast<double>(delta) / static_cast<double>(f) : 1.0;
  s.quorum_weight = 2.0 * static_cast<double>(f) * s.v_max + 1.0;
  return s;
}

double WeightOf(const RoleConfig& config, const WeightScheme& scheme, ReplicaId id) {
  const bool is_max =
      id < config.weight_max.size() && config.weight_max[id] != 0;
  return is_max ? scheme.v_max : scheme.v_min;
}

double WeightedQuorumTime(std::span<std::pair<double, double>> arrivals_weights,
                          double quorum_weight, uint32_t skip_fastest) {
  std::sort(arrivals_weights.begin(), arrivals_weights.end());
  double acc = 0.0;
  uint32_t skipped = 0;
  for (const auto& [arrival, weight] : arrivals_weights) {
    if (skipped < skip_fastest) {
      ++skipped;  // adversarial worst case: the fastest voters stay silent
      continue;
    }
    acc += weight;
    if (acc >= quorum_weight) {
      return arrival;
    }
  }
  return kInf;
}

AwareTimeouts ComputeAwareTimeouts(const RoleConfig& config, const WeightScheme& scheme,
                                   const LatencyMatrix& latency, uint32_t u) {
  const uint32_t n = scheme.n;
  const ReplicaId leader = config.leader;
  AwareTimeouts t;
  // Every arrival sum below has the form x + L(a, b), with L(a, a) = 0: the
  // same arithmetic as the per-message functions, so the table matches them
  // bit for bit.
  std::vector<std::pair<double, double>> arrivals(n);
  std::vector<double> weight(n);

  // Phase 1: Propose (Pre-Prepare) arrival at each replica.
  t.propose.resize(n);
  for (ReplicaId a = 0; a < n; ++a) {
    t.propose[a] = AwareProposeTimeoutMs(config, latency, a);
    weight[a] = WeightOf(config, scheme, a);
  }

  // Phase 2: Write (Prepare): prepared(B) = weighted quorum of writes.
  t.prepared.resize(n);
  for (ReplicaId b = 0; b < n; ++b) {
    for (ReplicaId a = 0; a < n; ++a) {
      arrivals[a] = {t.propose[a] + latency.Rtt(a, b), weight[a]};
    }
    t.prepared[b] = WeightedQuorumTime(arrivals, scheme.quorum_weight, u);
  }

  // Phase 3: Accept (Commit): the round concludes when the leader holds a
  // weighted quorum of accepts (TR3).
  for (ReplicaId b = 0; b < n; ++b) {
    arrivals[b] = {t.prepared[b] + latency.Rtt(b, leader), weight[b]};
  }
  t.round_ms = WeightedQuorumTime(arrivals, scheme.quorum_weight, u);
  return t;
}

double AwareRoundDurationMs(const RoleConfig& config, const WeightScheme& scheme,
                            const LatencyMatrix& latency, uint32_t u) {
  return ComputeAwareTimeouts(config, scheme, latency, u).round_ms;
}

double AwareProposeTimeoutMs(const RoleConfig& config, const LatencyMatrix& latency,
                             ReplicaId to) {
  return to == config.leader ? 0.0 : latency.Rtt(config.leader, to);
}

double AwareWriteTimeoutMs(const RoleConfig& config, const LatencyMatrix& latency,
                           ReplicaId from, ReplicaId to) {
  return AwareProposeTimeoutMs(config, latency, from) +
         (from == to ? 0.0 : latency.Rtt(from, to));
}

double AwareAcceptTimeoutMs(const RoleConfig& config, const WeightScheme& scheme,
                            const LatencyMatrix& latency, ReplicaId from,
                            ReplicaId to, uint32_t u) {
  std::vector<std::pair<double, double>> arrivals;
  arrivals.reserve(scheme.n);
  for (ReplicaId a = 0; a < scheme.n; ++a) {
    arrivals.emplace_back(AwareWriteTimeoutMs(config, latency, a, from),
                          WeightOf(config, scheme, a));
  }
  const double prepared = WeightedQuorumTime(arrivals, scheme.quorum_weight, u);
  return prepared + (from == to ? 0.0 : latency.Rtt(from, to));
}

RoleConfig AwareConfigSpace::RandomConfig(const CandidateSet& candidates,
                                          Rng& rng) const {
  RoleConfig cfg;
  cfg.weight_max.assign(scheme_.n, 0);
  std::vector<ReplicaId> pool = candidates.candidates;
  if (pool.empty()) {
    pool.push_back(0);
  }
  rng.Shuffle(pool);
  cfg.leader = pool[0];
  // 2f replicas carry Vmax; the leader is one of them (AWARE always gives
  // the leader maximum weight so its Pre-Prepare counts fully).
  const uint32_t vmax_count = std::min<uint32_t>(2 * scheme_.f,
                                                 static_cast<uint32_t>(pool.size()));
  for (uint32_t i = 0; i < vmax_count; ++i) {
    cfg.weight_max[pool[i]] = 1;
  }
  return cfg;
}

RoleConfig AwareConfigSpace::Mutate(const RoleConfig& config,
                                    const CandidateSet& candidates, Rng& rng) const {
  RoleConfig cfg = config;
  std::vector<ReplicaId> vmax, vmin_candidates;
  for (ReplicaId id = 0; id < scheme_.n; ++id) {
    if (id < cfg.weight_max.size() && cfg.weight_max[id] != 0) {
      vmax.push_back(id);
    } else if (candidates.Contains(id)) {
      vmin_candidates.push_back(id);
    }
  }
  const uint64_t move = rng.Below(2);
  if (move == 0 && !vmax.empty() && !vmin_candidates.empty()) {
    // Swap a Vmax holder with a candidate Vmin replica.
    const ReplicaId out = vmax[rng.Below(vmax.size())];
    const ReplicaId in = vmin_candidates[rng.Below(vmin_candidates.size())];
    cfg.weight_max[out] = 0;
    cfg.weight_max[in] = 1;
    if (cfg.leader == out) {
      cfg.leader = in;
    }
  } else if (!candidates.candidates.empty()) {
    // Move the leader role to another candidate (leader keeps Vmax).
    const ReplicaId new_leader =
        candidates.candidates[rng.Below(candidates.candidates.size())];
    if (cfg.leader != new_leader) {
      if (new_leader < cfg.weight_max.size() && cfg.weight_max[new_leader] == 0 &&
          cfg.leader < cfg.weight_max.size() && cfg.weight_max[cfg.leader] != 0) {
        cfg.weight_max[cfg.leader] = 0;
        cfg.weight_max[new_leader] = 1;
      }
      cfg.leader = new_leader;
    }
  }
  return cfg;
}

double AwareConfigSpace::Score(const RoleConfig& config, const LatencyMatrix& latency,
                               uint32_t u) const {
  return AwareRoundDurationMs(config, scheme_, latency, u);
}

bool AwareConfigSpace::Valid(const RoleConfig& config,
                             const CandidateSet& candidates) const {
  if (config.weight_max.size() != scheme_.n || config.leader >= scheme_.n) {
    return false;
  }
  if (!candidates.Contains(config.leader)) {
    return false;
  }
  uint32_t vmax_count = 0;
  for (ReplicaId id = 0; id < scheme_.n; ++id) {
    if (config.weight_max[id] != 0) {
      ++vmax_count;
      if (!candidates.Contains(id)) {
        return false;  // high voting weight outside the candidate set
      }
    }
  }
  return vmax_count <= 2 * scheme_.f;
}

}  // namespace optilog
