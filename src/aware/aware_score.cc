#include "src/aware/aware_score.h"

#include <algorithm>
#include <cmath>
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

void AwareVoteDeadlines::Build(const AwareTimeouts& t, const LatencyMatrix& latency) {
  n_ = static_cast<uint32_t>(t.propose.size());
  const size_t pairs = size_t{n_} * n_;
  deadline_.assign(2 * pairs, kUnobserved);
  if (latency.Coverage() < 1.0) {
    return;
  }
  for (ReplicaId from = 0; from < n_; ++from) {
    for (ReplicaId to = 0; to < n_; ++to) {
      if (from == to || !latency.Known(from, to)) {
        continue;
      }
      const double rtt = latency.Rtt(from, to);
      const double write = t.propose[from] + rtt;
      const double accept = t.prepared[from] + rtt;
      const size_t at = size_t{from} * n_ + to;
      if (std::isfinite(write)) {
        deadline_[at] = FromMs(write);
      }
      if (std::isfinite(accept)) {
        deadline_[pairs + at] = FromMs(accept);
      }
    }
  }
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

std::optional<ScoredConfig> AwareConfigSpace::Search(const CandidateSet& candidates,
                                                     const LatencyMatrix& latency,
                                                     Rng& rng,
                                                     const AnnealingParams& params) const {
  RoleConfig start = RandomConfig(candidates, rng);
  if (!Valid(start, candidates)) {
    return std::nullopt;
  }
  AnnealingResult<RoleConfig> result = SimulatedAnnealing(
      std::move(start),
      [&](const RoleConfig& cfg) { return Score(cfg, latency, candidates.u); },
      [&](const RoleConfig& cfg, Rng& r) { return Mutate(cfg, candidates, r); }, rng,
      params);
  return ScoredConfig{std::move(result.best), result.best_score};
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
  const auto is_vmax = [&](ReplicaId id) {
    return id < cfg.weight_max.size() && cfg.weight_max[id] != 0;
  };
  const auto is_vmin_candidate = [&](ReplicaId id) {
    return !is_vmax(id) && candidates.Contains(id);
  };
  // A draw picks the i-th Vmax holder or candidate Vmin replica by
  // ascending id: counted here, found by a second scan, so neither list is
  // built.
  uint64_t vmax = 0;
  uint64_t vmin_candidates = 0;
  for (ReplicaId id = 0; id < scheme_.n; ++id) {
    vmax += is_vmax(id);
    vmin_candidates += is_vmin_candidate(id);
  }
  const auto nth = [&](const auto& member, uint64_t rank) {
    ReplicaId id = 0;
    while (!member(id) || rank-- > 0) {
      ++id;
    }
    return id;
  };
  const uint64_t move = rng.Below(2);
  if (move == 0 && vmax > 0 && vmin_candidates > 0) {
    // Swap a Vmax holder with a candidate Vmin replica.
    const ReplicaId out = nth(is_vmax, rng.Below(vmax));
    const ReplicaId in = nth(is_vmin_candidate, rng.Below(vmin_candidates));
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
  ComputeTimeouts(config, latency, u, table_);
  return table_.round_ms;
}

void AwareConfigSpace::Refresh(const LatencyMatrix& latency) const {
  if (latency.version() == version_) {
    return;
  }
  const uint32_t n = scheme_.n;
  rtt_.resize(size_t{n} * n);
  for (ReplicaId a = 0; a < n; ++a) {
    for (ReplicaId b = 0; b < n; ++b) {
      rtt_[size_t{a} * n + b] = latency.Rtt(a, b);
    }
  }
  rows_.resize(n);
  for (LeaderRows& rows : rows_) {
    rows.arrival.clear();  // rebuilt on the leader's next use
  }
  version_ = latency.version();
}

const AwareConfigSpace::LeaderRows& AwareConfigSpace::RowsOf(ReplicaId leader) const {
  LeaderRows& rows = rows_[leader];
  if (!rows.arrival.empty()) {
    return rows;
  }
  const uint32_t n = scheme_.n;
  rows.sender.resize(size_t{n} * n);
  rows.arrival.resize(size_t{n} * n);
  rows.run_end.resize(size_t{n} * n);
  std::vector<std::pair<double, ReplicaId>> row(n);
  for (ReplicaId b = 0; b < n; ++b) {
    // The arithmetic of AwareWriteTimeoutMs: propose(a) + L(a, b), L(a, a) = 0.
    for (ReplicaId a = 0; a < n; ++a) {
      row[a] = {(a == leader ? 0.0 : Rtt(leader, a)) + Rtt(a, b), a};
    }
    std::sort(row.begin(), row.end());
    const size_t base = size_t{b} * n;
    for (uint32_t i = 0; i < n;) {
      uint32_t end = i + 1;
      while (end < n && row[end].first == row[i].first) {
        ++end;
      }
      rows.run_end[base + i] = end;
      for (; i < end; ++i) {
        rows.sender[base + i] = row[i].second;
        rows.arrival[base + i] = row[i].first;
      }
    }
  }
  return rows;
}

void AwareConfigSpace::ComputeTimeouts(const RoleConfig& config,
                                       const LatencyMatrix& latency, uint32_t u,
                                       AwareTimeouts& out) const {
  const uint32_t n = scheme_.n;
  const ReplicaId leader = config.leader;
  OL_CHECK(leader < n);  // callers score Valid configurations only
  out.propose.resize(n);
  out.prepared.resize(n);
  Refresh(latency);
  const LeaderRows& rows = RowsOf(leader);
  weight_.resize(n);
  for (ReplicaId a = 0; a < n; ++a) {
    out.propose[a] = a == leader ? 0.0 : Rtt(leader, a);
    weight_[a] = WeightOf(config, scheme_, a);
  }

  // prepared(B): walk B's sorted Write arrivals, accumulating weights exactly
  // as WeightedQuorumTime does after its sort. std::sort on (arrival,
  // weight) puts the lighter weight first among equal arrivals, so a run of
  // equal arrivals contributes its Vmin senders, then its Vmax senders.
  const double q = scheme_.quorum_weight;
  const double v_max = scheme_.v_max;
  for (ReplicaId b = 0; b < n; ++b) {
    const size_t base = size_t{b} * n;
    const ReplicaId* sender = &rows.sender[base];
    const double* arrival = &rows.arrival[base];
    const uint32_t* run_end = &rows.run_end[base];
    double acc = 0.0;
    uint32_t skipped = 0;
    // Counts one contribution; true once the quorum is reached.
    auto take = [&](double weight) {
      if (skipped < u) {
        ++skipped;  // adversarial worst case: the fastest voters stay silent
        return false;
      }
      acc += weight;
      return acc >= q;
    };
    double prepared = kInf;
    for (uint32_t i = 0; i < n; i = run_end[i]) {
      const uint32_t end = run_end[i];
      bool reached = false;
      if (end == i + 1) {
        reached = take(weight_[sender[i]]);
      } else {
        for (uint32_t k = i; k < end && !reached; ++k) {
          reached = weight_[sender[k]] != v_max && take(scheme_.v_min);
        }
        for (uint32_t k = i; k < end && !reached; ++k) {
          reached = weight_[sender[k]] == v_max && take(v_max);
        }
      }
      if (reached) {
        prepared = arrival[i];
        break;
      }
    }
    out.prepared[b] = prepared;
  }

  // TR3: the leader's weighted quorum of Accepts, the one remaining sort.
  accepts_.resize(n);
  for (ReplicaId b = 0; b < n; ++b) {
    accepts_[b] = {out.prepared[b] + Rtt(b, leader), weight_[b]};
  }
  out.round_ms = WeightedQuorumTime(accepts_, q, u);
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
