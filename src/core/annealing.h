// Simulated annealing (§4.2.4), after Kirkpatrick et al. [40].
//
// Generic over the configuration type: callers supply score (lower is
// better) and mutate functions. The search ends when the iteration budget —
// the deterministic stand-in for the paper's wall-clock "search timer" — is
// exhausted or the temperature cools below the convergence threshold.
// Deliberately non-deterministic across replicas (each uses its own Rng
// stream); §4.2.4 explains why that is a feature: different replicas explore
// different regions and the log ranks the proposals.
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>

#include "src/util/rng.h"

namespace optilog {

// Temperatures are relative to the initial score: the search starts at 1.
struct AnnealingParams {
  uint64_t max_iterations = 20'000;
  double cooling_rate = 0.995;    // geometric cooling per iteration
  double min_temperature = 1e-4;  // convergence threshold

  // Schedule whose temperature decays from 1 to min over exactly
  // `iterations` steps — this is what makes a longer search time explore
  // more (Fig. 12); a fixed cooling rate would go greedy early and waste
  // the extra budget.
  static AnnealingParams ForBudget(uint64_t iterations) {
    AnnealingParams p;
    p.max_iterations = iterations;
    p.cooling_rate = std::exp(std::log(p.min_temperature) /
                              static_cast<double>(iterations));
    return p;
  }
};

struct AnnealingStats {
  double best_score = 0.0;
  uint64_t iterations = 0;
  bool converged = false;  // stopped on temperature, not budget
};

template <typename State>
struct AnnealingResult : AnnealingStats {
  State best;
};

// The acceptance rule every search shares, over a walk that holds the current
// state: walk.Propose(rng) draws a neighbor of it and returns the neighbor's
// score, walk.Accept() makes that neighbor current, and walk.SaveBest()
// records the current state as the best so far. `score` is the initial
// state's, which is the first best.
template <typename Walk>
AnnealingStats Anneal(Walk& walk, double score, Rng& rng,
                      const AnnealingParams& params) {
  AnnealingStats stats;
  double current_score = score;
  stats.best_score = score;

  // Temperature is scaled by the initial score so acceptance probabilities
  // are invariant to the score's units (milliseconds vs seconds).
  const double scale = current_score > 0 ? current_score : 1.0;
  double temperature = scale;
  const double floor = params.min_temperature * scale;

  for (; stats.iterations < params.max_iterations; ++stats.iterations) {
    if (temperature < floor) {
      stats.converged = true;
      break;
    }
    const double neighbor_score = walk.Propose(rng);
    const double delta = neighbor_score - current_score;
    if (delta <= 0 || rng.Uniform() < std::exp(-delta / temperature)) {
      walk.Accept();
      current_score = neighbor_score;
      if (current_score < stats.best_score) {
        walk.SaveBest();
        stats.best_score = current_score;
      }
    }
    temperature *= params.cooling_rate;
  }
  return stats;
}

// score: State -> double (lower better). mutate: (const State&, Rng&) -> State.
template <typename State, typename ScoreFn, typename MutateFn>
AnnealingResult<State> SimulatedAnnealing(State initial, ScoreFn&& score,
                                          MutateFn&& mutate, Rng& rng,
                                          const AnnealingParams& params = {}) {
  struct ValueWalk {
    ScoreFn& score;
    MutateFn& mutate;
    State current, neighbor, best;
    double Propose(Rng& r) { neighbor = mutate(current, r); return score(neighbor); }
    void Accept() { current = std::move(neighbor); }
    void SaveBest() { best = current; }
  };
  ValueWalk walk{score, mutate, initial, initial, std::move(initial)};
  const AnnealingStats stats = Anneal(walk, score(walk.current), rng, params);
  return {stats, std::move(walk.best)};
}

}  // namespace optilog
