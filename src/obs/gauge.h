// Periodic gauge sampling on simulated time.
//
// A GaugeSampler rides a Simulator as a typed timer target: every `interval`
// of sim time it reads each registered gauge callback and appends the value
// to that gauge's series. Callbacks read simulated state only (protocol
// frontiers, queue depths, the simulator's pending count and pool counters,
// CPU backlogs) — never wall clock — so the sampled series are byte-identical
// across reruns and --threads values. A sharded deployment's groups share
// one simulator: each group samples its own state under an "s<i>." prefix,
// and the simulator-wide gauges are sampled once for the whole deployment.
//
// Sampling schedules real timer events, so unlike the TraceRecorder it is
// NOT schedule-neutral: runs with sampling on have their own fingerprints.
// The trace_breakdown scenario pins both: the trace-only fingerprint equals
// the untraced one, and the sampled run is byte-identical across reruns.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"

namespace optilog {

class GaugeSampler final : public TimerTarget {
 public:
  struct Series {
    std::string name;
    std::vector<double> values;  // one per elapsed interval, in time order
  };

  GaugeSampler(Simulator* sim, SimTime interval)
      : sim_(sim), interval_(interval) {}
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;

  SimTime interval() const { return interval_; }

  // Registers a gauge. Registration order is the series order everywhere
  // (report, JSON, fingerprint), so callers register in a fixed order.
  void Add(std::string name, std::function<double()> read) {
    reads_.push_back(std::move(read));
    series_.push_back(Series{std::move(name), {}});
  }

  // Schedules the first sample one interval from now.
  void Start() { sim_->ScheduleTimer(this, 0, interval_); }

  void OnTimer(uint64_t tag, SimTime at) override {
    (void)tag;
    (void)at;
    for (size_t i = 0; i < reads_.size(); ++i) {
      series_[i].values.push_back(reads_[i]());
    }
    sim_->ScheduleTimer(this, 0, interval_);
  }

  const std::vector<Series>& series() const { return series_; }

 private:
  Simulator* sim_;
  SimTime interval_;
  std::vector<std::function<double()>> reads_;
  std::vector<Series> series_;
};

}  // namespace optilog
