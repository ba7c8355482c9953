// Fig. 7: runtime behavior under a Pre-Prepare delay attack — OptiAware vs
// Aware vs BFT-SMaRt/PBFT, 21 European cities, client latency observed from
// Nuremberg (city index 0).
//
// Timeline (as in the paper): all protocols start comparable; Aware and
// OptiAware optimize their (leader, weight) configuration at t = 40 s; the
// post-optimization leader launches the delay attack at t = 82 s; only
// OptiAware detects it via suspicions and reconfigures, restoring latency.
//
// One grid point per protocol; each point is an independent Deployment, so
// the three timelines run concurrently under --threads.
#include "bench/scenarios/common.h"
#include "src/api/deployment.h"

namespace optilog {
namespace {

Protocol ProtocolFor(const std::string& name) {
  if (name == "bft-smart") {
    return Protocol::kPbft;
  }
  if (name == "aware") {
    return Protocol::kAware;
  }
  OL_CHECK_MSG(name == "optiaware", name.c_str());
  return Protocol::kOptiAware;
}

PointResult RunPoint(const Params& p) {
  const std::string& name = p.Get("protocol");
  PbftOptions opts;
  opts.delta = 1.5;
  opts.optimize_at = 40 * kSec;
  auto deployment = Deployment::Builder()
                        .WithGeo(Europe21())
                        .WithProtocol(ProtocolFor(name))
                        .WithPbftOptions(opts)
                        .Build();

  // At t = 82 s the replica that holds the leader role turns Byzantine.
  Deployment& d = *deployment;
  d.sim().ScheduleAt(82 * kSec, [&d] {
    auto& f = d.faults().Mutable(d.pbft().config().leader);
    f.proposal_delay = 800 * kMsec;
    f.fast_probes = true;
  });

  d.Start();
  d.RunUntil(180 * kSec);

  // Bucket the Nuremberg client's samples into 5-second bins.
  constexpr size_t kBuckets = 36;
  std::vector<double> latency(kBuckets, 0.0);
  std::vector<int> counts(kBuckets, 0);
  for (const ClientSample& s : d.fleet()->client(0).samples()) {
    const size_t bucket = static_cast<size_t>(s.at / (5 * kSec));
    if (bucket < kBuckets) {
      latency[bucket] += s.latency_ms;
      ++counts[bucket];
    }
  }

  const MetricsReport m = d.Metrics();
  PointResult pr;
  for (size_t b = 0; b < kBuckets; ++b) {
    const double ms = counts[b] > 0 ? latency[b] / counts[b] : 0.0;
    pr.rows.push_back({name, std::to_string(b * 5), Fixed(ms, 1)});
  }
  pr.metrics = {
      {"reconfigurations", static_cast<double>(m.reconfigurations)},
      {"suspicions", static_cast<double>(m.suspicions)},
      {"mitigated_at_s",
       m.reconfig_times.size() > 1 ? ToSec(m.reconfig_times.back()) : 0.0},
  };
  FillOutcome(pr, m);
  return pr;
}

Scenario Make() {
  Scenario s;
  s.name = "fig07_runtime_attack";
  s.description =
      "Pre-Prepare delay attack timeline: BFT-SMaRt vs Aware vs OptiAware "
      "(Europe21, Nuremberg client)";
  s.tags = {"figure", "tier1"};
  s.columns = {"protocol", "time_s", "latency_ms"};
  s.grid = {{"protocol", {"bft-smart", "aware", "optiaware"}}};
  s.run = RunPoint;
  return s;
}

const ScenarioRegistrar reg(Make());

}  // namespace
}  // namespace optilog
