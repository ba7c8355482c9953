// Fig. 9: throughput and latency of HotStuff (fixed and round-robin), Kauri
// (pipelined), and OptiTree (with and without pipelining) across four
// geographic distributions: Europe21, NA-EU43, Stellar56, Global73.
//
// Paper shape: OptiTree > Kauri(pipeline) > HotStuff in throughput; OptiTree
// cuts tree latency vs Kauri (-39% at Global73, -36% at Stellar56). The
// tree's latency advantage over the star erodes as bandwidth limits bite the
// star leader.
//
// Grid: geo x series, 20 independent deployments. Each point derives the one
// tree it runs from a stream of its own: OptiTree's search from Rng(99),
// Kauri's random tree from Rng(100). A change to the search's draw count
// therefore cannot move Kauri's points, and no point depends on which
// points run concurrently.
#include "bench/scenarios/common.h"
#include "src/api/deployment.h"
#include "src/tree/kauri.h"

namespace optilog {
namespace {

constexpr SimTime kRunTime = 60 * kSec;
constexpr double kBandwidthBps = 500e6;  // per-replica uplink

std::vector<City> CitiesFor(const std::string& geo) {
  if (geo == "Europe21") {
    return Europe21();
  }
  if (geo == "NA-EU43") {
    return NaEu43();
  }
  if (geo == "Stellar56") {
    return Stellar56();
  }
  OL_CHECK_MSG(geo == "Global73", geo.c_str());
  return Global73();
}

PointResult RunPoint(const Params& p) {
  const std::string& geo = p.Get("geo");
  const std::string& series = p.Get("series");
  const std::vector<City> cities = CitiesFor(geo);
  const uint32_t n = static_cast<uint32_t>(cities.size());
  const uint32_t f = (n - 1) / 3;

  Deployment::Builder base;
  base.WithGeo(cities).WithBandwidth(kBandwidthBps);

  TreeRsmOptions opts;
  if (series == "HotStuff-rr" || series == "HotStuff-fixed") {
    opts.rotate_root = series == "HotStuff-rr";
    base.WithProtocol(Protocol::kHotStuff);
  } else if (series == "Kauri-pipe") {
    // Kauri: a random tree.
    Rng rng(100);
    opts.pipeline_depth = 3;
    base.WithProtocol(Protocol::kKauri).WithTopology(RandomTree(n, rng));
  } else {
    // OptiTree: 1 s simulated-annealing search (§7.4), scored at the engine's
    // CommitThreshold(): n - f, as opts sets no votes_required.
    OL_CHECK_MSG(series == "OptiTree" || series == "OptiTree-nopipe", series.c_str());
    Rng rng(99);
    std::vector<ReplicaId> all(n);
    for (ReplicaId id = 0; id < n; ++id) {
      all[id] = id;
    }
    opts.pipeline_depth = series == "OptiTree" ? 3 : 1;
    base.WithProtocol(Protocol::kOptiTree)
        .WithTopology(AnnealTree(n, all, MatrixFromCities(cities), n - f, rng,
                                 ParamsForSearchSeconds(1.0)));
  }

  auto d = base.WithTreeOptions(opts).Build();
  d->Start();
  d->RunUntil(kRunTime);
  const MetricsReport m = d->Metrics();
  const double ops = m.MeanOps(1, static_cast<size_t>(kRunTime / kSec));

  PointResult pr;
  pr.rows.push_back(
      {geo, series, Fixed(ops, 0), Fixed(m.mean_latency_ms, 0)});
  pr.metrics = {{"ops_per_sec", ops}, {"latency_ms", m.mean_latency_ms}};
  FillOutcome(pr, m);
  return pr;
}

Scenario Make() {
  Scenario s;
  s.name = "fig09_baselines";
  s.description =
      "Throughput/latency of OptiTree vs Kauri vs HotStuff across four "
      "geographic spreads";
  s.tags = {"figure", "sweep", "tier1"};
  s.columns = {"geo", "series", "ops_per_sec", "latency_ms"};
  s.grid = {{"geo", {"Europe21", "NA-EU43", "Stellar56", "Global73"}},
            {"series",
             {"OptiTree", "OptiTree-nopipe", "Kauri-pipe", "HotStuff-rr",
              "HotStuff-fixed"}}};
  s.run = RunPoint;
  return s;
}

const ScenarioRegistrar reg(Make());

}  // namespace
}  // namespace optilog
