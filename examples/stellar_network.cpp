// Stellar-network scenario: OptiTree on the 56-validator topology (§7.4's
// "simulated Stellar network"), serving a closed-loop client fleet through
// a mid-run failure of an intermediate node and the suspicion-driven
// recovery.
//
// The OptiLog recovery loop (suspicions -> measurement bus -> candidate set
// -> SA over the survivors) is the deployment's WithOptiLogReconfig wiring;
// the client fleet (WithWorkload) keeps issuing requests across the outage,
// retrying against other replicas until the new tree serves them — so the
// p99 below prices the recovery in client terms.
//
//   $ ./stellar_network
#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "src/api/deployment.h"
#include "src/util/stats.h"

using namespace optilog;

int main() {
  const uint32_t n = 56, f = 18;

  TreeRsmOptions opts;
  opts.pipeline_depth = 3;
  // OptiTree's reconfiguration rule: more than u missing votes fails the
  // round (§7.5). With u = 0 the root expects all but a few replicas, so a
  // crashed subtree is noticed instead of silently tolerated.
  opts.votes_required = n - 4;

  // 112 closed-loop clients (two per validator city) with a retry timeout:
  // requests stranded by the crash re-route to surviving replicas.
  WorkloadOptions workload;
  workload.clients = 2 * n;
  workload.think_time = 20 * kMsec;
  workload.retry_timeout = 2 * kSec;
  workload.batch.max_batch = 500;
  workload.batch.max_delay = 15 * kMsec;

  ReplicaId victim = kNoReplica;
  auto deployment =
      Deployment::Builder()
          .WithGeo(Stellar56())
          .WithReplicas(n, f)
          .WithProtocol(Protocol::kOptiTree)
          .WithSeed(56)
          .WithInitialSearch(AnnealingParams::ForBudget(5000))
          .WithBandwidth(500e6)
          .WithTreeOptions(opts)
          .WithWorkload(workload)
          .WithOptiLogReconfig(/*search_window=*/1 * kSec)
          .WithFaults([&victim](Deployment& dep) {
            // An intermediate crashes at t = 15 s; OptiLog's machinery picks
            // the replacement tree from the surviving candidates.
            victim = dep.tree().topology().intermediates()[1];
            dep.faults().Mutable(victim).crash_at = 15 * kSec;
          })
          .Build();
  Deployment& d = *deployment;
  const std::vector<City>& cities = d.cities();

  const TreeTopology& tree = d.tree().topology();
  std::printf("Stellar56 OptiTree: root %s, %zu intermediates, b = %u\n",
              cities[tree.root()].name.c_str(), tree.intermediates().size(),
              BranchFactorFor(n));

  d.Start();
  d.RunUntil(40 * kSec);

  const MetricsReport m = d.Metrics();
  std::printf("\n%-28s %llu blocks (%llu ops)\n", "committed:",
              static_cast<unsigned long long>(m.committed),
              static_cast<unsigned long long>(m.total_commands));
  std::printf("%-28s %.1f ms\n", "mean consensus latency:", m.mean_latency_ms);
  std::printf("%-28s p50 %.1f ms, p99 %.1f ms (%llu served, %llu retries)\n",
              "client latency:", m.workload.latency_p50_ms,
              m.workload.latency_p99_ms,
              static_cast<unsigned long long>(m.workload.requests_completed),
              static_cast<unsigned long long>(m.workload.requests_retried));
  // The run-wide percentiles mix two trees whose latencies differ, so the
  // median moves with their share of completions. Each tree's own: requests
  // completed before the crash (after a 2 s warm-up) and after the recovery.
  auto percentiles = [&d](SimTime from, SimTime to) {
    std::vector<double> ms;
    const ClientFleet& fleet = *d.fleet();
    for (uint32_t i = 0; i < fleet.size(); ++i) {
      for (const ClientSample& s : fleet.client(i).samples()) {
        if (s.at >= from && s.at < to) {
          ms.push_back(s.latency_ms);
        }
      }
    }
    std::sort(ms.begin(), ms.end());
    return std::pair{SortedPercentile(ms, 50.0), SortedPercentile(ms, 99.0)};
  };
  const auto [before_p50, before_p99] = percentiles(2 * kSec, 15 * kSec);
  const auto [after_p50, after_p99] = percentiles(19 * kSec, 40 * kSec);
  std::printf("%-28s 2..15s p50 %.1f / p99 %.1f ms, 19..40s p50 %.1f / p99 "
              "%.1f ms\n",
              "client latency per tree:", before_p50, before_p99, after_p50,
              after_p99);
  std::printf("%-28s %llu (victim %s at t=15s)\n", "reconfigurations:",
              static_cast<unsigned long long>(m.reconfigurations),
              cities[victim].name.c_str());
  std::printf("%-28s ", "throughput 10..14s:");
  for (size_t s = 10; s < 15 && s < m.throughput_per_sec.size(); ++s) {
    std::printf("%llu ", static_cast<unsigned long long>(m.throughput_per_sec[s]));
  }
  std::printf("\n%-28s ", "throughput 15..22s:");
  for (size_t s = 15; s < 23 && s < m.throughput_per_sec.size(); ++s) {
    std::printf("%llu ", static_cast<unsigned long long>(m.throughput_per_sec[s]));
  }
  std::printf("\n");
  return m.committed > 0 ? 0 : 1;
}
