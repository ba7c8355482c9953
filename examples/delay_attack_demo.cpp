// Delay-attack demo: a Byzantine leader slows OptiAware down — and gets
// caught (the Fig. 7 storyline in miniature).
//
// 21 European replicas run the weighted-PBFT protocol. At t = 10 s the
// current leader begins delaying its Pre-Prepares by 500 ms while answering
// probes promptly, so latency-based optimization alone (Aware) cannot see
// it. OptiLog's SuspicionSensor compares protocol-message arrival times
// against the leader's own timestamps, suspects the leader, removes it from
// the candidate set, and the config monitor elects a new one.
//
//   $ ./delay_attack_demo
#include <cstdio>

#include "src/api/deployment.h"

using namespace optilog;

int main() {
  PbftOptions options;
  options.delta = 1.5;
  options.optimize_at = 5 * kSec;
  // The workload layer's closed loop: one client per replica, 50 ms think
  // time, a request completes on its f + 1-th reply (the Fig. 7 client).
  WorkloadOptions workload;
  workload.arrival = ArrivalProcess::kClosedLoop;
  workload.think_time = 50 * kMsec;
  auto deployment = Deployment::Builder()
                        .WithGeo(Europe21())
                        .WithProtocol(Protocol::kOptiAware)
                        .WithPbftOptions(options)
                        .WithWorkload(workload)
                        .Build();
  Deployment& d = *deployment;
  const std::vector<City>& cities = d.cities();

  ReplicaId attacker = kNoReplica;
  d.sim().ScheduleAt(10 * kSec, [&] {
    attacker = d.pbft().config().leader;
    auto& f = d.faults().Mutable(attacker);
    f.proposal_delay = 500 * kMsec;
    f.fast_probes = true;
    std::printf("[%5.1fs] leader %u (%s) starts the Pre-Prepare delay attack\n",
                ToSec(d.sim().now()), attacker, cities[attacker].name.c_str());
  });

  d.Start();
  d.RunUntil(40 * kSec);

  std::printf("\nClient latency (Nuremberg), 2 s buckets:\n");
  const auto& samples = d.fleet()->client(0).samples();
  double bucket_sum = 0;
  int bucket_count = 0;
  SimTime bucket_end = 2 * kSec;
  for (const ClientSample& s : samples) {
    while (s.at >= bucket_end) {
      if (bucket_count > 0) {
        std::printf("  t=%4.0fs  %7.1f ms\n", ToSec(bucket_end - 2 * kSec),
                    bucket_sum / bucket_count);
      }
      bucket_sum = 0;
      bucket_count = 0;
      bucket_end += 2 * kSec;
    }
    bucket_sum += s.latency_ms;
    ++bucket_count;
  }

  const MetricsReport metrics = d.Metrics();
  const ReplicaId leader = d.pbft().config().leader;
  std::printf("\nfleet latency: p50 %.1f ms, p95 %.1f ms, p99 %.1f ms "
              "(%llu requests)\n",
              metrics.workload.latency_p50_ms, metrics.workload.latency_p95_ms,
              metrics.workload.latency_p99_ms,
              static_cast<unsigned long long>(
                  metrics.workload.requests_completed));
  std::printf("suspicions logged: %llu\n",
              static_cast<unsigned long long>(metrics.suspicions));
  std::printf("reconfigurations: %llu\n",
              static_cast<unsigned long long>(metrics.reconfigurations));
  std::printf("final leader: %u (%s)%s\n", leader, cities[leader].name.c_str(),
              leader == attacker ? "  [ATTACK NOT MITIGATED]"
                                 : "  [attacker deposed]");
  return leader == attacker ? 1 : 0;
}
