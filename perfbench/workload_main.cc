// perfbench_workload: runs ONE benchmark workload once in this process and
// prints one JSON object with what it measured. perfbench/run.py drives it
// (one process per repetition, never two workloads at once), takes medians,
// and prints the benchmark's result line.
//
//   perfbench_workload --workload <aware_attack|optitree_world|kv_txn>
//                      --seed <n> [--traced] [--scale <f>]
//
// Untraced (default): builds the deployment Spec::setup_reps times (each
// Build() timed; only the first one runs), runs it to the workload's horizon,
// and reports the host plane (setup_s, run_s, peak_rss_mb), the simulated
// plane, the MetricsFingerprint, and the correctness gate. Host times are the
// process's CPU time (user + system): every workload is single-threaded, and
// CPU time leaves out the time other processes on a shared host hold the core.
// The wall time of the run is printed alongside (run_wall_s).
//
// --traced: the same untraced run as the reference, then a second build
// WithTrace() whose event loop is stepped from here (PeekEarliest + Step, each
// Step timed and paired with the dispatch record it emitted), then timings of
// named public functions on the end-of-run state. Reports the per-layer
// metrics. The sharded workload runs on PDES partitions that cannot be stepped
// from outside: it reports trace counts and function timings, and attributes
// no host time to handlers (obs.attributed_frac = 0).
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/api/deployment.h"
#include "src/aware/aware_score.h"
#include "src/hotstuff/messages.h"
#include "src/net/geo.h"
#include "src/obs/stage_breakdown.h"
#include "src/pbft/messages.h"
#include "src/runner/scenario.h"
#include "src/shard/sharded_deployment.h"
#include "src/statemachine/state_machine.h"
#include "src/tree/kauri.h"
#include "src/workload/messages.h"

namespace optilog {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU time (user + system) of this process so far.
double CpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// Workload definitions. Every workload runs on the time wheel, behind a
// WithWorkload fleet, single-threaded (WithSimThreads(1): the merged driver).

constexpr uint32_t kWorldN = 1000;
constexpr uint32_t kWorldClients = 64;
constexpr double kWorldRate = 1500.0;  // ~70% of the measured ~2100 ops/s knee
constexpr uint64_t kWorldSearchIters = 5000;
constexpr uint32_t kTxnShards = 4;
// The deployments are fixed (keys, geography, initial search streams); the
// benchmark seed drives only the inputs: client arrivals and operations.
constexpr uint64_t kDeploymentSeed = 1;

struct Spec {
  SimTime horizon = 0;
  SimTime warmup = 0;     // ops_per_s counts whole seconds after this
  SimTime optimize_at = 0;  // aware_attack: Aware's scheduled optimization
  SimTime attack_at = 0;    // aware_attack: the leader turns Byzantine
  // Build() calls timed per process. optitree_world's includes a ~0.2 s tree
  // search; the other two take well under a millisecond, so they repeat more.
  int setup_reps = 15;
};

Spec SpecFor(const std::string& w, double scale) {
  Spec s;
  if (w == "aware_attack") {
    s.horizon = 30 * kSec;
    s.warmup = 5 * kSec;
    s.optimize_at = 10 * kSec;
    s.attack_at = 20 * kSec;
  } else if (w == "optitree_world") {
    s.horizon = 120 * kSec;
    s.warmup = 10 * kSec;
    s.setup_reps = 3;
  } else {
    s.horizon = 120 * kSec;
    s.warmup = 5 * kSec;
  }
  auto scaled = [scale](SimTime t) {
    return static_cast<SimTime>(static_cast<double>(t) * scale) / kSec * kSec;
  };
  s.horizon = scaled(s.horizon);
  s.warmup = scaled(s.warmup);
  s.optimize_at = scaled(s.optimize_at);
  s.attack_at = scaled(s.attack_at);
  return s;
}

// One built workload: a single deployment, or the sharded one.
struct Instance {
  std::unique_ptr<Deployment> d;
  std::unique_ptr<ShardedDeployment> sd;

  void Start() { d ? d->Start() : sd->Start(); }
  void RunUntil(SimTime t) { d ? d->RunUntil(t) : sd->RunUntil(t); }
  MetricsReport Metrics() { return d ? d->Metrics() : sd->Metrics(); }
  std::vector<TraceRecord> TraceRecords() const {
    return d ? d->TraceRecords() : sd->TraceRecords();
  }
  // Replicas per consensus group: delivery receivers below this id are
  // replicas, the rest clients (or 2PC coordinators).
  uint32_t n() { return d ? d->n() : sd->replicas_per_shard(); }
  // The deployment whose layer functions the traced run times.
  Deployment& primary() { return d ? *d : sd->shard(0); }
};

Instance BuildAwareAttack(uint64_t seed, const Spec& spec, bool traced) {
  PbftOptions opts;
  opts.delta = 1.5;
  opts.optimize_at = spec.optimize_at;
  WorkloadOptions w;  // one client per replica (clients = 0)
  w.arrival = ArrivalProcess::kClosedLoop;
  w.outstanding = 1;
  w.think_time = 50 * kMsec;
  w.seed = seed;
  Deployment::Builder b;
  b.WithGeo(Europe21())
      .WithProtocol(Protocol::kOptiAware)
      .WithSeed(kDeploymentSeed)
      .WithPbftOptions(opts)
      .WithWorkload(w)
      .WithStateMachine()
      .WithSimThreads(1);
  if (traced) {
    b.WithTrace();
  }
  Instance inst;
  inst.d = b.Build();
  // Fig. 7's attack: the replica leading at attack time delays every
  // Pre-Prepare by 800 ms. The run's only closure event. The seed picks the
  // attack instant within a second: the closed loop itself draws nothing
  // that moves time, so this is the input that makes seeds differ.
  Deployment* d = inst.d.get();
  Rng jitter(seed);
  const SimTime attack_at =
      spec.attack_at + static_cast<SimTime>(jitter.Below(1000)) * kMsec;
  d->sim().ScheduleAt(attack_at, [d] {
    ReplicaFaults& f = d->faults().Mutable(d->pbft().config().leader);
    f.proposal_delay = 800 * kMsec;
    f.fast_probes = true;
  });
  return inst;
}

WorkloadOptions WorldWorkload(uint64_t seed) {
  WorkloadOptions w;
  w.seed = seed;
  w.clients = kWorldClients;
  w.arrival = ArrivalProcess::kOpenPoisson;
  w.rate_per_client = kWorldRate / kWorldClients;
  w.record_samples = false;
  w.batch.max_batch = 200;
  w.batch.max_delay = 20 * kMsec;
  w.batch.max_queue = 50'000;
  return w;
}

Instance BuildOptiTreeWorld(uint64_t seed, bool traced) {
  TreeRsmOptions topts;
  topts.pipeline_depth = 3;
  Deployment::Builder b;
  // GlobalN's own seed fixes the geography.
  b.WithGeo(GlobalN(kWorldN))
      .WithProtocol(Protocol::kOptiTree)
      .WithSeed(kDeploymentSeed)
      .WithTreeOptions(topts)
      .WithInitialSearch(AnnealingParams::ForBudget(kWorldSearchIters))
      .WithOptiLogReconfig()
      .WithWorkload(WorldWorkload(seed))
      .WithSimThreads(1);
  if (traced) {
    b.WithTrace();
  }
  Instance inst;
  inst.d = b.Build();
  return inst;
}

TxnWorkloadOptions TxnOptions(uint64_t seed) {
  TxnWorkloadOptions txn;
  txn.seed = seed;
  txn.clients_per_shard = 6;
  txn.keys_per_txn = 2;
  txn.keys_per_client_shard = 8;
  txn.hot_pct = 10;
  txn.hot_keys = 8;
  txn.think_time = 5 * kMsec;
  return txn;
}

Instance BuildKvTxn(uint64_t seed, bool traced) {
  WorkloadOptions w;
  w.arrival = ArrivalProcess::kClosedLoop;
  w.outstanding = 1;
  w.batch.max_batch = 32;
  w.batch.max_delay = 10 * kMsec;
  Deployment::Builder b;
  b.WithGeo(Europe21())
      .WithReplicas(7, 2)
      .WithProtocol(Protocol::kHotStuff)
      .WithSeed(kDeploymentSeed)
      .WithWorkload(w)
      .WithCheckpointing(64, /*truncate=*/true)
      .WithShards(kTxnShards)
      .WithCrossShardRatio(0.10)
      .WithTxnWorkload(TxnOptions(seed))
      .WithSimThreads(1);
  if (traced) {
    b.WithTrace();
  }
  Instance inst;
  inst.sd = b.BuildSharded();
  return inst;
}

Instance BuildWorkload(const std::string& w, uint64_t seed, const Spec& spec,
                       bool traced) {
  if (w == "aware_attack") {
    return BuildAwareAttack(seed, spec, traced);
  }
  if (w == "optitree_world") {
    return BuildOptiTreeWorld(seed, traced);
  }
  return BuildKvTxn(seed, traced);
}

// ---------------------------------------------------------------------------
// Untraced run: host plane, simulated plane, fingerprint, correctness gate.

struct PlainResult {
  std::vector<double> setup_s;
  double run_s = 0.0;
  double run_wall_s = 0.0;
  double peak_rss_mb = 0.0;
  std::string fingerprint;
  MetricsReport m;
  uint64_t ops = 0;        // committed client operations, whole run
  uint64_t attempted = 0;  // client operations issued
  uint64_t failed = 0;     // issued operations given up on or wrong
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t p99_samples = 0;
  double success_frac = 0.0;
  std::vector<std::string> errors;
};

void Check(PlainResult& r, bool ok, const std::string& what) {
  if (!ok) {
    r.errors.push_back(what);
  }
}

void Summarize(const std::string& w, const Spec& spec, PlainResult& r) {
  const MetricsReport& m = r.m;
  const size_t from = static_cast<size_t>(spec.warmup / kSec);
  const size_t to = static_cast<size_t>(spec.horizon / kSec);
  if (w == "kv_txn") {
    const TxnReport& t = m.txn;
    r.ops = t.committed;
    r.attempted = t.submitted;
    r.failed = t.kv_mismatches;
    r.ops_per_s = MeanOpsPerSec(t.committed_per_sec, from, to);
    r.p50_ms = t.single_p50_ms;
    r.p99_ms = t.cross_shard_p99_ms;
    r.p99_samples = t.committed_cross;
    r.success_frac =
        t.submitted > 0 ? 1.0 - static_cast<double>(t.aborted) /
                                    static_cast<double>(t.submitted)
                        : 0.0;
  } else {
    const WorkloadReport& wr = m.workload;
    r.ops = wr.requests_completed;
    r.attempted = wr.requests_sent;
    r.failed = wr.requests_dropped + wr.requests_abandoned + wr.kv_mismatches;
    r.ops_per_s = m.MeanOps(from, to);
    r.p50_ms = wr.latency_p50_ms;
    r.p99_ms = wr.latency_p99_ms;
    r.p99_samples = wr.requests_completed;
    r.success_frac =
        wr.requests_sent > 0
            ? 1.0 - static_cast<double>(wr.requests_dropped +
                                        wr.requests_abandoned) /
                        static_cast<double>(wr.requests_sent)
            : 0.0;
  }

  // The correctness gate: a failed check fails the run.
  Check(r, m.committed > 0 && r.ops > 0, "nothing committed");
  const uint64_t want_closures = w == "aware_attack" ? 1 : 0;
  Check(r, m.event_core.closure_events == want_closures,
        "closure_events=" + std::to_string(m.event_core.closure_events) +
            " (want " + std::to_string(want_closures) + ")");
  if (w == "aware_attack") {
    // OptiLog detects the attack and reconfigures: the scheduled Aware
    // optimization plus at least one mitigation after the attack begins.
    const bool mitigated =
        !m.reconfig_times.empty() && m.reconfig_times.back() > spec.attack_at;
    Check(r, m.suspicions > 0 && m.reconfigurations >= 2 && mitigated,
          "attack not mitigated: suspicions=" + std::to_string(m.suspicions) +
              " reconfigurations=" + std::to_string(m.reconfigurations));
  }
  if (w != "optitree_world") {
    const uint64_t mismatches =
        w == "kv_txn" ? m.txn.kv_mismatches : m.workload.kv_mismatches;
    const uint64_t checks =
        w == "kv_txn" ? m.txn.kv_checks : m.workload.kv_checks;
    Check(r, checks > 0, "KV oracle checked nothing");
    Check(r, mismatches == 0,
          "kv_mismatches=" + std::to_string(mismatches));
    Check(r, m.statemachine.enabled && m.statemachine.digests_equal == 1,
          "replica state digests disagree");
  }
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

PlainResult RunPlain(const std::string& w, uint64_t seed, const Spec& spec) {
  PlainResult r;
  {
    double c0 = CpuSeconds();
    Instance inst = BuildWorkload(w, seed, spec, /*traced=*/false);
    r.setup_s.push_back(CpuSeconds() - c0);
    const Clock::time_point t0 = Clock::now();
    c0 = CpuSeconds();
    inst.Start();
    inst.RunUntil(spec.horizon);
    r.run_s = CpuSeconds() - c0;
    r.run_wall_s = SecondsSince(t0);
    r.m = inst.Metrics();
    // Read before the extra builds below, so the peak is one build + run.
    r.peak_rss_mb = PeakRssMb();
  }
  // More samples of Build() alone; each is torn down untimed.
  for (int i = 1; i < spec.setup_reps; ++i) {
    const double c0 = CpuSeconds();
    Instance extra = BuildWorkload(w, seed, spec, /*traced=*/false);
    r.setup_s.push_back(CpuSeconds() - c0);
  }
  r.fingerprint = MetricsFingerprint(r.m);
  Summarize(w, spec, r);
  return r;
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics.

struct Tally {
  uint64_t count = 0;
  double host_s = 0.0;
};

// Handler class of one executed event, the key step time is charged to.
struct DispatchKey {
  uint16_t kind = 0;        // TraceKind::kDispatch{Delivery,Timer,Closure}
  uint16_t family_type = 0;  // (family << 8) | msg type, deliveries only
  bool to_client = false;   // receiver is not a replica
  // Index into the Tally table (kind <= 3).
  size_t Index() const {
    return ((static_cast<size_t>(kind) * 2 + (to_client ? 1 : 0)) << 16) |
           family_type;
  }
  static DispatchKey FromIndex(size_t i) {
    DispatchKey k;
    k.kind = static_cast<uint16_t>((i >> 16) / 2);
    k.to_client = ((i >> 16) & 1) != 0;
    k.family_type = static_cast<uint16_t>(i & 0xffff);
    return k;
  }
};
constexpr size_t kDispatchKeySlots = size_t{8} << 16;
// Count and host time per DispatchKey, indexed by DispatchKey::Index(). A flat
// table keeps the bookkeeping between timed steps short.
using TallyTable = std::vector<Tally>;

bool IsDispatch(const TraceRecord& r) {
  return r.kind == static_cast<uint16_t>(TraceKind::kDispatchDelivery) ||
         r.kind == static_cast<uint16_t>(TraceKind::kDispatchTimer) ||
         r.kind == static_cast<uint16_t>(TraceKind::kDispatchClosure);
}

DispatchKey KeyOf(const TraceRecord& r, uint32_t n) {
  DispatchKey k;
  k.kind = r.kind;
  if (r.kind == static_cast<uint16_t>(TraceKind::kDispatchDelivery)) {
    k.family_type = r.type;
    k.to_client = r.actor >= n;
  }
  return k;
}

uint16_t FamilyType(MsgFamily f, int type) {
  return static_cast<uint16_t>((static_cast<uint16_t>(f) << 8) |
                               (static_cast<uint16_t>(type) & 0xff));
}

// Sums the tallies whose key matches `pred`.
template <typename Pred>
Tally Sum(const TallyTable& t, Pred pred) {
  Tally s;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].count > 0 && pred(DispatchKey::FromIndex(i))) {
      s.count += t[i].count;
      s.host_s += t[i].host_s;
    }
  }
  return s;
}

Tally OfType(const TallyTable& t, MsgFamily f, int type) {
  const uint16_t ft = FamilyType(f, type);
  return Sum(t, [ft](const DispatchKey& k) {
    return k.kind == static_cast<uint16_t>(TraceKind::kDispatchDelivery) &&
           k.family_type == ft;
  });
}

Tally OfFamily(const TallyTable& t, MsgFamily f) {
  return Sum(t, [f](const DispatchKey& k) {
    return k.kind == static_cast<uint16_t>(TraceKind::kDispatchDelivery) &&
           (k.family_type >> 8) == static_cast<uint16_t>(f);
  });
}

// Median nanoseconds per call of `fn` over `rounds` rounds of `calls` calls.
template <typename Fn>
double MedianNsPerCall(int rounds, int calls, Fn&& fn) {
  std::vector<double> ns;
  for (int r = 0; r < rounds; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < calls; ++i) {
      fn(i);
    }
    ns.push_back(SecondsSince(t0) * 1e9 / calls);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

volatile double g_sink = 0.0;  // keeps timed calls from being optimized away

// KvStateMachine::Apply over operations drawn with the workload's mix and
// one replica's key range: single-key ops for aware_attack (one client per
// replica, KvWorkloadOptions' keys per client), 2-key kMulti transaction
// records for kv_txn (every client's private keys on a shard, plus the hot
// keys).
double ApplyNs(const std::string& w, uint64_t seed, uint32_t clients) {
  Rng rng(seed);
  const bool txn = w == "kv_txn";
  const KvWorkloadOptions kv;
  const TxnWorkloadOptions t = TxnOptions(seed);
  const uint32_t get_pct = txn ? t.get_pct : kv.get_pct;
  const uint32_t put_pct = txn ? t.put_pct : kv.put_pct;
  const uint64_t keyspace =
      txn ? uint64_t{t.clients_per_shard} * kTxnShards *
                    t.keys_per_client_shard +
                t.hot_keys
          : uint64_t{clients} * kv.keys_per_client;
  auto draw = [&]() {
    KvOp op;
    const uint64_t roll = rng.Below(100);
    op.kind = roll < get_pct             ? KvOpKind::kGet
              : roll < get_pct + put_pct ? KvOpKind::kPut
                                         : KvOpKind::kAdd;
    op.key = rng.Below(keyspace);
    op.arg = rng.Below(1000) + 1;
    return op;
  };
  std::vector<Bytes> ops;
  for (int i = 0; i < 4096; ++i) {
    if (txn) {
      KvTxnOp op;
      op.tag = TxnTag::kMulti;
      op.ops.resize(t.keys_per_txn);
      for (KvOp& o : op.ops) {
        o = draw();
      }
      ops.push_back(op.Encode());
    } else {
      ops.push_back(draw().Encode());
    }
  }
  KvStateMachine sm;
  return MedianNsPerCall(7, 20'000, [&](int i) {
    g_sink = g_sink + static_cast<double>(sm.Apply(ops[i & 4095]).size());
  });
}

struct TracedResult {
  std::string fingerprint;
  std::vector<std::pair<std::string, double>> layers;
  std::vector<std::string> errors;
};

TracedResult RunTraced(const std::string& w, uint64_t seed, const Spec& spec,
                       const PlainResult& plain) {
  TracedResult tr;
  Instance inst = BuildWorkload(w, seed, spec, /*traced=*/true);
  const uint32_t n = inst.n();
  TallyTable tally(kDispatchKeySlots);
  const bool stepped = inst.d != nullptr;
  uint64_t steps = 0;
  double stepped_s = 0.0;

  const Clock::time_point t0 = Clock::now();
  const double c0 = CpuSeconds();
  inst.Start();
  if (stepped) {
    Simulator& sim = inst.d->sim();
    const std::vector<TraceRecord>& recs = sim.trace()->records();
    SimTime at = 0;
    while (sim.PeekEarliest(&at) && at <= spec.horizon) {
      const size_t before = recs.size();
      const Clock::time_point s0 = Clock::now();
      sim.Step();
      const double dt =
          std::chrono::duration<double>(Clock::now() - s0).count();
      // Dispatch emits its record before running the handler, so the first
      // record this step appended is the step's own dispatch record.
      if (recs.size() <= before || !IsDispatch(recs[before])) {
        tr.errors.push_back("step without a dispatch record");
        break;
      }
      Tally& t = tally[KeyOf(recs[before], n).Index()];
      ++t.count;
      t.host_s += dt;
      stepped_s += dt;
      ++steps;
    }
    sim.RunUntil(spec.horizon);  // advances the clock; nothing left to run
  } else {
    inst.RunUntil(spec.horizon);
  }
  const double traced_wall = SecondsSince(t0);
  const double traced_cpu = CpuSeconds() - c0;

  const MetricsReport m = inst.Metrics();
  tr.fingerprint = MetricsFingerprint(m);
  if (tr.fingerprint != plain.fingerprint) {
    tr.errors.push_back("traced fingerprint differs from the untraced one");
  }
  // A single simulator's records are already in the merged (t, id) order;
  // reading them in place saves a copy of the whole trace.
  std::vector<TraceRecord> merged;
  if (!stepped) {
    merged = inst.TraceRecords();
  }
  const std::vector<TraceRecord>& records =
      stepped ? inst.d->sim().trace()->records() : merged;
  uint64_t dispatch_records = 0;
  if (stepped) {
    for (const TraceRecord& r : records) {
      dispatch_records += IsDispatch(r) ? 1 : 0;
    }
    if (dispatch_records != steps) {
      tr.errors.push_back("steps and dispatch records do not pair up");
    }
  } else {
    for (const TraceRecord& r : records) {
      if (IsDispatch(r)) {
        ++tally[KeyOf(r, n).Index()].count;
      }
    }
  }

  const double ops = static_cast<double>(std::max<uint64_t>(plain.ops, 1));
  const EventCoreStats& ec = m.event_core;
  auto add = [&tr](const std::string& name, double v) {
    tr.layers.emplace_back(name, v);
  };

  // sim
  add("sim.events", static_cast<double>(ec.events_executed));
  add("sim.events_per_op", static_cast<double>(ec.events_executed) / ops);
  add("sim.ns_per_event",
      plain.run_s * 1e9 /
          static_cast<double>(std::max<uint64_t>(ec.events_executed, 1)));
  add("sim.pool_hit_rate", ec.message_pool_hit_rate());
  add("sim.peak_slab_slots", static_cast<double>(ec.peak_slab_slots));
  add("sim.wheel_overflow_events",
      static_cast<double>(ec.wheel_overflow_events));
  add("sim.timer.host_s",
      Sum(tally, [](const DispatchKey& k) {
        return k.kind == static_cast<uint16_t>(TraceKind::kDispatchTimer);
      }).host_s);

  // net
  add("net.msgs_per_op", static_cast<double>(m.wire_messages) / ops);

  // crypto: every delivered vote carries one KeyStore signature.
  const Tally votes = OfType(tally, MsgFamily::kHotStuff, kMsgVote);
  add("crypto.signs_per_op", static_cast<double>(votes.count) / ops);
  Deployment& pd = inst.primary();
  {
    VoteMsg vote;
    vote.view = 7;
    const Bytes signing = vote.SigningBytes();
    const KeyStore& keys = pd.keys();
    add("crypto.sign_ns", MedianNsPerCall(7, 20'000, [&](int i) {
          const Signature s = keys.Sign(static_cast<ReplicaId>(i % pd.n()),
                                        signing);
          g_sink = g_sink + s.bytes[0];
        }));
  }

  // hotstuff
  const Tally propose = Sum(tally, [](const DispatchKey& k) {
    return k.kind == static_cast<uint16_t>(TraceKind::kDispatchDelivery) &&
           (k.family_type == FamilyType(MsgFamily::kHotStuff, kMsgPropose) ||
            k.family_type == FamilyType(MsgFamily::kHotStuff, kMsgForward));
  });
  const Tally aggregate = OfType(tally, MsgFamily::kHotStuff, kMsgAggregate);
  add("hotstuff.host_s", OfFamily(tally, MsgFamily::kHotStuff).host_s);
  add("hotstuff.propose.count", static_cast<double>(propose.count));
  add("hotstuff.propose.host_s", propose.host_s);
  add("hotstuff.vote.count", static_cast<double>(votes.count));
  add("hotstuff.vote.host_s", votes.host_s);
  add("hotstuff.aggregate.count", static_cast<double>(aggregate.count));
  add("hotstuff.aggregate.host_s", aggregate.host_s);

  // pbft
  const Tally pre = OfType(tally, MsgFamily::kPbft, kMsgPrePrepare);
  const Tally write = OfType(tally, MsgFamily::kPbft, kMsgWrite);
  const Tally accept = OfType(tally, MsgFamily::kPbft, kMsgAccept);
  add("pbft.host_s", OfFamily(tally, MsgFamily::kPbft).host_s);
  add("pbft.preprepare.count", static_cast<double>(pre.count));
  add("pbft.preprepare.host_s", pre.host_s);
  add("pbft.write.count", static_cast<double>(write.count));
  add("pbft.write.host_s", write.host_s);
  add("pbft.accept.count", static_cast<double>(accept.count));
  add("pbft.accept.host_s", accept.host_s);

  // aware + core: the OptiAware sensor path on the end-of-run configuration
  // and latency matrix (0 where the workload runs no Aware configuration).
  const bool pbft = pd.protocol() == Protocol::kOptiAware;
  double accept_ns = 0.0;
  const LatencyMatrix& matrix = pbft ? pd.pbft().matrix() : pd.matrix();
  if (pbft) {
    const PbftHarness& h = pd.pbft();
    const uint32_t u = h.pipeline().suspicion_monitor().Current().u;
    const uint32_t pn = pd.n();
    accept_ns = MedianNsPerCall(7, 20'000, [&](int i) {
      const ReplicaId from = static_cast<ReplicaId>(i % pn);
      const ReplicaId to = static_cast<ReplicaId>((i / pn) % pn);
      g_sink = g_sink + AwareAcceptTimeoutMs(h.config(), h.scheme(), matrix,
                                             from, to, u);
    });
  }
  add("aware.accept_timeout_ns", accept_ns);
  {
    // Coverage is O(n^2): size each round at ~2M pair visits.
    const uint64_t pairs = uint64_t{matrix.size()} * matrix.size() + 1;
    const int calls =
        static_cast<int>(std::max<uint64_t>(1, 2'000'000 / pairs));
    add("core.coverage_ns", MedianNsPerCall(7, calls, [&](int) {
          g_sink = g_sink + matrix.Coverage();
        }));
  }
  add("core.suspicions", static_cast<double>(m.suspicions));
  add("core.reconfigurations", static_cast<double>(m.reconfigurations));

  // tree: the initial SA search with the deployment's matrix and budget
  // (0 for the PBFT family, which anneals no tree).
  double anneal_s = 0.0;
  if (IsTreeProtocol(pd.protocol())) {
    std::vector<ReplicaId> all(pd.n());
    for (ReplicaId id = 0; id < pd.n(); ++id) {
      all[id] = id;
    }
    const AnnealingParams params =
        AnnealingParams::ForBudget(kWorldSearchIters);
    const int rounds = w == "optitree_world" ? 3 : 7;
    anneal_s = MedianNsPerCall(rounds, 1, [&](int) {
                 Rng rng(kDeploymentSeed);
                 const TreeTopology t = AnnealTree(pd.n(), all, pd.matrix(),
                                                   2 * pd.f() + 1, rng, params);
                 g_sink = g_sink + t.root();
               }) /
               1e9;
  }
  add("tree.anneal_s", anneal_s);

  // workload
  const WorkloadReport& wr = m.workload;
  add("workload.host_s", OfFamily(tally, MsgFamily::kWorkload).host_s);
  add("workload.batch_mean",
      m.committed > 0 ? static_cast<double>(m.total_commands) /
                            static_cast<double>(m.committed)
                      : 0.0);
  add("workload.peak_queue", static_cast<double>(wr.peak_queue_depth));
  add("workload.retried",
      static_cast<double>(wr.requests_retried + m.txn.retried));

  // request stages (means per complete request chain; batch and apply are
  // zero by construction and left out)
  const StageBreakdown sb = ComputeStageBreakdown(records);
  const double chains =
      static_cast<double>(std::max<uint64_t>(sb.requests, 1));
  add("stage.client_net_ms", sb.client_net_ms / chains);
  add("stage.queue_ms", sb.queue_ms / chains);
  add("stage.consensus_ms", sb.consensus_ms / chains);
  add("stage.reply_ms", sb.reply_ms / chains);

  // statemachine
  add("statemachine.applied", static_cast<double>(m.statemachine.applied));
  add("statemachine.checkpoints",
      static_cast<double>(m.statemachine.checkpoints));
  add("statemachine.peak_log_entries",
      static_cast<double>(m.statemachine.peak_log_entries));
  add("statemachine.apply_ns",
      m.statemachine.enabled ? ApplyNs(w, seed, pd.n()) : 0.0);

  // shard
  const TxnReport& t = m.txn;
  add("shard.host_s", OfFamily(tally, MsgFamily::kShard).host_s);
  add("shard.prepares_per_txn",
      t.committed_cross > 0 ? static_cast<double>(t.prepares_sent) /
                                  static_cast<double>(t.committed_cross)
                            : 0.0);
  add("shard.votes_no", static_cast<double>(t.votes_no));
  add("shard.single_p99_ms", t.single_p99_ms);
  add("shard.cross_p50_ms", t.cross_shard_p50_ms);
  add("shard.partitions", static_cast<double>(ec.partitions));

  // obs: what tracing costs (CPU time, like run_s), and how much of the
  // traced wall the stepped handler timings (wall) account for.
  add("obs.trace_overhead", plain.run_s > 0 ? traced_cpu / plain.run_s : 0.0);
  add("obs.attributed_frac", stepped ? stepped_s / traced_wall : 0.0);
  return tr;
}

// ---------------------------------------------------------------------------
// Output.

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload "
               "<aware_attack|optitree_world|kv_txn> --seed <n> [--traced] "
               "[--scale <f>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  double scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--scale" && has_value) {
      scale = std::atof(argv[++i]);
    } else if (a == "--traced") {
      traced = true;
    } else {
      return Usage();
    }
  }
  if ((workload != "aware_attack" && workload != "optitree_world" &&
       workload != "kv_txn") ||
      !(scale > 0.0 && scale <= 1.0)) {
    return Usage();
  }
  const Spec spec = SpecFor(workload, scale);
  if (spec.horizon <= spec.warmup) {
    return Usage();
  }

  const PlainResult plain = RunPlain(workload, seed, spec);
  std::vector<std::string> errors = plain.errors;
  TracedResult tr;
  if (traced) {
    tr = RunTraced(workload, seed, spec, plain);
    errors.insert(errors.end(), tr.errors.begin(), tr.errors.end());
  }
  const double ops = static_cast<double>(std::max<uint64_t>(plain.ops, 1));

  std::string out = "{";
  out += "\"workload\":" + Quote(workload);
  out += ",\"seed\":" + std::to_string(seed);
  out += ",\"fingerprint\":" + Quote(plain.fingerprint);
  out += ",\"setup_s\":[";
  for (size_t i = 0; i < plain.setup_s.size(); ++i) {
    out += (i > 0 ? "," : "") + Num(plain.setup_s[i]);
  }
  out += "],\"run_s\":" + Num(plain.run_s);
  out += ",\"run_wall_s\":" + Num(plain.run_wall_s);
  out += ",\"peak_rss_mb\":" + Num(plain.peak_rss_mb);
  out += ",\"attempted\":" + std::to_string(plain.attempted);
  out += ",\"failed\":" + std::to_string(plain.failed);
  out += ",\"ops\":" + std::to_string(plain.ops);
  out += ",\"ops_per_s\":" + Num(plain.ops_per_s);
  out += ",\"client_p50_ms\":" + Num(plain.p50_ms);
  out += ",\"client_p99_ms\":" + Num(plain.p99_ms);
  out += ",\"client_p99_samples\":" + std::to_string(plain.p99_samples);
  out += ",\"success_frac\":" + Num(plain.success_frac);
  out += ",\"wire_bytes_per_op\":" +
         Num(static_cast<double>(plain.m.wire_bytes) / ops);
  if (traced) {
    out += ",\"traced_fingerprint\":" + Quote(tr.fingerprint);
    out += ",\"layers\":{";
    for (size_t i = 0; i < tr.layers.size(); ++i) {
      out += (i > 0 ? "," : "") + Quote(tr.layers[i].first) + ":" +
             Num(tr.layers[i].second);
    }
    out += "}";
  }
  out += ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    out += (i > 0 ? "," : "") + Quote(errors[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace optilog

int main(int argc, char** argv) { return optilog::Main(argc, argv); }
