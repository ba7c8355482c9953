#include "src/runner/scenario.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "src/crypto/sha256.h"
#include "src/util/check.h"

namespace optilog {

Params& Params::Set(std::string name, std::string value) {
  for (auto& [k, v] : entries_) {
    if (k == name) {
      v = std::move(value);
      return *this;
    }
  }
  entries_.emplace_back(std::move(name), std::move(value));
  return *this;
}

const std::string& Params::Get(const std::string& name) const {
  for (const auto& [k, v] : entries_) {
    if (k == name) {
      return v;
    }
  }
  OL_CHECK_MSG(false, name.c_str());
  __builtin_unreachable();
}

int64_t Params::GetInt(const std::string& name) const {
  const std::string& v = Get(name);
  int64_t out = 0;
  const auto res = std::from_chars(v.data(), v.data() + v.size(), out);
  OL_CHECK_MSG(res.ec == std::errc() && res.ptr == v.data() + v.size(),
               name.c_str());
  return out;
}

double Params::GetDouble(const std::string& name) const {
  const std::string& v = Get(name);
  double out = 0;
  const auto res = std::from_chars(v.data(), v.data() + v.size(), out);
  OL_CHECK_MSG(res.ec == std::errc() && res.ptr == v.data() + v.size(),
               name.c_str());
  return out;
}

std::string Params::Label() const {
  std::string out;
  for (const auto& [k, v] : entries_) {
    if (!out.empty()) {
      out.push_back(' ');
    }
    out += k + "=" + v;
  }
  return out;
}

bool Scenario::HasTag(const std::string& tag) const {
  return std::find(tags.begin(), tags.end(), tag) != tags.end();
}

std::vector<Params> EnumeratePoints(const Scenario& s) {
  if (!s.points.empty()) {
    return s.points;
  }
  std::vector<Params> out;
  if (s.grid.empty()) {
    out.emplace_back();  // single unparameterized point
    return out;
  }
  for (const ParamAxis& axis : s.grid) {
    OL_CHECK_MSG(!axis.values.empty(), axis.name.c_str());
  }
  std::vector<size_t> idx(s.grid.size(), 0);
  for (;;) {
    Params p;
    for (size_t a = 0; a < s.grid.size(); ++a) {
      p.Set(s.grid[a].name, s.grid[a].values[idx[a]]);
    }
    out.push_back(std::move(p));
    // Odometer increment, last axis fastest.
    size_t a = s.grid.size();
    while (a > 0) {
      --a;
      if (++idx[a] < s.grid[a].values.size()) {
        break;
      }
      idx[a] = 0;
      if (a == 0) {
        return out;
      }
    }
  }
}

ScenarioRegistry& ScenarioRegistry::Instance() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::Register(Scenario s) {
  OL_CHECK_MSG(!s.name.empty(), "scenario needs a name");
  OL_CHECK_MSG(static_cast<bool>(s.run), s.name.c_str());
  OL_CHECK_MSG(scenarios_.find(s.name) == scenarios_.end(), s.name.c_str());
  scenarios_.emplace(s.name, std::move(s));
}

const Scenario* ScenarioRegistry::Find(const std::string& name) const {
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

std::vector<const Scenario*> ScenarioRegistry::All() const {
  std::vector<const Scenario*> out;
  for (const auto& [name, s] : scenarios_) {
    out.push_back(&s);
  }
  return out;  // std::map iteration is already name-sorted
}

std::vector<const Scenario*> ScenarioRegistry::WithTag(
    const std::string& tag) const {
  std::vector<const Scenario*> out;
  for (const Scenario* s : All()) {
    if (s->HasTag(tag)) {
      out.push_back(s);
    }
  }
  return out;
}

ScenarioRegistrar::ScenarioRegistrar(Scenario s) {
  ScenarioRegistry::Instance().Register(std::move(s));
}

std::string FormatDouble(double v) {
  OL_CHECK_MSG(std::isfinite(v), "rows/metrics must be finite");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

// One schema for every run: each section is folded in with its `enabled`
// flag whether or not the feature ran. Only host time (wall_seconds) and
// the constant event-core partition count stay out.
std::string MetricsFingerprint(const MetricsReport& m) {
  std::string blob;
  auto u = [&blob](uint64_t v) { blob += std::to_string(v) + "|"; };
  u(m.committed);
  u(m.total_commands);
  u(m.failed_rounds);
  u(m.reconfigurations);
  u(m.suspicions);
  blob += FormatDouble(m.mean_latency_ms) + "|";
  for (uint64_t ops : m.throughput_per_sec) {
    u(ops);
  }
  blob += "|";
  for (SimTime t : m.reconfig_times) {
    u(static_cast<uint64_t>(t));
  }
  blob += "|";
  for (SimTime t : m.suspicion_times) {
    u(static_cast<uint64_t>(t));
  }
  blob += "|" + m.log_head_hex + "|";
  u(m.event_core.events_executed);
  u(m.event_core.typed_deliveries);
  u(m.event_core.typed_timers);
  u(m.event_core.closure_events);
  u(m.event_core.cancellations);
  u(m.event_core.peak_slab_slots);
  u(m.event_core.peak_pending);
  u(m.event_core.wheel_overflow_events);
  u(m.event_core.message_pool_hits);
  u(m.event_core.message_pool_misses);
  u(m.wire_messages);
  u(m.wire_bytes);
  blob += "|";
  u(m.workload.enabled ? 1 : 0);
  u(m.workload.requests_sent);
  u(m.workload.requests_completed);
  u(m.workload.requests_retried);
  u(m.workload.requests_abandoned);
  u(m.workload.requests_accepted);
  u(m.workload.requests_dropped);
  u(m.workload.requests_deduped);
  u(m.workload.batches_size_triggered);
  u(m.workload.batches_deadline_triggered);
  u(m.workload.batches_idle_triggered);
  u(m.workload.peak_queue_depth);
  u(m.workload.kv_checks);
  u(m.workload.kv_mismatches);
  blob += FormatDouble(m.workload.latency_mean_ms) + "|";
  blob += FormatDouble(m.workload.latency_p50_ms) + "|";
  blob += FormatDouble(m.workload.latency_p95_ms) + "|";
  blob += FormatDouble(m.workload.latency_p99_ms) + "|";
  u(m.statemachine.enabled ? 1 : 0);
  u(m.statemachine.applied);
  u(m.statemachine.checkpoints);
  u(m.statemachine.truncations);
  u(m.statemachine.peak_log_entries);
  u(m.statemachine.live_log_entries);
  u(m.statemachine.digests_equal);
  blob += m.statemachine.state_digest_hex + "|";
  u(m.statemachine.recoveries_started);
  u(m.statemachine.recoveries_completed);
  u(m.statemachine.catchups_started);
  u(m.statemachine.transfer_bytes);
  u(m.statemachine.transfer_chunks);
  u(m.statemachine.transfer_reroutes);
  blob += FormatDouble(m.statemachine.catchup_ms_total) + "|";
  blob += FormatDouble(m.statemachine.catchup_ms_max) + "|";
  blob += "txn|";
  u(m.txn.enabled ? 1 : 0);
  u(m.txn.submitted);
  u(m.txn.committed);
  u(m.txn.aborted);
  u(m.txn.retried);
  u(m.txn.committed_single);
  u(m.txn.committed_cross);
  u(m.txn.prepares_sent);
  u(m.txn.votes_no);
  u(m.txn.coord_duplicates);
  u(m.txn.recovered_commits);
  u(m.txn.recovered_aborts);
  u(m.txn.kv_checks);
  u(m.txn.kv_mismatches);
  for (uint64_t t : m.txn.committed_per_sec) {
    u(t);
  }
  blob += "|";
  blob += FormatDouble(m.txn.single_mean_ms) + "|";
  blob += FormatDouble(m.txn.single_p50_ms) + "|";
  blob += FormatDouble(m.txn.single_p95_ms) + "|";
  blob += FormatDouble(m.txn.single_p99_ms) + "|";
  blob += FormatDouble(m.txn.cross_mean_ms) + "|";
  blob += FormatDouble(m.txn.cross_shard_p50_ms) + "|";
  blob += FormatDouble(m.txn.cross_shard_p95_ms) + "|";
  blob += FormatDouble(m.txn.cross_shard_p99_ms) + "|";
  blob += "ts|";
  u(m.timeseries.enabled ? 1 : 0);
  u(static_cast<uint64_t>(m.timeseries.interval));
  for (const TimeseriesReport::Series& s : m.timeseries.series) {
    blob += s.name + "|";
    for (double v : s.values) {
      blob += FormatDouble(v) + "|";
    }
  }
  blob += "crypto|";
  u(m.crypto.enabled ? 1 : 0);
  u(m.crypto.signs);
  u(m.crypto.verifies);
  u(m.crypto.hashes);
  u(m.crypto.hashed_bytes);
  u(m.crypto.qc_aggregated_shares);
  u(m.crypto.qc_verifies);
  u(m.crypto.busy_ns_total);
  u(m.crypto.busy_ns_max_replica);
  return DigestHex(Sha256::Hash(blob));
}

}  // namespace optilog
