// Scenario registry: every paper figure (and every new workload) is a named,
// parameterized, deterministic transition-system run instead of a standalone
// binary with an ad-hoc main().
//
// A Scenario names a typed parameter grid and a run function for one grid
// point. The runner (runner.h) enumerates the grid, executes the points —
// possibly concurrently, one Deployment per point — and assembles a
// ScenarioRunResult whose JSON is byte-identical at any thread count. The
// only requirement on run functions is self-containment: all randomness
// derives from the Params (seeds included), and nothing outside the point's
// own Deployment/Rng is mutated. See DESIGN.md, "Scenario runner".
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/rsm/metrics.h"

namespace optilog {

// One resolved grid point: ordered name -> value pairs with typed getters.
// Values are strings at the seam (they came from an axis or a CLI override);
// getters OL_CHECK on missing names and malformed numbers, so a scenario
// typo fails loudly on the first run.
class Params {
 public:
  Params() = default;

  Params& Set(std::string name, std::string value);
  const std::string& Get(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;

  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

  // "geo=Europe21 delta=1.2" — for logs and row labels.
  std::string Label() const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

// One sweep axis; the grid is the cartesian product of the axes, enumerated
// with the last axis varying fastest (row-major, declaration order).
struct ParamAxis {
  std::string name;
  std::vector<std::string> values;
};

// What one grid point reports back. Everything here must be a pure function
// of the Params — rows and metrics land in the deterministic JSON and in the
// scenario digest.
struct PointResult {
  // Rows under the scenario's column schema, pre-formatted (FormatDouble /
  // std::to_string) so the JSON bytes don't depend on printf locale.
  std::vector<std::vector<std::string>> rows;
  // Named scalar metrics — the values compare_bench.py checks tolerances on.
  std::vector<std::pair<std::string, double>> metrics;
  // Gauge time-series (name -> sampled values), filled by points that run
  // with gauge sampling on. Deterministic — lands in the JSON body and the
  // scenario digest; compare_bench.py checks the arrays element-wise.
  std::vector<std::pair<std::string, std::vector<double>>> timeseries;
  // Event-core counters of the point's simulator (zeros when the point ran
  // no Deployment). Wall-clock-derived fields never reach the JSON.
  EventCoreStats event_core;
  // Determinism pin: the deployment's log-head digest when it has a
  // measurement bus, else MetricsFingerprint(); empty for pure-computation
  // points whose rows already pin everything.
  std::string digest;
  // Wall clock of this point's run function, filled by the runner. Advisory:
  // serialized only into the full JSON (never digested), so per-point perf —
  // e.g. fig08's MIS-time-vs-n curve — stays observable without breaking
  // the byte-identical contract.
  double wall_ms = 0.0;
  // Set only for repeated runs: the fastest wall, with wall_ms the median.
  std::optional<double> wall_ms_min;
};

// Optional deterministic reduction across all points (e.g. mean/CI over the
// seed axis), computed in grid order after the sweep completes.
struct SummaryTable {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

struct Scenario {
  std::string name;         // CLI handle and BENCH_<name>.json stem
  std::string description;  // one-liner for --list
  std::vector<std::string> tags;  // e.g. "tier1", "figure", "sweep"
  std::vector<std::string> columns;
  // Either a cartesian grid...
  std::vector<ParamAxis> grid;
  // ...or an explicit point list for non-rectangular sweeps (takes
  // precedence when non-empty).
  std::vector<Params> points;
  std::function<PointResult(const Params&)> run;
  std::function<SummaryTable(const std::vector<PointResult>&)> finalize;
  // Optional flight-recorder hook (optilog_bench --trace): re-runs the given
  // grid point with tracing enabled and returns the Chrome trace-event JSON
  // (src/obs/chrome_export.h). Unset = scenario doesn't support --trace.
  std::function<std::string(const Params&)> trace;

  bool HasTag(const std::string& tag) const;
};

// Grid enumeration in the canonical (deterministic) order.
std::vector<Params> EnumeratePoints(const Scenario& s);

class ScenarioRegistry {
 public:
  static ScenarioRegistry& Instance();

  void Register(Scenario s);  // aborts on duplicate names
  const Scenario* Find(const std::string& name) const;
  std::vector<const Scenario*> All() const;  // name-sorted
  std::vector<const Scenario*> WithTag(const std::string& tag) const;

 private:
  std::map<std::string, Scenario> scenarios_;
};

// Static-initializer hook: scenario translation units do
//   static ScenarioRegistrar reg(MakeFig09Scenario());
// and must be linked directly into the CLI / test executable (not through a
// static library, where the linker may drop the initializer).
struct ScenarioRegistrar {
  explicit ScenarioRegistrar(Scenario s);
};

// SHA-256 over every deterministic field of a MetricsReport: counts, the
// formatted latency, the per-second series, reconfig/suspicion times, the
// log head, the event-core and wire counters, and every section (workload,
// state machine, transactions, time series, crypto) with its `enabled`
// flag, in one schema whatever ran. Only host time (wall_seconds) and the
// constant partition count stay out. Two runs with equal fingerprints
// executed the same schedule; this is the digest sweeps pin when the
// deployment has no measurement bus of its own.
std::string MetricsFingerprint(const MetricsReport& m);

// Canonical double formatting (std::to_chars shortest form) shared by rows,
// metrics, and the fingerprint. Never use printf floats in scenario rows.
std::string FormatDouble(double v);

}  // namespace optilog
