// Executes scenarios: enumerates the grid, runs points on `threads` threads
// (one Deployment per point), and assembles the result in grid order so the
// JSON is byte-identical at any thread count.
//
// JSON layout of BENCH_<scenario>.json (see DESIGN.md, "Scenario runner"):
//
//   {
//     "scenario": "fig09_baselines",
//     "columns": ["geo", "protocol", "ops_per_sec", "latency_ms"],
//     "points": [
//       {"params": {"geo": "Europe21", ...},
//        "rows": [["Europe21", "OptiTree", "812", "331.4"], ...],
//        "metrics": {"ops_per_sec": 812.0, ...},
//        "event_core": {"events_executed": 123, ...},
//        "digest": "<hex>",
//        "wall_ms": 87.2,                             // advisory, undigested
//        "wall_ms_min": 80.1},                        // only when repeated
//       ...
//     ],
//     "summary": {"columns": [...], "rows": [...]},   // only with finalize
//     "digest": "<sha256 hex over the above minus wall fields>",
//     "wall_ms": 1234.5,                              // advisory, undigested
//     "wall_ms_min": 1201.7                           // only when repeated
//   }
//
// Repeated runs report their median as wall_ms. Everything except the wall
// fields is deterministic; tools/compare_bench.py treats them as advisory
// and gates on the rest.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/runner/scenario.h"

namespace optilog {

// Runs fn(0) .. fn(count - 1) on the calling thread plus threads - 1 helper
// threads (none when threads <= 1), blocking until every call returns. Each
// thread claims the next index from one shared counter, last index first:
// grids list sizes and loads in increasing order, so the expensive points
// start first instead of trailing the sweep. fn must be safe to call
// concurrently for distinct indices; points share no mutable state and
// store results by index, which is why the order never leaks into the
// output. If any call throws, the first exception caught is rethrown after
// every call has returned.
void ParallelFor(unsigned threads, size_t count,
                 const std::function<void(size_t)>& fn);

struct ScenarioRunResult {
  std::string scenario;
  std::vector<std::string> columns;
  std::vector<Params> params;        // grid order
  std::vector<PointResult> points;   // parallel to `params`
  SummaryTable summary;              // empty without a finalize hook
  std::string digest;                // SHA-256 hex of the deterministic JSON
  double wall_ms = 0.0;              // advisory
  std::optional<double> wall_ms_min;  // advisory, set only when repeated
};

ScenarioRunResult RunScenario(const Scenario& s, unsigned threads = 1);

// The digested portion: everything but wall_ms. Byte-identical across
// thread counts for identical seeds — the determinism contract tests pin.
std::string DeterministicJson(const ScenarioRunResult& r);

// DeterministicJson plus the advisory wall fields: BENCH_<name>.json.
std::string FullJson(const ScenarioRunResult& r);

}  // namespace optilog
