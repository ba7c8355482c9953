// optilog_bench: the one bench CLI. Every figure reproduction and workload
// is a registered Scenario (bench/scenarios/); this binary lists them,
// filters by name or tag, runs any subset — sweeping grid points across
// --threads threads (ParallelFor) — and emits BENCH_<scenario>.json files that
// tools/compare_bench.py can gate CI on.
//
//   optilog_bench --list
//   optilog_bench fig09_baselines fig15_reconfig_timeline
//   optilog_bench --tag tier1 --threads 8 --json out/
//   optilog_bench --tag tier1 --repeat 5 --quiet
//
// Determinism contract: identical seeds produce byte-identical JSON
// (everything but the advisory wall fields) at any --threads value, and
// every --repeat repetition reproduces the first's point digests.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/runner/runner.h"
#include "src/runner/scenario.h"

namespace optilog {
namespace {

int Usage(FILE* out) {
  std::fprintf(
      out,
      "usage: optilog_bench [options] [scenario...]\n"
      "\n"
      "Runs registered benchmark scenarios (paper figures and workloads).\n"
      "Select scenarios by name, by --tag, or all of them with --all.\n"
      "\n"
      "options:\n"
      "  --list          list scenarios (name, tags, grid points, summary)\n"
      "  --tag TAG       run every scenario carrying TAG (repeatable)\n"
      "  --all           run every registered scenario\n"
      "  --threads N     worker threads for grid sweeps (default: hardware\n"
      "                  concurrency; results are identical at any N)\n"
      "  --repeat N      run each scenario N times (default 1) and report the\n"
      "                  median wall as wall_ms and the fastest as\n"
      "                  wall_ms_min; a point digest that differs from the\n"
      "                  first run's is a failure\n"
      "  --json DIR      write BENCH_<scenario>.json files into DIR\n"
      "  --trace SPEC    flight-recorder export: SPEC is\n"
      "                  <scenario>:<point index>:<output path>. Re-runs the\n"
      "                  grid point with tracing + gauge sampling on and\n"
      "                  writes Chrome trace-event JSON (load it in\n"
      "                  chrome://tracing or feed tools/trace_stats.py).\n"
      "                  Only scenarios marked 'trace' in --list support it.\n"
      "  --quiet         suppress per-row tables (summaries still print)\n"
      "  --help          this text\n"
      "\n"
      "exit status: 0 on success, 1 on scenario failure, 2 on bad usage\n"
      "(unknown scenario or tag names are bad usage, so CI failures are\n"
      "legible).\n");
  return out == stderr ? 2 : 0;
}

void ListScenarios() {
  BenchReporter report("scenarios",
                       {"name", "tags", "points", "trace", "description"});
  for (const Scenario* s : ScenarioRegistry::Instance().All()) {
    std::string tags;
    for (const auto& t : s->tags) {
      tags += (tags.empty() ? "" : ",") + t;
    }
    report.AddRow({s->name, tags,
                   std::to_string(EnumeratePoints(*s).size()),
                   s->trace ? "trace" : "-",
                   s->description});
  }
  std::fputs(report.ToTable().c_str(), stdout);
}

void PrintResult(const ScenarioRunResult& r, bool quiet, unsigned repeat) {
  PrintHeader(r.scenario.c_str());
  if (!quiet) {
    BenchReporter rows(r.scenario, r.columns);
    for (const PointResult& p : r.points) {
      for (const auto& row : p.rows) {
        rows.AddRow(row);
      }
    }
    rows.Print();
  }
  if (!r.summary.rows.empty()) {
    std::printf("summary:\n");
    BenchReporter summary(r.scenario + ".summary", r.summary.columns);
    for (const auto& row : r.summary.rows) {
      summary.AddRow(row);
    }
    summary.Print();
  }
  if (r.wall_ms_min.has_value()) {
    std::printf("digest %s  wall %.1f ms median of %u, %.1f ms min\n",
                r.digest.c_str(), r.wall_ms, repeat, *r.wall_ms_min);
  } else {
    std::printf("digest %s  wall %.1f ms\n", r.digest.c_str(), r.wall_ms);
  }
}

// The median (the mean of the middle two for an even count) and the
// minimum of a non-empty sample of walls.
void SummarizeWalls(std::vector<double> walls, double* median,
                    std::optional<double>* min) {
  std::sort(walls.begin(), walls.end());
  const size_t mid = walls.size() / 2;
  *median = walls.size() % 2 == 1 ? walls[mid]
                                   : (walls[mid - 1] + walls[mid]) / 2;
  *min = walls.front();
}

// --repeat: runs `s` repeat - 1 more times after `first`. Each point's and
// the scenario's wall become the median over all runs, and wall_ms_min the
// fastest. The scenario digest is not compared: crypto_bench's host-timed
// metrics move it on every run. Returns false, naming the point, when a
// repetition's point digest differs from the first run's.
bool Repeat(const Scenario& s, unsigned threads, unsigned repeat,
            ScenarioRunResult& first) {
  std::vector<std::vector<double>> point_walls(first.points.size());
  for (size_t i = 0; i < first.points.size(); ++i) {
    point_walls[i].push_back(first.points[i].wall_ms);
  }
  std::vector<double> walls = {first.wall_ms};
  for (unsigned run = 2; run <= repeat; ++run) {
    const ScenarioRunResult again = RunScenario(s, threads);
    for (size_t i = 0; i < first.points.size(); ++i) {
      if (again.points[i].digest != first.points[i].digest) {
        std::fprintf(stderr,
                     "optilog_bench: %s point %zu (%s): run %u digest %s, "
                     "run 1 digest %s\n",
                     s.name.c_str(), i, first.params[i].Label().c_str(), run,
                     again.points[i].digest.c_str(),
                     first.points[i].digest.c_str());
        return false;
      }
      point_walls[i].push_back(again.points[i].wall_ms);
    }
    walls.push_back(again.wall_ms);
  }
  for (size_t i = 0; i < first.points.size(); ++i) {
    SummarizeWalls(point_walls[i], &first.points[i].wall_ms,
                   &first.points[i].wall_ms_min);
  }
  SummarizeWalls(walls, &first.wall_ms, &first.wall_ms_min);
  return true;
}

// A count flag's value: plain digits in [1, max]. strtoul alone would
// happily wrap "-2".
bool ParseCount(const std::string& v, unsigned long max, unsigned* out) {
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(v.c_str(), &end, 10);
  if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0])) ||
      *end != '\0' || parsed < 1 || parsed > max) {
    return false;
  }
  *out = static_cast<unsigned>(parsed);
  return true;
}

// --trace <scenario>:<point index>:<path>: re-run one grid point with the
// flight recorder (tracing + gauge sampling) on and write its Chrome
// trace-event JSON. Malformed specs, unknown scenarios, untraceable
// scenarios, and out-of-range point indexes are all bad usage (exit 2) with
// the valid alternatives listed, mirroring the unknown-scenario handler.
int RunTraceExport(const std::string& spec) {
  const size_t first = spec.find(':');
  const size_t second = first == std::string::npos
                            ? std::string::npos
                            : spec.find(':', first + 1);
  if (second == std::string::npos || second + 1 >= spec.size()) {
    std::fprintf(stderr,
                 "optilog_bench: --trace wants <scenario>:<point index>:"
                 "<path>, got '%s'\n\n", spec.c_str());
    return Usage(stderr);
  }
  const std::string name = spec.substr(0, first);
  const std::string point_str = spec.substr(first + 1, second - first - 1);
  const std::string path = spec.substr(second + 1);

  const ScenarioRegistry& registry = ScenarioRegistry::Instance();
  const Scenario* s = registry.Find(name);
  if (s == nullptr || !s->trace) {
    std::fprintf(stderr, "optilog_bench: %s '%s'\n",
                 s == nullptr ? "unknown scenario"
                              : "no trace support in scenario",
                 name.c_str());
    std::fprintf(stderr, "scenarios with trace support:\n");
    for (const Scenario* have : registry.All()) {
      if (have->trace) {
        std::fprintf(stderr, "  %s\n", have->name.c_str());
      }
    }
    return 2;
  }
  const std::vector<Params> points = EnumeratePoints(*s);
  char* end = nullptr;
  const unsigned long index = std::strtoul(point_str.c_str(), &end, 10);
  if (point_str.empty() ||
      !std::isdigit(static_cast<unsigned char>(point_str[0])) ||
      *end != '\0' || index >= points.size()) {
    std::fprintf(stderr,
                 "optilog_bench: bad trace point '%s' for scenario '%s'\n",
                 point_str.c_str(), name.c_str());
    std::fprintf(stderr, "valid points:\n");
    for (size_t i = 0; i < points.size(); ++i) {
      std::fprintf(stderr, "  %zu: %s\n", i, points[i].Label().c_str());
    }
    return 2;
  }

  std::printf("tracing %s point %lu (%s) -> %s\n", name.c_str(), index,
              points[index].Label().c_str(), path.c_str());
  const std::string json = s->trace(points[index]);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "optilog_bench: cannot write '%s'\n", path.c_str());
    return 1;
  }
  out << json;
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), json.size());
  return 0;
}

int Main(int argc, char** argv) {
  std::vector<std::string> names;
  std::vector<std::string> tags;
  bool list = false, all = false, quiet = false;
  unsigned threads = std::thread::hardware_concurrency();
  unsigned repeat = 1;
  std::string json_dir;
  std::string trace_spec;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "optilog_bench: %s needs a value\n\n", flag);
        std::exit(Usage(stderr));
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      return Usage(stdout);
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--tag") {
      tags.push_back(value("--tag"));
    } else if (arg == "--threads") {
      const std::string v = value("--threads");
      if (!ParseCount(v, 1024, &threads)) {
        std::fprintf(stderr, "optilog_bench: --threads wants a number in "
                             "1..1024, got '%s'\n\n", v.c_str());
        return Usage(stderr);
      }
    } else if (arg == "--repeat") {
      const std::string v = value("--repeat");
      if (!ParseCount(v, 1000, &repeat)) {
        std::fprintf(stderr, "optilog_bench: --repeat wants a number in "
                             "1..1000, got '%s'\n\n", v.c_str());
        return Usage(stderr);
      }
    } else if (arg == "--json") {
      json_dir = value("--json");
    } else if (arg == "--trace") {
      trace_spec = value("--trace");
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "optilog_bench: unknown option '%s'\n\n",
                   arg.c_str());
      return Usage(stderr);
    } else {
      names.push_back(arg);
    }
  }

  const ScenarioRegistry& registry = ScenarioRegistry::Instance();
  if (list) {
    ListScenarios();
    return 0;
  }
  if (!trace_spec.empty()) {
    return RunTraceExport(trace_spec);
  }

  // Resolve the selection: names + tags, de-duplicated, registry order.
  std::vector<const Scenario*> selected;
  auto add = [&selected](const Scenario* s) {
    for (const Scenario* have : selected) {
      if (have == s) {
        return;
      }
    }
    selected.push_back(s);
  };
  for (const std::string& name : names) {
    const Scenario* s = registry.Find(name);
    if (s == nullptr) {
      std::fprintf(stderr, "optilog_bench: unknown scenario '%s'\n",
                   name.c_str());
      std::fprintf(stderr, "available scenarios:\n");
      for (const Scenario* have : registry.All()) {
        std::fprintf(stderr, "  %s\n", have->name.c_str());
      }
      return 2;
    }
    add(s);
  }
  for (const std::string& tag : tags) {
    const auto tagged = registry.WithTag(tag);
    if (tagged.empty()) {
      std::fprintf(stderr, "optilog_bench: no scenario carries tag '%s'\n",
                   tag.c_str());
      return 2;
    }
    for (const Scenario* s : tagged) {
      add(s);
    }
  }
  if (all) {
    for (const Scenario* s : registry.All()) {
      add(s);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr,
                 "optilog_bench: nothing selected (try --list, --all, "
                 "--tag tier1, or scenario names)\n\n");
    return Usage(stderr);
  }

  if (!json_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(json_dir, ec);
    if (ec) {
      std::fprintf(stderr, "optilog_bench: cannot create '%s': %s\n",
                   json_dir.c_str(), ec.message().c_str());
      return 1;
    }
  }

  threads = std::max(threads, 1u);  // hardware_concurrency() may report 0
  std::printf("running %zu scenario(s) on %u thread(s)\n", selected.size(),
              threads);
  for (const Scenario* s : selected) {
    ScenarioRunResult result = RunScenario(*s, threads);
    if (repeat > 1 && !Repeat(*s, threads, repeat, result)) {
      return 1;
    }
    PrintResult(result, quiet, repeat);
    if (!json_dir.empty()) {
      const std::string path =
          (std::filesystem::path(json_dir) / ("BENCH_" + s->name + ".json"))
              .string();
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "optilog_bench: cannot write '%s'\n",
                     path.c_str());
        return 1;
      }
      out << FullJson(result);
      std::printf("wrote %s\n", path.c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace optilog

int main(int argc, char** argv) { return optilog::Main(argc, argv); }
