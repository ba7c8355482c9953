// Shared helpers for the figure-reproduction benchmarks.
//
// Every bench prints the series the corresponding paper figure plots, in a
// plain table. Absolute values depend on the simulated substrate; the shape
// (ordering, rough factors, crossovers) is what EXPERIMENTS.md compares.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/core/annealing.h"
#include "src/core/latency_monitor.h"
#include "src/net/geo.h"
// JSON emission for BENCH_<scenario>.json files (JsonWriter): shared with
// the scenario runner, so it lives under src/util and is re-exported here.
#include "src/util/json_writer.h"

namespace optilog {

// Latency matrix holding the geographic RTTs of `cities` — the state of
// the LatencyMonitor after one complete probe round, in the city-baseline
// form a deployment builds.
inline LatencyMatrix MatrixFromCities(const std::vector<City>& cities) {
  CityIndex ci = DedupeCities(cities);
  const size_t u = ci.unique.size();
  LatencyMatrix m;
  m.ResetWithCityBaseline(static_cast<uint32_t>(cities.size()),
                          std::move(ci.index_of), CityRttTableMs(ci.unique), u);
  return m;
}

// The paper's SA search-time knob, mapped to deterministic iteration budgets
// (~5000 SA iterations per simulated second of search; see DESIGN.md).
inline uint64_t IterationsForSearchSeconds(double seconds) {
  return static_cast<uint64_t>(seconds * 5000.0);
}

// SA parameters for a given search time, with the cooling schedule stretched
// over the whole budget (longer searches explore longer, as in §7.7).
inline AnnealingParams ParamsForSearchSeconds(double seconds) {
  return AnnealingParams::ForBudget(IterationsForSearchSeconds(seconds));
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

// Result reporter shared by the figure benches: collects rows, prints an
// aligned human-readable table, then re-emits the same rows as CSV (prefixed
// `csv,` so plotting scripts can grep them out of mixed bench output).
class BenchReporter {
 public:
  BenchReporter(std::string name, std::vector<std::string> columns)
      : name_(std::move(name)), columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  // Numeric cell formatting. Fixed-point with `precision` decimals, via
  // to_chars: locale-independent, because these cells end up in digested
  // scenario rows (src/runner/scenario.h) where "331,4" under a
  // comma-decimal locale would silently break the determinism contract.
  static std::string Num(double v, int precision = 1) {
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::fixed, precision);
    return std::string(buf, res.ptr);
  }
  static std::string Num(uint64_t v) { return std::to_string(v); }

  // RFC 4180 quoting: cells containing the delimiter, a quote, or a line
  // break are wrapped in double quotes with embedded quotes doubled — so a
  // city name like "Washington, DC" can't shift the columns of a csv, row.
  static std::string CsvEscape(const std::string& cell) {
    if (cell.find_first_of(",\"\r\n") == std::string::npos) {
      return cell;
    }
    std::string out = "\"";
    for (char c : cell) {
      if (c == '"') {
        out.push_back('"');
      }
      out.push_back(c);
    }
    out.push_back('"');
    return out;
  }

  // The aligned human-readable table.
  std::string ToTable() const {
    std::vector<size_t> width(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      width[c] = columns_[c].size();
      for (const auto& row : rows_) {
        if (c < row.size()) {
          width[c] = std::max(width[c], row[c].size());
        }
      }
    }
    std::string out;
    auto append_row = [&](const std::vector<std::string>& cells) {
      for (size_t c = 0; c < columns_.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : std::string();
        out += cell;
        out.append(width[c] - cell.size() + 2, ' ');
      }
      out += "\n";
    };
    append_row(columns_);
    for (const auto& row : rows_) {
      append_row(row);
    }
    return out;
  }

  // The same rows as `csv,<name>,...` lines, grep-able out of mixed output.
  std::string ToCsv() const {
    std::string out;
    auto append_row = [&](const std::vector<std::string>& cells) {
      out += "csv,";
      out += CsvEscape(name_);
      for (const auto& cell : cells) {
        out += ',';
        out += CsvEscape(cell);
      }
      out += "\n";
    };
    append_row(columns_);
    for (const auto& row : rows_) {
      append_row(row);
    }
    return out;
  }

  void Print() const {
    std::fputs(ToTable().c_str(), stdout);
    std::printf("\n");
    std::fputs(ToCsv().c_str(), stdout);
  }

 private:
  std::string name_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace optilog
