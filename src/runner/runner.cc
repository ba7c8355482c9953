#include "src/runner/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "src/crypto/sha256.h"
#include "src/util/check.h"
#include "src/util/json_writer.h"

namespace optilog {
namespace {

void WriteTable(JsonWriter& w,
                const std::vector<std::vector<std::string>>& rows) {
  w.BeginArray();
  for (const auto& row : rows) {
    w.BeginArray();
    for (const auto& cell : row) {
      w.String(cell);
    }
    w.EndArray();
  }
  w.EndArray();
}

// The deterministic body: everything except the digests' trailing fields
// and the advisory wall clocks (include_wall adds the per-point wall_ms for
// the full JSON). The scenario digest is SHA-256 over the include_wall =
// false bytes.
void WriteBody(JsonWriter& w, const ScenarioRunResult& r, bool include_wall) {
  w.Key("scenario").String(r.scenario);
  w.Key("columns").BeginArray();
  for (const auto& c : r.columns) {
    w.String(c);
  }
  w.EndArray();
  w.Key("points").BeginArray();
  for (size_t i = 0; i < r.points.size(); ++i) {
    const PointResult& p = r.points[i];
    w.BeginObject();
    w.Key("params").BeginObject();
    for (const auto& [k, v] : r.params[i].entries()) {
      w.Key(k).String(v);
    }
    w.EndObject();
    w.Key("rows");
    WriteTable(w, p.rows);
    w.Key("metrics").BeginObject();
    for (const auto& [k, v] : p.metrics) {
      w.Key(k).Double(v);
    }
    w.EndObject();
    if (!p.timeseries.empty()) {
      // Deterministic (gauge reads on sim-time timers), so it lives in the
      // digested body like metrics do.
      w.Key("timeseries").BeginObject();
      for (const auto& [name, values] : p.timeseries) {
        w.Key(name).BeginArray();
        for (double v : values) {
          w.Double(v);
        }
        w.EndArray();
      }
      w.EndObject();
    }
    const EventCoreStats& ec = p.event_core;
    w.Key("event_core").BeginObject();
    w.Key("events_executed").Uint(ec.events_executed);
    w.Key("typed_deliveries").Uint(ec.typed_deliveries);
    w.Key("typed_timers").Uint(ec.typed_timers);
    w.Key("closure_events").Uint(ec.closure_events);
    w.Key("cancellations").Uint(ec.cancellations);
    w.Key("peak_slab_slots").Uint(ec.peak_slab_slots);
    w.Key("peak_pending").Uint(ec.peak_pending);
    w.Key("wheel_overflow_events").Uint(ec.wheel_overflow_events);
    w.Key("message_pool_hits").Uint(ec.message_pool_hits);
    w.Key("message_pool_misses").Uint(ec.message_pool_misses);
    w.EndObject();
    w.Key("digest").String(p.digest);
    if (include_wall) {
      w.Key("wall_ms").Double(p.wall_ms);
      if (p.wall_ms_min.has_value()) {
        w.Key("wall_ms_min").Double(*p.wall_ms_min);
      }
    }
    w.EndObject();
  }
  w.EndArray();
  if (!r.summary.columns.empty() || !r.summary.rows.empty()) {
    w.Key("summary").BeginObject();
    w.Key("columns").BeginArray();
    for (const auto& c : r.summary.columns) {
      w.String(c);
    }
    w.EndArray();
    w.Key("rows");
    WriteTable(w, r.summary.rows);
    w.EndObject();
  }
}

std::string BodyJson(const ScenarioRunResult& r) {
  JsonWriter w;
  w.BeginObject();
  WriteBody(w, r, /*include_wall=*/false);
  w.EndObject();
  return w.str();
}

}  // namespace

void ParallelFor(unsigned threads, size_t count,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> claimed{0};
  std::mutex mu;
  std::exception_ptr first_error;
  auto work = [&] {
    for (size_t c; (c = claimed.fetch_add(1)) < count;) {
      try {
        fn(count - 1 - c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    }
  };
  {
    // jthread joins on destruction, so every helper that started has
    // returned before this scope exits, even when starting one throws.
    std::vector<std::jthread> helpers;
    for (size_t i = 1; i < std::min<size_t>(threads, count); ++i) {
      helpers.emplace_back(work);
    }
    work();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

ScenarioRunResult RunScenario(const Scenario& s, unsigned threads) {
  OL_CHECK_MSG(static_cast<bool>(s.run), s.name.c_str());
  const auto wall_start = std::chrono::steady_clock::now();

  ScenarioRunResult out;
  out.scenario = s.name;
  out.columns = s.columns;
  out.params = EnumeratePoints(s);
  out.points.resize(out.params.size());

  auto run_point = [&](size_t i) {
    const auto point_start = std::chrono::steady_clock::now();
    out.points[i] = s.run(out.params[i]);
    out.points[i].wall_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - point_start)
                                .count();
  };
  ParallelFor(threads, out.params.size(), run_point);

  if (s.finalize) {
    out.summary = s.finalize(out.points);
  }
  out.digest = DigestHex(Sha256::Hash(BodyJson(out)));
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
  return out;
}

std::string DeterministicJson(const ScenarioRunResult& r) {
  JsonWriter w;
  w.BeginObject();
  WriteBody(w, r, /*include_wall=*/false);
  w.Key("digest").String(r.digest);
  w.EndObject();
  return w.str();
}

std::string FullJson(const ScenarioRunResult& r) {
  JsonWriter w;
  w.BeginObject();
  WriteBody(w, r, /*include_wall=*/true);
  w.Key("digest").String(r.digest);
  w.Key("wall_ms").Double(r.wall_ms);
  if (r.wall_ms_min.has_value()) {
    w.Key("wall_ms_min").Double(*r.wall_ms_min);
  }
  w.EndObject();
  return w.str() + "\n";
}

}  // namespace optilog
