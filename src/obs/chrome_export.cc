#include "src/obs/chrome_export.h"

#include "src/obs/stage_breakdown.h"
#include "src/util/json_writer.h"

namespace optilog {
namespace {

void StageBar(JsonWriter& w, const char* name, uint32_t client, SimTime from,
              SimTime to, uint64_t request) {
  if (from < 0 || to < from) {
    return;
  }
  w.BeginObject();
  w.Key("name").String(name);
  w.Key("ph").String("X");
  w.Key("ts").Int(from);
  w.Key("dur").Int(to - from);
  w.Key("pid").String("requests");
  w.Key("tid").Uint(client);
  w.Key("args").BeginObject();
  w.Key("request").Uint(request);
  w.EndObject();
  w.EndObject();
}

}  // namespace

std::string ChromeTraceJson(const std::vector<TraceRecord>& records) {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  for (const TraceRecord& r : records) {
    w.BeginObject();
    w.Key("name").String(TraceKindName(r.kind));
    w.Key("ph").String("i");
    w.Key("ts").Int(r.t);
    w.Key("pid").Uint(0);
    w.Key("tid").Uint(r.actor);
    w.Key("s").String("t");
    w.Key("args").BeginObject();
    w.Key("id").Uint(r.id);
    w.Key("parent").Uint(r.parent);
    w.Key("kind").Uint(r.kind);
    w.Key("type").Uint(r.type);
    w.Key("a").Uint(r.a);
    w.Key("b").Uint(r.b);
    w.EndObject();
    w.EndObject();
  }
  // Stage bars per request, on the chains ComputeStageBreakdown folds.
  for (const auto& [key, c] : FoldRequestChains(records)) {
    if (c.send < 0 || c.commit < 0) {
      continue;  // same population rule as ComputeStageBreakdown
    }
    const auto client = static_cast<uint32_t>(key.first);
    const uint64_t request = key.second;
    StageBar(w, "client_net", client, c.send, c.admit, request);
    StageBar(w, "queue", client, c.admit, c.seal, request);
    StageBar(w, "consensus", client, c.seal, c.commit, request);
    StageBar(w, "apply", client, c.commit, c.reply, request);
    StageBar(w, "reply", client, c.reply, c.complete, request);
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace optilog
