#include "src/obs/chrome_export.h"

#include <map>
#include <utility>

#include "src/util/json_writer.h"

namespace optilog {
namespace {

// Stage bars per request, assembled with the same first-record-wins fold as
// ComputeStageBreakdown (stage_breakdown.cc).
struct Chain {
  SimTime send = -1;
  SimTime admit = -1;
  SimTime seal = -1;
  SimTime commit = -1;
  SimTime reply = -1;
  SimTime complete = -1;
  uint32_t client = 0;
};

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
  std::map<std::pair<uint64_t, uint64_t>, Chain> chains;
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
    if (r.kind >= static_cast<uint16_t>(TraceKind::kClientSend) &&
        r.kind <= static_cast<uint16_t>(TraceKind::kClientComplete)) {
      Chain& c = chains[{r.b, r.a}];
      c.client = static_cast<uint32_t>(r.b);
      switch (static_cast<TraceKind>(r.kind)) {
        case TraceKind::kClientSend:
          if (c.send < 0) c.send = r.t;
          break;
        case TraceKind::kQueueAdmit:
          if (c.admit < 0) c.admit = r.t;
          break;
        case TraceKind::kBatchSeal:
          if (c.seal < 0) c.seal = r.t;
          break;
        case TraceKind::kCommit:
          if (c.commit < 0) c.commit = r.t;
          break;
        case TraceKind::kReplySent:
          if (c.reply < 0) c.reply = r.t;
          break;
        case TraceKind::kClientComplete:
          if (c.complete < 0) c.complete = r.t;
          break;
        default:
          break;
      }
    }
  }
  for (const auto& [key, c] : chains) {
    if (c.send < 0 || c.commit < 0) {
      continue;  // same population rule as ComputeStageBreakdown
    }
    const uint64_t request = key.second;
    StageBar(w, "client_net", c.client, c.send, c.admit, request);
    StageBar(w, "queue", c.client, c.admit, c.seal, request);
    StageBar(w, "consensus", c.client, c.seal, c.commit, request);
    StageBar(w, "apply", c.client, c.commit, c.reply, request);
    StageBar(w, "reply", c.client, c.reply, c.complete, request);
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace optilog
