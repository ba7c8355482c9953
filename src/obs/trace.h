// Deterministic flight recorder: fixed-width causal trace records.
//
// A TraceRecorder is a per-Simulator append-only buffer of 48-byte records.
// It is off by default and costs one null-pointer test per event when
// disabled; when enabled it is schedule-neutral — recording never schedules
// events, never allocates from the MessagePool, and never perturbs the
// simulator's (at, seq) key assignment — so every committed metrics
// fingerprint is byte-identical with the recorder on or off (pinned by
// tests/obs_test.cc).
//
// Record identity and causality: a record's id is the recorder's 1-based
// emission counter, so ids are unique and increase in emission order. The
// simulator stamps the recorder's *current context* — the id of the dispatch
// record whose handler is executing — into every event slot it commits, so
// each dispatch record's `parent` is the dispatch that scheduled it and
// protocol span records parent to the dispatch they were emitted under. The
// whole trace is a forest rooted at externally scheduled work (Start()
// arming, initial timers). A sharded deployment runs every shard group on
// one simulator, so its trace is one stream whose causal edges cross shard
// groups freely.
//
// Determinism contract: a run's record stream is a pure function of the
// deployment and its seed, and records are emitted in (t, id) order, so the
// stream is byte-identical across reruns and --threads values (pinned by
// shard_determinism_test, which compares the records' fixed-width bytes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace optilog {

// Record kinds. Values are stable wire/tooling constants — append, never
// renumber (tools/trace_stats.py matches on them).
enum class TraceKind : uint16_t {
  // Event-core records, emitted by Simulator::Dispatch.
  kDispatchDelivery = 1,  // actor=to, a=from, b=(family<<8)|msg type
  kDispatchTimer = 2,     // actor=0,  a=timer tag
  kDispatchClosure = 3,   // cold-path std::function event
  // Network / CPU records.
  kMsgSend = 4,      // actor=from, a=to (or fan-out size), b=wire bytes
  kCryptoCharge = 5,  // actor=replica, type=op (1 sign .. 5 qc-verify), a=ns
  // Client request lifecycle (correlation key: a=request id, b=client id).
  kClientSend = 16,      // client hands the request to the network
  kQueueAdmit = 17,      // leader RequestQueue accepts it
  kBatchSeal = 18,       // popped into a proposal batch
  kCommit = 19,          // committed at the proposer/leader
  kReplySent = 20,       // reply handed to the network
  kClientComplete = 21,  // reply quorum reached at the client
  // Protocol phase spans.
  kPropose = 32,        // actor=proposer, a=view/instance, b=batch size
  kPbftPhase = 33,      // type=phase, actor=replica, a=instance
  kTxnPrepare = 34,     // actor=coordinator, a=txn id, b=participant shard
  kTxnDecide = 35,      // actor=coordinator, a=txn id, b=1 commit / 0 abort
  kRecoveryChunk = 36,  // actor=recovering replica, a=chunk seq, b=bytes
};

// One fixed-width trace record (48 bytes).
struct TraceRecord {
  SimTime t = 0;        // sim time of emission
  uint64_t id = 0;      // emission counter, 1-based
  uint64_t parent = 0;  // causal parent record id; 0 = root
  uint16_t kind = 0;    // TraceKind
  uint16_t type = 0;    // kind-specific discriminator (msg type, 2PC phase)
  uint32_t actor = 0;   // replica / client / coordinator id
  uint64_t a = 0;       // kind-specific payload
  uint64_t b = 0;       // kind-specific payload
};

class TraceRecorder {
 public:
  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // Appends a record and returns its id.
  uint64_t Emit(SimTime t, TraceKind kind, uint16_t type, uint32_t actor,
                uint64_t a, uint64_t b, uint64_t parent) {
    TraceRecord r;
    r.t = t;
    r.id = next_++;
    r.parent = parent;
    r.kind = static_cast<uint16_t>(kind);
    r.type = type;
    r.actor = actor;
    r.a = a;
    r.b = b;
    records_.push_back(r);
    return r.id;
  }

  // Appends a record parented to the current dispatch context.
  uint64_t EmitHere(SimTime t, TraceKind kind, uint16_t type, uint32_t actor,
                    uint64_t a, uint64_t b) {
    return Emit(t, kind, type, actor, a, b, current_);
  }

  // The id of the dispatch record whose handler is executing (0 between
  // events). Set by Simulator::Dispatch, read by everything that emits or
  // schedules under it.
  uint64_t current() const { return current_; }
  void SetCurrent(uint64_t id) { current_ = id; }

  const std::vector<TraceRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }

 private:
  uint64_t next_ = 1;
  uint64_t current_ = 0;
  std::vector<TraceRecord> records_;
};

// Human-readable kind name for exporters ("dispatch_delivery", "commit"...).
const char* TraceKindName(uint16_t kind);

}  // namespace optilog
