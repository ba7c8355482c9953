// The deterministic replicated state machine the committed log drives.
//
// Consensus orders opaque operation byte strings; every correct replica
// applies them in log order to its own KvStateMachine, so all
// replicas materialize identical state — the property the paper's whole
// argument rests on (§1) and the one this module makes checkable:
// StateDigest() is a SHA-256 over the canonical state encoding, compared
// across replicas at every checkpoint and at run end.
//
// KvStateMachine is the machine the workload layer drives: a
// uint64 -> uint64 map with read (Get), blind write (Put), and
// read-modify-write (Add) operations. Apply returns an encoded KvResult the
// committing replica sends back in its client reply, which the client
// cross-checks against a model oracle (src/workload/). Snapshot encoding is
// the sorted key order of std::map, so snapshots are byte-identical across
// replicas by construction, not by luck.
#pragma once

#include <map>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/sim/ids.h"
#include "src/util/bytes.h"

namespace optilog {

enum class KvOpKind : uint8_t {
  kGet = 0,  // read: result carries the current value
  kPut = 1,  // blind write: result echoes the stored value
  kAdd = 2,  // read-modify-write: value += arg, result carries the new value
};

struct KvOp {
  KvOpKind kind = KvOpKind::kGet;
  uint64_t key = 0;
  uint64_t arg = 0;  // put: value to store; add: delta; get: unused

  Bytes Encode() const;
};

struct KvResult {
  bool found = false;     // key existed before the op
  uint64_t value = 0;     // get: current; put: stored; add: new value

  Bytes Encode() const;
  static bool Decode(const Bytes& in, KvResult* out);
};

// --- cross-shard transactions (src/shard/) ----------------------------------
//
// Transaction records share the committed-operation byte stream with plain
// KvOps: their first byte is a tag >= 0x10, disjoint from KvOpKind (0..2),
// so legacy operations decode exactly as before. Each record is an ordinary
// log entry — replicated, snapshotted, and replayed by the existing
// machinery — which is what makes coordinator crash recovery possible: the
// participants' committed prepare/commit records ARE the coordinator's
// durable state, and a kScan reads them back through the log.
//
//   tag   record    body after the tag      effect
//   0x10  kMulti    ops                     apply atomically, abort on a lock
//   0x11  kPrepare  id, ops, participants,  lock, record the row, vote and
//                   client, client_req      reply the commit's results
//   0x12  kCommit   id                      apply the prepared ops, decide
//   0x13  kAbort    id                      drop the prepared row and locks
//   0x14  kEnd      id                      forget the decided row
//   0x15  kScan     id prefix               reply one coordinator's rows
enum class TxnTag : uint8_t {
  kMulti = 0x10,
  kPrepare = 0x11,
  kCommit = 0x12,
  kAbort = 0x13,
  kEnd = 0x14,
  kScan = 0x15,
};

struct KvTxnOp {
  TxnTag tag = TxnTag::kMulti;
  // All tags except kMulti. A kScan carries a coordinator's id prefix, the
  // high bits of its transaction ids (txn_id >> 40).
  uint64_t txn_id = 0;
  std::vector<KvOp> ops;         // kMulti / kPrepare
  // Home-shard prepare records carry the coordinator's durable state: the
  // participant shard list and the originating client request identity
  // (empty / kNoReplica on remote participants).
  std::vector<uint32_t> participants;
  ReplicaId client = kNoReplica;
  uint64_t client_req = 0;

  Bytes Encode() const;
};

// Reply to every transaction record but kScan. `ok` is the vote
// (kPrepare), decision applicability (kCommit: false = unknown
// transaction), or a no-op for the idempotent tags; `results` carries
// per-op KvResults, in op order, for kMulti and for a yes-voting kPrepare.
// A prepare's results are the ones its kCommit will apply: evaluated
// without applying, and fixed by the prepare's locks until the commit.
struct KvMultiResult {
  bool ok = false;
  std::vector<KvResult> results;

  Bytes Encode() const;
  static bool Decode(const Bytes& in, KvMultiResult* out);
};

// Reply to a kScan: every prepared and decided row whose id carries the
// scanned prefix, in id order. A row holds the participants and client
// identity its prepare recorded, both empty at a remote participant.
struct KvScanRow {
  uint64_t txn_id = 0;
  bool decided = false;  // committed here; otherwise prepared
  std::vector<uint32_t> participants;
  ReplicaId client = kNoReplica;
  uint64_t client_req = 0;
};

// A malformed kScan replies KvMultiResult{}, which decodes as ok = false.
struct KvScanResult {
  bool ok = false;
  std::vector<KvScanRow> rows;

  Bytes Encode() const;
  static bool Decode(const Bytes& in, KvScanResult* out);
};

// One committed operation, decoded. Tags 0x10..0x15 are transaction
// records; every other input, empty included, is a plain KvOp. A record
// that fails a length or count check (Byzantine proposer) has ok = false
// and applies as a no-op replying its family's empty result.
struct KvCommand {
  bool is_txn = false;
  bool ok = false;
  KvOp op;      // plain family
  KvTxnOp txn;  // transaction family

  static KvCommand Decode(const Bytes& in);
};

// What consensus executes at the commit boundary. Deterministic: Apply's
// result and all subsequent state depend only on the sequence of operations
// applied since construction (or Restore).
class KvStateMachine {
 public:
  // Applies one decoded command. The encoded reply goes to *reply; a null
  // `reply` skips encoding it (replicas whose reply nobody reads). State
  // changes are the same either way.
  void Apply(const KvCommand& cmd, Bytes* reply);
  // Decodes, applies and returns the encoded reply.
  Bytes Apply(const Bytes& op);

  // Canonical encoding of the full state; Restore(SnapshotBytes()) on a
  // fresh instance reproduces the machine exactly.
  Bytes SnapshotBytes() const;
  void Restore(const Bytes& snapshot);

  // SHA-256 over the canonical state encoding. Equal digests across
  // replicas prove equal state; the fingerprint scenarios pin joins through
  // this (see MetricsFingerprint).
  Digest StateDigest() const;

  // Back to the initial (empty) state — what an amnesiac restart holds.
  void Reset();

  size_t size() const { return kv_.size(); }

  // A prepared (in-doubt) transaction, held as its kPrepare record: its ops
  // are locked but not applied; `participants` is non-empty only at the
  // home shard.
  using PreparedTxn = KvTxnOp;
  // A committed transaction whose kEnd has not arrived yet, kept so commit
  // re-drives (coordinator recovery, duplicate deliveries) stay idempotent,
  // and so a recovered coordinator knows whom to re-answer.
  struct DecidedTxn {
    std::vector<uint32_t> participants;
    ReplicaId client = kNoReplica;
    uint64_t client_req = 0;
  };

  // The tables a kScan reads, for tests and invariant checks. A restarted
  // coordinator learns them only through replicated kScan records, which
  // commit behind every record admitted before them
  // (src/shard/txn_coordinator.cc).
  const std::map<uint64_t, PreparedTxn>& prepared() const { return prepared_; }
  const std::map<uint64_t, DecidedTxn>& decided() const { return decided_; }
  const std::map<uint64_t, uint64_t>& locks() const { return locks_; }

 private:
  KvResult ApplyOne(const KvOp& op);
  // The results ApplyOne would return for `ops` applied in order, computed
  // without applying them: each op sees the earlier ops of the record.
  std::vector<KvResult> EvaluateOps(const std::vector<KvOp>& ops) const;
  void ApplyTxn(const KvTxnOp& txn, Bytes* reply);
  KvScanResult Scan(uint64_t prefix) const;
  void Unlock(uint64_t txn_id, const std::vector<KvOp>& ops);

  std::map<uint64_t, uint64_t> kv_;
  std::map<uint64_t, PreparedTxn> prepared_;
  std::map<uint64_t, DecidedTxn> decided_;
  // key -> owning txn id; derived from prepared_ (rebuilt on Restore), so
  // it stays out of the snapshot encoding.
  std::map<uint64_t, uint64_t> locks_;
};

}  // namespace optilog
