#include "src/statemachine/state_machine.h"

#include <algorithm>
#include <utility>

namespace optilog {
namespace {

// Encoded sizes: kind u8 | key u64 | arg u64, and found u8 | value u64.
constexpr size_t kOpBytes = 17;
constexpr size_t kResultBytes = 9;

void WriteOp(ByteWriter& w, const KvOp& op) {
  w.U8(static_cast<uint8_t>(op.kind));
  w.U64(op.key);
  w.U64(op.arg);
}

// What a home prepare records beside its ops — the participant list and
// the client identity — in every layout that carries it: a kPrepare body, a
// snapshot's decided row and a kScan row.
void WriteHome(ByteWriter& w, const std::vector<uint32_t>& participants,
               ReplicaId client, uint64_t client_req) {
  w.U32(static_cast<uint32_t>(participants.size()));
  for (uint32_t p : participants) {
    w.U32(p);
  }
  w.U32(client);
  w.U64(client_req);
}

// Reads what WriteHome wrote. The count comes from a peer: one the
// remaining bytes cannot hold fails before anything is allocated (the
// caller checks the reader for truncation).
bool ReadHome(ByteReader& r, std::vector<uint32_t>& participants,
              ReplicaId& client, uint64_t& client_req) {
  const uint32_t count = r.U32();
  if (!r.ok() || count > r.remaining() / 4) {
    return false;
  }
  participants.resize(count);
  for (uint32_t& p : participants) {
    p = r.U32();
  }
  client = r.U32();
  client_req = r.U64();
  return true;
}

// The body of a transaction record, after its tag byte. A snapshot's
// prepared table holds kPrepare records in this layout.
void WriteTxnBody(ByteWriter& w, const KvTxnOp& txn) {
  if (txn.tag != TxnTag::kMulti) {
    w.U64(txn.txn_id);
  }
  if (txn.tag == TxnTag::kMulti || txn.tag == TxnTag::kPrepare) {
    w.U32(static_cast<uint32_t>(txn.ops.size()));
    for (const KvOp& op : txn.ops) {
      WriteOp(w, op);
    }
  }
  if (txn.tag == TxnTag::kPrepare) {
    WriteHome(w, txn.participants, txn.client, txn.client_req);
  }
}

// The result of `op` on a key that holds `value` (0 when !found). It is
// also the key's state after the op: a get leaves it as it was, a put or
// an add leaves it present, holding the result's value.
KvResult Step(const KvOp& op, bool found, uint64_t value) {
  KvResult res;
  res.found = found;
  switch (op.kind) {
    case KvOpKind::kGet:
      res.value = value;
      break;
    case KvOpKind::kPut:
      res.value = op.arg;
      break;
    case KvOpKind::kAdd:
      res.value = value + op.arg;
      break;
  }
  return res;
}

size_t TxnBodyBytes(const KvTxnOp& txn) {
  ByteWriter counter(nullptr);
  WriteTxnBody(counter, txn);
  return counter.size();
}

// Reads what WriteTxnBody wrote for `txn.tag`. Counts come from a peer: one
// the remaining bytes cannot hold fails before anything is allocated (the
// caller checks the reader for truncation).
bool ReadTxnBody(ByteReader& r, KvTxnOp& txn) {
  if (txn.tag != TxnTag::kMulti) {
    txn.txn_id = r.U64();
  }
  if (txn.tag == TxnTag::kMulti || txn.tag == TxnTag::kPrepare) {
    const uint32_t nops = r.U32();
    if (!r.ok() || nops > r.remaining() / kOpBytes) {
      return false;
    }
    txn.ops.resize(nops);
    for (KvOp& op : txn.ops) {
      op.kind = static_cast<KvOpKind>(r.U8());
      op.key = r.U64();
      op.arg = r.U64();
    }
  }
  return txn.tag != TxnTag::kPrepare ||
         ReadHome(r, txn.participants, txn.client, txn.client_req);
}

}  // namespace

Bytes KvOp::Encode() const {
  Bytes out;
  out.reserve(kOpBytes);
  ByteWriter w(&out);
  WriteOp(w, *this);
  return out;
}

Bytes KvResult::Encode() const {
  Bytes out;
  out.reserve(kResultBytes);
  ByteWriter w(&out);
  w.U8(found ? 1 : 0);
  w.U64(value);
  return out;
}

bool KvResult::Decode(const Bytes& in, KvResult* out) {
  ByteReader r(in);
  KvResult res;
  res.found = r.U8() != 0;
  res.value = r.U64();
  if (!r.ok() || !r.Done()) {
    return false;
  }
  *out = res;
  return true;
}

Bytes KvTxnOp::Encode() const {
  Bytes out;
  out.reserve(1 + TxnBodyBytes(*this));
  ByteWriter w(&out);
  w.U8(static_cast<uint8_t>(tag));
  WriteTxnBody(w, *this);
  return out;
}

Bytes KvMultiResult::Encode() const {
  Bytes out;
  out.reserve(5 + kResultBytes * results.size());
  ByteWriter w(&out);
  w.U8(ok ? 1 : 0);
  w.U32(static_cast<uint32_t>(results.size()));
  for (const KvResult& res : results) {
    w.U8(res.found ? 1 : 0);
    w.U64(res.value);
  }
  return out;
}

bool KvMultiResult::Decode(const Bytes& in, KvMultiResult* out) {
  ByteReader r(in);
  KvMultiResult m;
  m.ok = r.U8() != 0;
  const uint32_t count = r.U32();
  if (!r.ok() || count > r.remaining() / kResultBytes) {
    return false;
  }
  m.results.resize(count);
  for (KvResult& res : m.results) {
    res.found = r.U8() != 0;
    res.value = r.U64();
  }
  if (!r.ok() || !r.Done()) {
    return false;
  }
  *out = std::move(m);
  return true;
}

Bytes KvScanResult::Encode() const {
  Bytes out;
  ByteWriter w(&out);
  w.U8(ok ? 1 : 0);
  w.U32(static_cast<uint32_t>(rows.size()));
  for (const KvScanRow& row : rows) {
    w.U64(row.txn_id);
    w.U8(row.decided ? 1 : 0);
    WriteHome(w, row.participants, row.client, row.client_req);
  }
  return out;
}

bool KvScanResult::Decode(const Bytes& in, KvScanResult* out) {
  // A row's fixed bytes: txn id u64, decided u8, participant count u32,
  // client u32 and client_req u64.
  constexpr size_t kRowBytes = 25;
  ByteReader r(in);
  KvScanResult scan;
  scan.ok = r.U8() != 0;
  const uint32_t count = r.U32();
  if (!r.ok() || count > r.remaining() / kRowBytes) {
    return false;
  }
  scan.rows.resize(count);
  for (KvScanRow& row : scan.rows) {
    row.txn_id = r.U64();
    row.decided = r.U8() != 0;
    if (!ReadHome(r, row.participants, row.client, row.client_req)) {
      return false;
    }
  }
  if (!r.ok() || !r.Done()) {
    return false;
  }
  *out = std::move(scan);
  return true;
}

KvCommand KvCommand::Decode(const Bytes& in) {
  KvCommand cmd;
  ByteReader r(in);
  const uint8_t tag = r.U8();
  switch (tag) {
    case static_cast<uint8_t>(TxnTag::kMulti):
    case static_cast<uint8_t>(TxnTag::kPrepare):
    case static_cast<uint8_t>(TxnTag::kCommit):
    case static_cast<uint8_t>(TxnTag::kAbort):
    case static_cast<uint8_t>(TxnTag::kEnd):
    case static_cast<uint8_t>(TxnTag::kScan):
      cmd.is_txn = true;
      cmd.txn.tag = static_cast<TxnTag>(tag);
      cmd.ok = ReadTxnBody(r, cmd.txn) &&
               std::all_of(cmd.txn.ops.begin(), cmd.txn.ops.end(),
                           [](const KvOp& op) {
                             return op.kind <= KvOpKind::kAdd;
                           });
      break;
    default:
      cmd.op.kind = static_cast<KvOpKind>(tag);
      cmd.op.key = r.U64();
      cmd.op.arg = r.U64();
      cmd.ok = cmd.op.kind <= KvOpKind::kAdd;
      break;
  }
  cmd.ok = cmd.ok && r.ok() && r.Done();
  return cmd;
}

Bytes KvStateMachine::Apply(const Bytes& op_bytes) {
  Bytes reply;
  Apply(KvCommand::Decode(op_bytes), &reply);
  return reply;
}

void KvStateMachine::Apply(const KvCommand& cmd, Bytes* reply) {
  if (!cmd.ok) {
    // Malformed committed bytes (Byzantine proposer): a deterministic no-op
    // whose reply, identical on every replica, is the family's empty result
    // (a vote-no for a transaction record).
    if (reply != nullptr) {
      *reply = cmd.is_txn ? KvMultiResult{}.Encode() : KvResult{}.Encode();
    }
    return;
  }
  if (cmd.is_txn) {
    ApplyTxn(cmd.txn, reply);
    return;
  }
  const KvResult res = ApplyOne(cmd.op);
  if (reply != nullptr) {
    *reply = res.Encode();
  }
}

KvResult KvStateMachine::ApplyOne(const KvOp& op) {
  auto it = kv_.lower_bound(op.key);
  const bool found = it != kv_.end() && it->first == op.key;
  const KvResult res = Step(op, found, found ? it->second : 0);
  if (op.kind != KvOpKind::kGet) {
    if (found) {
      it->second = res.value;
    } else {
      kv_.emplace_hint(it, op.key, res.value);
    }
  }
  return res;
}

std::vector<KvResult> KvStateMachine::EvaluateOps(
    const std::vector<KvOp>& ops) const {
  std::vector<KvResult> out;
  out.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    // The key as the record's last earlier op on it left it, else as the
    // store holds it. Records are a few ops long: a backward scan, no map.
    size_t j = i;
    while (j > 0 && ops[j - 1].key != ops[i].key) {
      --j;
    }
    bool found = false;
    uint64_t value = 0;
    if (j > 0) {
      const KvResult& prev = out[j - 1];
      found = prev.found || ops[j - 1].kind != KvOpKind::kGet;
      value = prev.value;
    } else if (auto it = kv_.find(ops[i].key); it != kv_.end()) {
      found = true;
      value = it->second;
    }
    out.push_back(Step(ops[i], found, value));
  }
  return out;
}

void KvStateMachine::Unlock(uint64_t txn_id, const std::vector<KvOp>& ops) {
  for (const KvOp& op : ops) {
    auto it = locks_.find(op.key);
    if (it != locks_.end() && it->second == txn_id) {
      locks_.erase(it);
    }
  }
}

void KvStateMachine::ApplyTxn(const KvTxnOp& txn, Bytes* reply) {
  const auto any_locked = [this](const std::vector<KvOp>& ops) {
    return std::any_of(ops.begin(), ops.end(), [this](const KvOp& op) {
      return locks_.count(op.key) > 0;
    });
  };
  KvMultiResult out;
  switch (txn.tag) {
    case TxnTag::kMulti: {
      // Single-shard fast path: atomic multi-key op, aborted (not blocked)
      // when any key sits under a prepared transaction's lock; ok = false
      // tells the client to retry.
      if (any_locked(txn.ops)) {
        break;
      }
      out.ok = true;
      out.results.reserve(reply != nullptr ? txn.ops.size() : 0);
      for (const KvOp& op : txn.ops) {
        const KvResult res = ApplyOne(op);
        if (reply != nullptr) {
          out.results.push_back(res);
        }
      }
      break;
    }
    case TxnTag::kPrepare: {
      if (decided_.count(txn.txn_id) > 0) {
        out.ok = true;  // duplicate prepare (retry): the vote stands
        break;
      }
      auto it = prepared_.find(txn.txn_id);
      if (it == prepared_.end()) {
        if (any_locked(txn.ops)) {
          break;  // vote no: conflicting prepare
        }
        for (const KvOp& op : txn.ops) {
          locks_[op.key] = txn.txn_id;
        }
        it = prepared_.emplace(txn.txn_id, txn).first;
      }
      // A yes vote carries the results the commit will apply. The locks
      // refuse every other write to these keys until the commit or abort,
      // so the values cannot change in between, and a duplicate prepare
      // evaluates the recorded ops to the same bytes.
      out.ok = true;
      if (reply != nullptr) {
        out.results = EvaluateOps(it->second.ops);
      }
      break;
    }
    case TxnTag::kCommit: {
      auto it = prepared_.find(txn.txn_id);
      if (it == prepared_.end()) {
        // A re-drive of a decided transaction is an idempotent yes; an
        // unknown transaction is refused.
        out.ok = decided_.count(txn.txn_id) > 0;
        break;
      }
      for (const KvOp& op : it->second.ops) {
        ApplyOne(op);
      }
      Unlock(txn.txn_id, it->second.ops);
      DecidedTxn d;
      d.participants = std::move(it->second.participants);
      d.client = it->second.client;
      d.client_req = it->second.client_req;
      prepared_.erase(it);
      decided_.emplace(txn.txn_id, std::move(d));
      out.ok = true;
      break;
    }
    case TxnTag::kAbort: {
      auto it = prepared_.find(txn.txn_id);
      if (it != prepared_.end()) {
        Unlock(txn.txn_id, it->second.ops);
        prepared_.erase(it);
      } else if (decided_.count(txn.txn_id) > 0) {
        break;  // decided txns cannot abort
      }
      out.ok = true;  // idempotent (presumed abort)
      break;
    }
    case TxnTag::kEnd: {
      decided_.erase(txn.txn_id);
      out.ok = true;
      break;
    }
    case TxnTag::kScan: {
      // A read through the log: it commits behind every record admitted
      // before it and changes nothing.
      if (reply != nullptr) {
        *reply = Scan(txn.txn_id).Encode();
      }
      return;
    }
  }
  if (reply != nullptr) {
    *reply = out.Encode();
  }
}

KvScanResult KvStateMachine::Scan(uint64_t prefix) const {
  // The two tables are disjoint (a commit moves a row from one to the
  // other): merge their `prefix` ranges in id order.
  const auto ours = [prefix](uint64_t txn_id) {
    return txn_id >> 40 == prefix;
  };
  auto p = prepared_.lower_bound(prefix << 40);
  auto d = decided_.lower_bound(prefix << 40);
  KvScanResult out;
  out.ok = true;
  while (true) {
    const bool more_p = p != prepared_.end() && ours(p->first);
    const bool more_d = d != decided_.end() && ours(d->first);
    if (more_p && (!more_d || p->first < d->first)) {
      out.rows.push_back({p->first, false, p->second.participants,
                          p->second.client, p->second.client_req});
      ++p;
    } else if (more_d) {
      out.rows.push_back({d->first, true, d->second.participants,
                          d->second.client, d->second.client_req});
      ++d;
    } else {
      return out;
    }
  }
}

Bytes KvStateMachine::SnapshotBytes() const {
  // The store, then the prepared and decided tables (two zero counts on a
  // machine that never saw a transaction record).
  size_t size = 8 + 16 * kv_.size() + 16;
  for (const auto& [txn_id, p] : prepared_) {
    size += TxnBodyBytes(p);
  }
  for (const auto& [txn_id, d] : decided_) {
    // id, client, client_req and participant count
    size += 24 + 4 * d.participants.size();
  }
  Bytes out;
  out.reserve(size);
  ByteWriter w(&out);
  w.U64(kv_.size());
  for (const auto& [key, value] : kv_) {  // std::map: sorted, canonical
    w.U64(key);
    w.U64(value);
  }
  w.U64(prepared_.size());
  for (const auto& [txn_id, p] : prepared_) {
    WriteTxnBody(w, p);
  }
  w.U64(decided_.size());
  for (const auto& [txn_id, d] : decided_) {
    w.U64(txn_id);
    WriteHome(w, d.participants, d.client, d.client_req);
  }
  return out;
}

void KvStateMachine::Restore(const Bytes& snapshot) {
  Reset();
  ByteReader r(snapshot);
  // The snapshot comes from a donor replica: a count larger than the bytes
  // left can hold ends decoding before allocating.
  const uint64_t count = r.U64();
  for (uint64_t i = 0; i < count && r.ok(); ++i) {
    const uint64_t key = r.U64();
    const uint64_t value = r.U64();
    kv_.emplace_hint(kv_.end(), key, value);
  }
  const uint64_t nprepared = r.U64();
  for (uint64_t i = 0; i < nprepared && r.ok(); ++i) {
    PreparedTxn p;
    p.tag = TxnTag::kPrepare;
    if (!ReadTxnBody(r, p)) {
      return;
    }
    if (r.ok()) {
      for (const KvOp& op : p.ops) {
        locks_[op.key] = p.txn_id;  // derived table: rebuilt, not snapshotted
      }
      prepared_.emplace(p.txn_id, std::move(p));
    }
  }
  const uint64_t ndecided = r.U64();
  for (uint64_t i = 0; i < ndecided && r.ok(); ++i) {
    const uint64_t txn_id = r.U64();
    DecidedTxn d;
    if (!ReadHome(r, d.participants, d.client, d.client_req)) {
      return;
    }
    if (r.ok()) {
      decided_.emplace(txn_id, std::move(d));
    }
  }
}

Digest KvStateMachine::StateDigest() const {
  return Sha256::Hash(SnapshotBytes());
}

void KvStateMachine::Reset() {
  kv_.clear();
  prepared_.clear();
  decided_.clear();
  locks_.clear();
}

}  // namespace optilog
