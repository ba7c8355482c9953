// Wire messages between transaction clients and shard coordinators.
//
// A cross-shard transaction travels client -> coordinator (TxnRequestMsg),
// then as ordinary ClientRequestMsgs carrying encoded KvTxnOp records into
// each participant shard's log (the coordinator is just another client of
// each group), and finally coordinator -> client (TxnReplyMsg). Single-shard
// transactions skip the coordinator entirely: the client sends a kMulti
// record straight to the shard leader.
//
// Canonical encodings are byte-for-byte the old declared sizes; the 64-byte
// signature fields are modeled placeholders. Type tags 40/41 collide with
// the state-transfer family — MsgFamily::kShard disambiguates in the decode
// registry.
#pragma once

#include "src/crypto/signature.h"
#include "src/sim/message.h"
#include "src/sim/time.h"
#include "src/statemachine/state_machine.h"

namespace optilog {

enum ShardMsgType {
  kMsgTxnRequest = 40,
  kMsgTxnReply = 41,
};

// Body: client u32 | request_id u64 | sent_at i64 | op count u32 | per op
// (kind u8, key u64, arg u64 — KvOp's 17-byte encoding) | signature
// placeholder 64.
struct TxnRequestMsg : Message {
  ReplicaId client = kNoReplica;
  uint64_t request_id = 0;  // monotonic per client; coordinator dedup key
  SimTime sent_at = 0;
  std::vector<KvOp> ops;

  int type() const override { return kMsgTxnRequest; }
  MsgFamily family() const override { return MsgFamily::kShard; }
  void EncodeTo(ByteWriter& w) const override {
    w.U32(client);
    w.U64(request_id);
    w.I64(sent_at);
    w.U32(static_cast<uint32_t>(ops.size()));
    for (const KvOp& op : ops) {
      w.U8(static_cast<uint8_t>(op.kind));
      w.U64(op.key);
      w.U64(op.arg);
    }
    w.ZeroPad(kSignatureSize);
  }
  static IntrusivePtr<TxnRequestMsg> Decode(int /*type*/, ByteReader& r) {
    auto m = MakeMessage<TxnRequestMsg>();
    m->client = r.U32();
    m->request_id = r.U64();
    m->sent_at = r.I64();
    const uint32_t count = r.U32();
    for (uint32_t i = 0; r.ok() && i < count; ++i) {
      KvOp op;
      op.kind = static_cast<KvOpKind>(r.U8());
      op.key = r.U64();
      op.arg = r.U64();
      m->ops.push_back(op);
    }
    r.Skip(kSignatureSize);
    return m;
  }
};

// Body: request_id u64 | committed u32 | results blob | signature
// placeholder 64.
struct TxnReplyMsg : Message {
  uint64_t request_id = 0;
  bool committed = false;
  // Per-op results in op order for a commit decided on the normal path;
  // empty for a commit resolved after coordinator recovery (the scanned
  // rows prove the outcome, not the values).
  Bytes results;

  int type() const override { return kMsgTxnReply; }
  MsgFamily family() const override { return MsgFamily::kShard; }
  void EncodeTo(ByteWriter& w) const override {
    w.U64(request_id);
    w.U32(committed ? 1 : 0);
    w.Blob(results);
    w.ZeroPad(kSignatureSize);
  }
  static IntrusivePtr<TxnReplyMsg> Decode(int /*type*/, ByteReader& r) {
    auto m = MakeMessage<TxnReplyMsg>();
    m->request_id = r.U64();
    m->committed = r.U32() != 0;
    m->results = r.Blob();
    r.Skip(kSignatureSize);
    return m;
  }
};

}  // namespace optilog
