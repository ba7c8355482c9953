// Wire messages for the PBFT / BFT-SMaRt / Aware family (§5, §7.1).
// Aware names: Propose / Write / Accept == PBFT's Pre-Prepare / Prepare /
// Commit. Canonical encodings follow the conventions in DESIGN.md ("Wire
// format and cost model"); sizes model BFT-SMaRt's MAC-vector-free signed
// messages — the trailing 64-byte signature fields are modeled (zero-filled
// placeholders whose CPU cost the CryptoCostModel charges).
// Client-facing request/reply messages (and RequestRef) live in the shared
// workload layer (src/workload/messages.h) — both protocol families serve
// the same client fleet.
#pragma once

#include <vector>

#include "src/crypto/signature.h"
#include "src/sim/message.h"
#include "src/sim/time.h"
#include "src/statemachine/replica_rsm.h"
#include "src/workload/messages.h"

namespace optilog {

enum PbftMsgType {
  kMsgPrePrepare = 11,
  kMsgWrite = 12,
  kMsgAccept = 13,
};

// Body: seq u64 | leader u32 | timestamp i64 | batch count u32 | per request
// (client u32, request_id u64, sent_at i64, shard u32, op blob) | signature
// placeholder 64. OptiLog measurements commit through the measurement bus,
// not in proposals.
//
// Intentional delta vs the old declared size (8 + 4 + 8 + 16/request +
// op bytes + 64): +4 for the explicit batch count and +12/request — the old
// arithmetic under-counted the per-request header (sent_at, shard, and the
// op length prefix were free). fig13's proposal rows move accordingly; see
// EXPERIMENTS.md.
struct PrePrepareMsg : Message {
  // Not copyable: a copy changed before it is sent would keep the
  // original's Record().
  PrePrepareMsg() = default;
  PrePrepareMsg(const PrePrepareMsg&) = delete;
  PrePrepareMsg& operator=(const PrePrepareMsg&) = delete;

  uint64_t seq = 0;
  ReplicaId leader = kNoReplica;
  SimTime timestamp = 0;  // leader's proposal timestamp (§4.2.3)
  std::vector<RequestRef> batch;

  int type() const override { return kMsgPrePrepare; }
  MsgFamily family() const override { return MsgFamily::kPbft; }
  void EncodeTo(ByteWriter& w) const override {
    EncodeBatchSection(w);
    w.ZeroPad(kSignatureSize);
  }
  // The digest Write/Accept quorums form over: the SHA-256 of the canonical
  // batch section, the exact bytes on the wire, not a parallel ad-hoc
  // serialization.
  Digest BatchDigest() const {
    Bytes section;
    ByteWriter w(&section);
    EncodeBatchSection(w);
    return Sha256::Hash(section);
  }
  // This proposal's batch record: its requests, BatchDigest() and the
  // state machine's SharedBatch, one for every replica that accepts the
  // proposal. Built by the first and kept like WireSize()'s cache: the
  // record is a pure function of the message, which is immutable once
  // sent.
  const BatchRecordPtr& Record() const {
    if (record_ == nullptr) {
      record_ = BatchRecordPtr(new BatchRecord(batch, BatchDigest()));
    }
    return record_;
  }
  // The instance-identifying prefix (seq + leader + timestamp + batch):
  // what BatchDigest hashes, so the digest replicas agree on covers exactly
  // the canonical bytes of the proposal it certifies.
  void EncodeBatchSection(ByteWriter& w) const {
    w.U64(seq);
    w.U32(leader);
    w.I64(timestamp);
    w.U32(static_cast<uint32_t>(batch.size()));
    for (const RequestRef& req : batch) {
      w.U32(req.client);
      w.U64(req.request_id);
      w.I64(req.sent_at);
      w.U32(req.shard);
      w.Blob(req.op);
    }
  }
  static IntrusivePtr<PrePrepareMsg> Decode(int /*type*/, ByteReader& r) {
    auto m = MakeMessage<PrePrepareMsg>();
    m->seq = r.U64();
    m->leader = r.U32();
    m->timestamp = r.I64();
    const uint32_t count = r.U32();
    for (uint32_t i = 0; r.ok() && i < count; ++i) {
      RequestRef req;
      req.client = r.U32();
      req.request_id = r.U64();
      req.sent_at = r.I64();
      req.shard = r.U32();
      req.op = r.Blob();
      m->batch.push_back(std::move(req));
    }
    r.Skip(kSignatureSize);
    return m;
  }

 private:
  mutable BatchRecordPtr record_;  // Record()'s memo
};
// MessagePool's 128-byte class: a message that moved class would move
// message_pool_hits and misses, which MetricsFingerprint reads.
static_assert(sizeof(PrePrepareMsg) > 64 && sizeof(PrePrepareMsg) <= 128);

// Body: seq u64 | digest 32 | signature placeholder 64 (104 bytes, matching
// the old declared size). Write vs Accept rides the type tag.
struct PhaseMsg : Message {
  bool accept = false;
  uint64_t seq = 0;
  Digest digest{};

  int type() const override { return accept ? kMsgAccept : kMsgWrite; }
  MsgFamily family() const override { return MsgFamily::kPbft; }
  void EncodeTo(ByteWriter& w) const override {
    w.U64(seq);
    w.Raw(digest.data(), digest.size());
    w.ZeroPad(kSignatureSize);
  }
  static IntrusivePtr<PhaseMsg> Decode(int type, ByteReader& r) {
    auto m = MakeMessage<PhaseMsg>();
    m->accept = type == kMsgAccept;
    m->seq = r.U64();
    r.Raw(m->digest.data(), m->digest.size());
    r.Skip(kSignatureSize);
    return m;
  }
};

}  // namespace optilog
