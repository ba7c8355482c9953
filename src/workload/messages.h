// Client-facing wire messages shared by every protocol family.
//
// A client issues a ClientRequestMsg to its target replica; replicas that do
// not currently hold the leader/root role forward it (same immutable message)
// to the one that does. The serving replica answers with one ClientReplyMsg
// per request at the commit boundary; the client counts replies until its
// quorum (f + 1 for the PBFT family, the root's single commit-stamped reply
// for the tree family) and measures end-to-end latency from the original
// send. Sizes model signed request/reply headers (BFT-SMaRt style); the
// 64-byte signature fields are modeled placeholders (clients hold no
// KeyStore) whose CPU cost the CryptoCostModel charges.
#pragma once

#include "src/crypto/signature.h"
#include "src/sim/message.h"
#include "src/sim/time.h"
#include "src/util/bytes.h"

namespace optilog {

enum WorkloadMsgType {
  kMsgClientRequest = 30,
  kMsgClientReply = 31,
};

// What a leader's request queue and a proposal batch carry per request.
// `op` is the encoded state-machine operation (src/statemachine/) when the
// deployment executes one; empty for byte-counting-only workloads.
struct RequestRef {
  ReplicaId client = kNoReplica;
  uint64_t request_id = 0;
  SimTime sent_at = 0;  // the client's original send (retries keep it)
  Bytes op;
  // Shard the request targets (sharded deployments); request ids are
  // monotonic per (client, shard), so the leader-side dedup window keys on
  // the pair. Always 0 for single-group deployments.
  uint32_t shard = 0;
};

// Body: client u32 | request_id u64 | sent_at i64 | shard u32 | payload
// length u32 + zero filler | op blob | signature placeholder 64.
//
// Intentional delta vs the old declared size (24 + payload + op + 64): +8
// for the two length prefixes (payload filler and op) the old arithmetic
// didn't count.
struct ClientRequestMsg : Message {
  ReplicaId client = kNoReplica;
  uint64_t request_id = 0;
  SimTime sent_at = 0;
  size_t payload_bytes = 0;
  Bytes op;  // encoded state-machine operation (may be empty)
  uint32_t shard = 0;  // target shard (sharded deployments; else 0)

  int type() const override { return kMsgClientRequest; }
  MsgFamily family() const override { return MsgFamily::kWorkload; }
  void EncodeTo(ByteWriter& w) const override {
    w.U32(client);
    w.U64(request_id);
    w.I64(sent_at);
    w.U32(shard);
    w.U32(static_cast<uint32_t>(payload_bytes));
    w.ZeroPad(payload_bytes);
    w.Blob(op);
    w.ZeroPad(kSignatureSize);
  }
  static IntrusivePtr<ClientRequestMsg> Decode(int /*type*/, ByteReader& r) {
    auto m = MakeMessage<ClientRequestMsg>();
    m->client = r.U32();
    m->request_id = r.U64();
    m->sent_at = r.I64();
    m->shard = r.U32();
    m->payload_bytes = r.U32();
    r.Skip(m->payload_bytes);
    m->op = r.Blob();
    r.Skip(kSignatureSize);
    return m;
  }
};

// Body: request_id u64 | seq u64 | result blob | signature placeholder 64.
//
// Intentional delta vs the old declared size (16 + result + 64): +4 for the
// result length prefix.
struct ClientReplyMsg : Message {
  uint64_t request_id = 0;
  uint64_t seq = 0;   // committed block / instance
  Bytes result;       // encoded state-machine result (may be empty)

  int type() const override { return kMsgClientReply; }
  MsgFamily family() const override { return MsgFamily::kWorkload; }
  void EncodeTo(ByteWriter& w) const override {
    w.U64(request_id);
    w.U64(seq);
    w.Blob(result);
    w.ZeroPad(kSignatureSize);
  }
  static IntrusivePtr<ClientReplyMsg> Decode(int /*type*/, ByteReader& r) {
    auto m = MakeMessage<ClientReplyMsg>();
    m->request_id = r.U64();
    m->seq = r.U64();
    m->result = r.Blob();
    r.Skip(kSignatureSize);
    return m;
  }
};

}  // namespace optilog
