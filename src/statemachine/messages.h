// Wire messages for crash-recovery state transfer (src/statemachine/).
//
// A recovering replica drives the protocol: it asks a donor for its latest
// checkpoint in fixed-size chunks (StateFetch -> StateChunk), installs and
// digest-verifies the snapshot, then streams the log suffix after the
// checkpoint (LogSuffixFetch -> LogSuffixChunk), verifying the SHA-256
// chain head the donor quotes after every chunk. Requests carry a session
// nonce so replies from an abandoned donor are dropped; every request arms
// a timeout that re-routes the transfer to the next live donor, resuming
// from the chunks already received when the new donor holds the same
// checkpoint. All of it rides the typed Delivery lane — no closures.
//
// Canonical encodings are byte-for-byte the old declared sizes (they feed
// the fingerprinted transfer_bytes metric): fixed-width headers, raw
// digests, a length-prefixed data blob, and a modeled 64-byte signature
// placeholder. LogEntry's committed_at stays off the wire — it is
// receiver-local, exactly as it is excluded from the chain hash.
#pragma once

#include <vector>

#include "src/crypto/signature.h"
#include "src/rsm/log.h"
#include "src/sim/message.h"
#include "src/sim/time.h"

namespace optilog {

enum StateTransferMsgType {
  kMsgStateFetch = 40,
  kMsgStateChunk = 41,
  kMsgLogSuffixFetch = 42,
  kMsgLogSuffixChunk = 43,
};

// Body: session u64 | chunk u64 | have_partial u8 | through_index u64 |
// state digest 32 | signature placeholder 64 (121 bytes).
struct StateFetchMsg : Message {
  uint64_t session = 0;  // recoverer's nonce; stale replies are dropped
  uint64_t chunk = 0;    // next snapshot chunk the recoverer needs
  // The checkpoint the recoverer is partway through (resume handshake): a
  // donor whose latest checkpoint matches serves `chunk`; one that moved on
  // serves its own chunk 0 and the recoverer restarts the download.
  bool have_partial = false;
  uint64_t through_index = 0;
  Digest state_digest{};

  int type() const override { return kMsgStateFetch; }
  MsgFamily family() const override { return MsgFamily::kState; }
  void EncodeTo(ByteWriter& w) const override {
    w.U64(session);
    w.U64(chunk);
    w.U8(have_partial ? 1 : 0);
    w.U64(through_index);
    w.Raw(state_digest.data(), state_digest.size());
    w.ZeroPad(kSignatureSize);
  }
  static IntrusivePtr<StateFetchMsg> Decode(int /*type*/, ByteReader& r) {
    auto m = MakeMessage<StateFetchMsg>();
    m->session = r.U64();
    m->chunk = r.U64();
    m->have_partial = r.U8() != 0;
    m->through_index = r.U64();
    r.Raw(m->state_digest.data(), m->state_digest.size());
    r.Skip(kSignatureSize);
    return m;
  }
};

// Body: session u64 | has_checkpoint u8 | through_index u64 | state digest
// 32 | log head 32 | chunk u64 | total_chunks u64 | data blob | signature
// placeholder 64.
struct StateChunkMsg : Message {
  uint64_t session = 0;
  // Donor has no checkpoint yet: skip straight to a full-log suffix fetch
  // from index 0.
  bool has_checkpoint = false;
  uint64_t through_index = 0;
  Digest state_digest{};
  Digest log_head{};
  uint64_t chunk = 0;
  uint64_t total_chunks = 0;
  Bytes data;

  int type() const override { return kMsgStateChunk; }
  MsgFamily family() const override { return MsgFamily::kState; }
  void EncodeTo(ByteWriter& w) const override {
    w.U64(session);
    w.U8(has_checkpoint ? 1 : 0);
    w.U64(through_index);
    w.Raw(state_digest.data(), state_digest.size());
    w.Raw(log_head.data(), log_head.size());
    w.U64(chunk);
    w.U64(total_chunks);
    w.Blob(data);
    w.ZeroPad(kSignatureSize);
  }
  static IntrusivePtr<StateChunkMsg> Decode(int /*type*/, ByteReader& r) {
    auto m = MakeMessage<StateChunkMsg>();
    m->session = r.U64();
    m->has_checkpoint = r.U8() != 0;
    m->through_index = r.U64();
    r.Raw(m->state_digest.data(), m->state_digest.size());
    r.Raw(m->log_head.data(), m->log_head.size());
    m->chunk = r.U64();
    m->total_chunks = r.U64();
    m->data = r.Blob();
    r.Skip(kSignatureSize);
    return m;
  }
};

// Body: session u64 | from_index u64 | signature placeholder 64 (80 bytes).
struct LogSuffixFetchMsg : Message {
  uint64_t session = 0;
  uint64_t from_index = 0;

  int type() const override { return kMsgLogSuffixFetch; }
  MsgFamily family() const override { return MsgFamily::kState; }
  void EncodeTo(ByteWriter& w) const override {
    w.U64(session);
    w.U64(from_index);
    w.ZeroPad(kSignatureSize);
  }
  static IntrusivePtr<LogSuffixFetchMsg> Decode(int /*type*/, ByteReader& r) {
    auto m = MakeMessage<LogSuffixFetchMsg>();
    m->session = r.U64();
    m->from_index = r.U64();
    r.Skip(kSignatureSize);
    return m;
  }
};

// Body: session u64 | from_index u64 | truncated_past u8 | head_after 32 |
// donor_frontier u64 | entry count u32 | per entry (index u64, kind u8,
// proposer u32, batch_size u32, payload blob) | signature placeholder 64.
struct LogSuffixChunkMsg : Message {
  uint64_t session = 0;
  uint64_t from_index = 0;
  // The donor truncated past from_index (it checkpointed while we fetched):
  // the recoverer must restart from a fresh snapshot.
  bool truncated_past = false;
  std::vector<LogEntry> entries;  // [from_index, from_index + entries.size())
  Digest head_after{};            // donor chain head after the last entry
  uint64_t donor_frontier = 0;    // donor applied frontier at send time

  int type() const override { return kMsgLogSuffixChunk; }
  MsgFamily family() const override { return MsgFamily::kState; }
  void EncodeTo(ByteWriter& w) const override {
    w.U64(session);
    w.U64(from_index);
    w.U8(truncated_past ? 1 : 0);
    w.Raw(head_after.data(), head_after.size());
    w.U64(donor_frontier);
    w.U32(static_cast<uint32_t>(entries.size()));
    for (const LogEntry& e : entries) {
      w.U64(e.index);
      w.U8(static_cast<uint8_t>(e.kind));
      w.U32(e.proposer);
      w.U32(e.batch_size);
      w.Blob(e.payload);
    }
    w.ZeroPad(kSignatureSize);
  }
  static IntrusivePtr<LogSuffixChunkMsg> Decode(int /*type*/, ByteReader& r) {
    auto m = MakeMessage<LogSuffixChunkMsg>();
    m->session = r.U64();
    m->from_index = r.U64();
    m->truncated_past = r.U8() != 0;
    r.Raw(m->head_after.data(), m->head_after.size());
    m->donor_frontier = r.U64();
    const uint32_t count = r.U32();
    for (uint32_t i = 0; r.ok() && i < count; ++i) {
      LogEntry e;
      e.index = r.U64();
      e.kind = static_cast<EntryKind>(r.U8());
      e.proposer = r.U32();
      e.batch_size = r.U32();
      e.payload = r.Blob();
      m->entries.push_back(std::move(e));
    }
    r.Skip(kSignatureSize);
    return m;
  }
};

}  // namespace optilog
