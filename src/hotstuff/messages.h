// Wire messages for the chained HotStuff / Kauri / OptiTree family.
//
// Every message carries its canonical binary encoding (EncodeTo) and
// WireSize() derives from it — see src/wire/codec.h for the decode registry
// and DESIGN.md "Wire format and cost model" for the layout conventions:
// little-endian fixed-width header fields, raw 32-byte digests and 64-byte
// signature fields, length-prefixed variable blobs, and zero-filled
// placeholders for modeled payloads (batch commands) and modeled signatures.
// The forwarded flag is folded into the type tag and rides the out-of-band
// (family, type) frame header, never the body.
//
// Sizes model the real protocols: a proposal carries the batch (batch_size
// commands of cmd_bytes each) and the parent QC; votes are a digest plus one
// signature; aggregates carry a partial certificate (bitmap + aggregate
// signature) plus suspicions for missing children (the §6.3 b+1 rule). All
// their signatures are modeled, as PBFT's are: zero bytes on the wire and CPU
// charged by the CryptoCostModel; receivers authenticate votes and
// aggregates by their network sender.
#pragma once

#include <vector>

#include "src/core/measurement.h"
#include "src/crypto/quorum_cert.h"
#include "src/sim/message.h"
#include "src/sim/time.h"

namespace optilog {

enum HotStuffMsgType {
  kMsgPropose = 1,
  kMsgForward = 2,
  kMsgVote = 3,
  kMsgAggregate = 4,
};

// Body: view u64 | block 32 | timestamp i64 | batch_size u32 | cmd_bytes u32
//       | parent-QC placeholder (digest 32, signer count u32 = 0, aggregate
//       64; an empty QuorumCert serialization) | batch_size * cmd_bytes zero
//       payload.
// Byte-compatible with the pre-encoding declared size (156 + payload): the
// old "104-byte parent QC" constant was exactly an empty QC plus the
// cmd_bytes field now on the wire. OptiLog measurements commit through the
// measurement bus, not in proposals.
struct ProposeMsg : Message {
  uint64_t view = 0;
  Digest block{};
  SimTime timestamp = 0;  // leader's proposal timestamp (§4.2.3)
  uint32_t batch_size = 0;
  size_t cmd_bytes = 0;

  bool forwarded = false;  // true on the intermediate -> leaf hop

  int type() const override { return forwarded ? kMsgForward : kMsgPropose; }
  MsgFamily family() const override { return MsgFamily::kHotStuff; }
  void EncodeTo(ByteWriter& w) const override {
    w.U64(view);
    w.Raw(block.data(), block.size());
    w.I64(timestamp);
    w.U32(batch_size);
    w.U32(static_cast<uint32_t>(cmd_bytes));
    // Parent-QC slot: the dissemination tree aggregates votes out-of-band
    // (AggregateMsg), so proposals carry the size of an empty certificate.
    w.ZeroPad(32);  // parent digest
    w.U32(0);       // signer count
    w.ZeroPad(kSignatureSize);
    w.ZeroPad(static_cast<size_t>(batch_size) * cmd_bytes);
  }
  static IntrusivePtr<ProposeMsg> Decode(int type, ByteReader& r) {
    auto m = MakeMessage<ProposeMsg>();
    m->forwarded = type == kMsgForward;
    m->view = r.U64();
    r.Raw(m->block.data(), m->block.size());
    m->timestamp = r.I64();
    m->batch_size = r.U32();
    m->cmd_bytes = r.U32();
    r.Skip(32);
    const uint32_t qc_signers = r.U32();
    r.Skip(4ull * qc_signers + kSignatureSize);
    r.Skip(static_cast<uint64_t>(m->batch_size) * m->cmd_bytes);
    return m;
  }
};
// MessagePool's 128-byte class: a message that moved class would move
// message_pool_hits and misses, which MetricsFingerprint reads.
static_assert(sizeof(ProposeMsg) > 64 && sizeof(ProposeMsg) <= 128);

// Body: view u64 | block 32 | signer u32 | signature 64. The signature is
// modeled (the signer's id, 64 zero bytes); SigningBytes() is the body before
// the signer id, the bytes a checked vote signature would cover.
struct VoteMsg : Message {
  uint64_t view = 0;
  Digest block{};
  Signature sig;

  int type() const override { return kMsgVote; }
  MsgFamily family() const override { return MsgFamily::kHotStuff; }
  void EncodeTo(ByteWriter& w) const override {
    w.U64(view);
    w.Raw(block.data(), block.size());
    sig.Serialize(w);
  }
  Bytes SigningBytes() const {
    Bytes out;
    ByteWriter w(&out);
    EncodeTo(w);
    out.resize(out.size() - Signature::kWireSize);
    return out;
  }
  static IntrusivePtr<VoteMsg> Decode(int /*type*/, ByteReader& r) {
    auto m = MakeMessage<VoteMsg>();
    m->view = r.U64();
    r.Raw(m->block.data(), m->block.size());
    m->sig = Signature::Deserialize(r);
    return m;
  }
};

// Body: view u64 | block 32 | voter count u32 | voter ids u32 each |
// aggregate-signature placeholder 64 | missing-child suspicions, 20 bytes
// each (suspector u32, suspect u32, round u64, type u16, phase u16), to end
// of body. The aggregate bytes are a modeled certificate (zero-filled; the
// CryptoCostModel charges its aggregation/verification CPU), matching the
// old declared kSignatureSize constant.
struct AggregateMsg : Message {
  uint64_t view = 0;
  Digest block{};
  std::vector<ReplicaId> voters;         // children (and self) that voted
  std::vector<SuspicionRecord> missing;  // suspicions for absent children

  int type() const override { return kMsgAggregate; }
  MsgFamily family() const override { return MsgFamily::kHotStuff; }
  void EncodeTo(ByteWriter& w) const override {
    w.U64(view);
    w.Raw(block.data(), block.size());
    w.U32(static_cast<uint32_t>(voters.size()));
    for (ReplicaId v : voters) {
      w.U32(v);
    }
    w.ZeroPad(kSignatureSize);
    for (const SuspicionRecord& s : missing) {
      w.U32(s.suspector);
      w.U32(s.suspect);
      w.U64(s.round);
      w.U16(static_cast<uint16_t>(s.type));
      w.U16(static_cast<uint16_t>(s.phase));
    }
  }
  static IntrusivePtr<AggregateMsg> Decode(int /*type*/, ByteReader& r) {
    auto m = MakeMessage<AggregateMsg>();
    m->view = r.U64();
    r.Raw(m->block.data(), m->block.size());
    const uint32_t voters = r.U32();
    if (!r.ok() || r.remaining() < 4ull * voters + kSignatureSize) {
      r.Skip(r.remaining() + 1);  // poison: truncated voter list
      return m;
    }
    m->voters.reserve(voters);
    for (uint32_t i = 0; i < voters; ++i) {
      m->voters.push_back(r.U32());
    }
    r.Skip(kSignatureSize);
    while (r.ok() && r.remaining() >= 20) {
      SuspicionRecord s;
      s.suspector = r.U32();
      s.suspect = r.U32();
      s.round = r.U64();
      s.type = static_cast<SuspicionType>(r.U16());
      s.phase = static_cast<PhaseTag>(r.U16());
      m->missing.push_back(s);
    }
    if (r.remaining() != 0) {
      r.Skip(r.remaining() + 1);  // poison: trailing partial record
    }
    return m;
  }
};

}  // namespace optilog
