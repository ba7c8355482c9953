// Canonical wire codec properties (src/wire/codec.h):
//
//   * every registered (family, type) pair round-trips: decode(encode(m))
//     re-encodes byte-identically, and WireSize() equals the body bytes
//     actually produced;
//   * truncated frames fail cleanly — any accepted prefix is itself a
//     canonical frame (variable-tail messages legitimately accept shorter
//     bodies), everything else decodes to nullptr, nothing crashes;
//   * corrupted bytes never crash the decoders (Byzantine senders hand
//     receivers arbitrary strings);
//   * migration pins: each body size matches the arithmetic the old
//     declared-WireSize() code modeled, exactly for the parity types and
//     with the documented deltas (PrePrepare +4 +12/request, ClientRequest
//     +8, ClientReply +4) for the rest;
//   * signing covers canonical bytes: a vote's SigningBytes() is the exact
//     wire prefix before its signature field, byte-pinned here so the
//     signed layout cannot drift silently.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/crypto/sha256.h"
#include "src/crypto/signature.h"
#include "src/hotstuff/messages.h"
#include "src/pbft/messages.h"
#include "src/shard/txn_messages.h"
#include "src/statemachine/messages.h"
#include "src/wire/codec.h"
#include "src/workload/messages.h"

namespace optilog {
namespace {

Digest TestDigest(uint8_t seed) {
  Digest d{};
  for (size_t i = 0; i < d.size(); ++i) {
    d[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return d;
}

Bytes TestBlob(size_t len, uint8_t seed) {
  Bytes b(len);
  for (size_t i = 0; i < len; ++i) {
    b[i] = static_cast<uint8_t>(seed ^ (i * 13));
  }
  return b;
}

SuspicionRecord TestSuspicion() {
  SuspicionRecord s;
  s.type = SuspicionType::kSlow;
  s.suspector = 3;
  s.suspect = 9;
  s.round = 77;
  s.phase = PhaseTag::kFirstVote;
  return s;
}

// One populated sample per registered (family, type) pair, with every field
// non-default so an encoder that drops a field cannot round-trip.
MessagePtr SampleFor(MsgFamily family, int type) {
  switch (family) {
    case MsgFamily::kHotStuff:
      switch (type) {
        case kMsgPropose:
        case kMsgForward: {
          auto m = MakeMessage<ProposeMsg>();
          m->forwarded = type == kMsgForward;
          m->view = 42;
          m->block = TestDigest(1);
          m->timestamp = 123456;
          m->batch_size = 5;
          m->cmd_bytes = 32;
          m->measurements = {TestBlob(9, 0x11), TestBlob(17, 0x22)};
          return m;
        }
        case kMsgVote: {
          auto m = MakeMessage<VoteMsg>();
          m->view = 7;
          m->block = TestDigest(2);
          KeyStore keys(4, 0xfeed);
          m->sig = keys.Sign(2, m->SigningBytes());
          return m;
        }
        case kMsgAggregate: {
          auto m = MakeMessage<AggregateMsg>();
          m->view = 9;
          m->block = TestDigest(3);
          m->voters = {1, 4, 6};
          m->missing = {TestSuspicion()};
          return m;
        }
      }
      break;
    case MsgFamily::kPbft:
      switch (type) {
        case kMsgPrePrepare: {
          auto m = MakeMessage<PrePrepareMsg>();
          m->seq = 31;
          m->leader = 2;
          m->timestamp = 987654;
          RequestRef req;
          req.client = 12;
          req.request_id = 99;
          req.sent_at = 1000;
          req.shard = 1;
          req.op = TestBlob(6, 0x33);
          m->batch = {req, req};
          m->measurements = {TestBlob(11, 0x44)};
          return m;
        }
        case kMsgWrite:
        case kMsgAccept: {
          auto m = MakeMessage<PhaseMsg>();
          m->accept = type == kMsgAccept;
          m->seq = 55;
          m->digest = TestDigest(4);
          return m;
        }
      }
      break;
    case MsgFamily::kWorkload:
      switch (type) {
        case kMsgClientRequest: {
          auto m = MakeMessage<ClientRequestMsg>();
          m->client = 200;
          m->request_id = 8;
          m->sent_at = 2222;
          m->payload_bytes = 48;
          m->op = TestBlob(10, 0x55);
          m->shard = 2;
          return m;
        }
        case kMsgClientReply: {
          auto m = MakeMessage<ClientReplyMsg>();
          m->request_id = 8;
          m->seq = 61;
          m->result = TestBlob(5, 0x66);
          return m;
        }
      }
      break;
    case MsgFamily::kState:
      switch (type) {
        case kMsgStateFetch: {
          auto m = MakeMessage<StateFetchMsg>();
          m->session = 17;
          m->chunk = 3;
          m->have_partial = true;
          m->through_index = 400;
          m->state_digest = TestDigest(5);
          return m;
        }
        case kMsgStateChunk: {
          auto m = MakeMessage<StateChunkMsg>();
          m->session = 17;
          m->has_checkpoint = true;
          m->through_index = 400;
          m->state_digest = TestDigest(6);
          m->log_head = TestDigest(7);
          m->chunk = 3;
          m->total_chunks = 12;
          m->data = TestBlob(100, 0x77);
          return m;
        }
        case kMsgLogSuffixFetch: {
          auto m = MakeMessage<LogSuffixFetchMsg>();
          m->session = 18;
          m->from_index = 401;
          return m;
        }
        case kMsgLogSuffixChunk: {
          auto m = MakeMessage<LogSuffixChunkMsg>();
          m->session = 18;
          m->from_index = 401;
          m->truncated_past = false;
          LogEntry e;
          e.index = 401;
          e.kind = EntryKind::kMeasurement;
          e.proposer = 5;
          e.batch_size = 2;
          e.payload = TestBlob(8, 0x88);
          m->entries = {e};
          m->head_after = TestDigest(8);
          m->donor_frontier = 420;
          return m;
        }
      }
      break;
    case MsgFamily::kShard:
      switch (type) {
        case kMsgTxnRequest: {
          auto m = MakeMessage<TxnRequestMsg>();
          m->client = 300;
          m->request_id = 14;
          m->sent_at = 3333;
          KvOp op;
          op.kind = KvOpKind::kAdd;
          op.key = 0x1234;
          op.arg = 5;
          m->ops = {op, op};
          return m;
        }
        case kMsgTxnReply: {
          auto m = MakeMessage<TxnReplyMsg>();
          m->request_id = 14;
          m->committed = true;
          m->results = TestBlob(16, 0x99);
          return m;
        }
      }
      break;
  }
  return nullptr;
}

TEST(WireCodec, EveryRegisteredTypeRoundTrips) {
  const auto types = RegisteredMessageTypes();
  ASSERT_EQ(types.size(), 15u);
  for (const auto& [family, type] : types) {
    SCOPED_TRACE("family=" + std::to_string(static_cast<int>(family)) +
                 " type=" + std::to_string(type));
    const MessagePtr sample = SampleFor(family, type);
    ASSERT_NE(sample, nullptr) << "SampleFor misses a registered type";
    EXPECT_EQ(sample->family(), family);
    EXPECT_EQ(sample->type(), type);

    const Bytes frame = EncodeMessage(*sample);
    // WireSize() is the cached counting-mode encoding: body bytes exactly.
    EXPECT_EQ(sample->WireSize(), frame.size() - 2);

    const MessagePtr decoded = DecodeMessage(frame);
    ASSERT_NE(decoded, nullptr);
    EXPECT_EQ(decoded->family(), family);
    EXPECT_EQ(decoded->type(), type);
    // Canonical codec: re-encoding an accepted frame reproduces it.
    EXPECT_EQ(EncodeMessage(*decoded), frame);
  }
}

TEST(WireCodec, TruncatedFramesFailCleanly) {
  for (const auto& [family, type] : RegisteredMessageTypes()) {
    SCOPED_TRACE("family=" + std::to_string(static_cast<int>(family)) +
                 " type=" + std::to_string(type));
    const Bytes frame = EncodeMessage(*SampleFor(family, type));
    for (size_t len = 0; len < frame.size(); ++len) {
      const Bytes prefix(frame.begin(), frame.begin() + static_cast<long>(len));
      const MessagePtr m = DecodeMessage(prefix);
      if (m != nullptr) {
        // Variable-tail bodies (measurement lists, suspicion lists) may
        // accept a shorter frame. The decode must then have consumed the
        // prefix under a consistent structure: the re-encoding has the
        // prefix's exact length (no over- or under-read) and is a codec
        // fixed point. Byte equality is deliberately not required — the
        // modeled signature slots are skipped on decode but zero-filled on
        // encode, so a tail that lands in one normalizes to zeros.
        const Bytes reenc = EncodeMessage(*m);
        EXPECT_EQ(reenc.size(), prefix.size()) << "prefix len " << len;
        const MessagePtr again = DecodeMessage(reenc);
        ASSERT_NE(again, nullptr) << "prefix len " << len;
        EXPECT_EQ(EncodeMessage(*again), reenc) << "prefix len " << len;
      }
    }
  }
}

TEST(WireCodec, TrailingByteRejected) {
  for (const auto& [family, type] : RegisteredMessageTypes()) {
    Bytes frame = EncodeMessage(*SampleFor(family, type));
    frame.push_back(0x00);
    EXPECT_EQ(DecodeMessage(frame), nullptr)
        << "family=" << static_cast<int>(family) << " type=" << type;
  }
}

TEST(WireCodec, CorruptedBytesNeverCrash) {
  for (const auto& [family, type] : RegisteredMessageTypes()) {
    const Bytes frame = EncodeMessage(*SampleFor(family, type));
    for (size_t pos = 0; pos < frame.size(); ++pos) {
      for (uint8_t patch : {uint8_t{0x00}, uint8_t{0xff},
                            static_cast<uint8_t>(frame[pos] ^ 0x01)}) {
        Bytes corrupted = frame;
        corrupted[pos] = patch;
        // Must not crash or over-read; nullptr and reinterpretation are
        // both acceptable outcomes for Byzantine bytes.
        const MessagePtr m = DecodeMessage(corrupted);
        if (m != nullptr) {
          EXPECT_GT(m->WireSize(), 0u);
        }
      }
    }
  }
}

TEST(WireCodec, UnknownFamilyOrTypeRejected) {
  Bytes frame = EncodeMessage(*SampleFor(MsgFamily::kHotStuff, kMsgVote));
  Bytes bad_family = frame;
  bad_family[0] = 0xee;
  EXPECT_EQ(DecodeMessage(bad_family), nullptr);
  Bytes bad_type = frame;
  bad_type[1] = 0xee;
  EXPECT_EQ(DecodeMessage(bad_type), nullptr);
  EXPECT_EQ(DecodeMessage(Bytes{}), nullptr);
  EXPECT_EQ(DecodeMessage(Bytes{0x01}), nullptr);
}

// ---------------------------------------------------------------------------
// Migration size pins: the canonical encodings against the arithmetic the
// retired declared-WireSize() bodies computed. Exact parity everywhere
// except the three documented deltas.

TEST(WireSizes, TreeFamilyMatchesDeclaredArithmetic) {
  ProposeMsg propose;
  propose.batch_size = 250;
  propose.cmd_bytes = 100;
  propose.measurements = {TestBlob(40, 1), TestBlob(7, 2)};
  // 156-byte header/QC frame + payload + (4 + len) per measurement — the
  // exact pre-encoding formula ("104-byte parent QC" = empty QC + cmd_bytes
  // field).
  EXPECT_EQ(propose.WireSize(), 156u + 250u * 100u + (4 + 40) + (4 + 7));

  VoteMsg vote;
  EXPECT_EQ(vote.WireSize(), 8u + 32u + Signature::kWireSize);  // 108

  AggregateMsg agg;
  agg.voters = {0, 1, 2, 3, 4};
  agg.missing = {TestSuspicion(), TestSuspicion()};
  EXPECT_EQ(agg.WireSize(), 8u + 32u + 4u + 5u * 4u + 64u + 2u * 20u);
}

TEST(WireSizes, PbftFamilyDocumentedDeltas) {
  PrePrepareMsg pp;
  pp.batch.resize(100);
  // Old declared: 8 + 4 + 8 + 16/request + 64 = 1684 at batch=100. The
  // canonical encoding adds the batch-count u32 and 12 bytes per request
  // (sent_at, shard, op length prefix): +1204 — the fig13 baseline shift.
  const size_t old_declared = 8 + 4 + 8 + 16 * 100 + 64;
  EXPECT_EQ(pp.WireSize(), old_declared + 4 + 12 * 100);
  EXPECT_EQ(pp.WireSize(), 2888u);

  PhaseMsg phase;
  EXPECT_EQ(phase.WireSize(), 104u);  // exact parity: 8 + 32 + 64
}

TEST(WireSizes, WorkloadFamilyDocumentedDeltas) {
  ClientRequestMsg req;
  req.payload_bytes = 128;
  req.op = TestBlob(20, 3);
  // Old declared: 24 + payload + op + 64. Canonical adds the two length
  // prefixes (+8).
  EXPECT_EQ(req.WireSize(), 24u + 128u + 20u + 64u + 8u);

  ClientReplyMsg reply;
  reply.result = TestBlob(12, 4);
  // Old declared: 16 + result + 64. Canonical adds the result prefix (+4).
  EXPECT_EQ(reply.WireSize(), 16u + 12u + 64u + 4u);
}

TEST(WireSizes, StateAndShardFamiliesExactParity) {
  StateFetchMsg sf;
  EXPECT_EQ(sf.WireSize(), 121u);

  StateChunkMsg sc;
  sc.data = TestBlob(4096, 5);
  EXPECT_EQ(sc.WireSize(), 165u + 4096u);

  LogSuffixFetchMsg lf;
  EXPECT_EQ(lf.WireSize(), 80u);

  LogSuffixChunkMsg lc;
  LogEntry e;
  e.payload = TestBlob(30, 6);
  lc.entries = {e, e};
  EXPECT_EQ(lc.WireSize(), 125u + 2u * (21u + 30u));

  TxnRequestMsg tr;
  tr.ops.resize(3);
  EXPECT_EQ(tr.WireSize(), 88u + 3u * 17u);

  TxnReplyMsg tp;
  tp.results = TestBlob(24, 7);
  // 80 = 8 + 4 + 4 (results length prefix) + 64 — the old declared base
  // already counted the prefix.
  EXPECT_EQ(tp.WireSize(), 80u + 24u);
}

// ---------------------------------------------------------------------------
// Signed bytes == wire bytes.

TEST(WireSigning, VoteSignatureCoversWirePrefix) {
  KeyStore keys(4, 0xfeed);
  VoteMsg vote;
  vote.view = 0x0102030405060708;
  vote.block = TestDigest(9);
  vote.sig = keys.Sign(1, vote.SigningBytes());

  Bytes body;
  ByteWriter w(&body);
  vote.EncodeTo(w);
  // SigningBytes() is exactly the wire body before the signature field.
  const Bytes prefix(body.begin(),
                     body.begin() + static_cast<long>(8 + vote.block.size()));
  EXPECT_EQ(vote.SigningBytes(), prefix);

  // Byte-pinned layout: view little-endian, then the raw digest. If this
  // moves, every previously produced vote signature is invalidated — that
  // must be a deliberate, visible change.
  ASSERT_EQ(prefix.size(), 40u);
  const Bytes expected_view = {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  EXPECT_TRUE(std::equal(expected_view.begin(), expected_view.end(),
                         prefix.begin()));
  EXPECT_TRUE(std::equal(vote.block.begin(), vote.block.end(),
                         prefix.begin() + 8));

  // A decoded vote verifies against its own re-derived signing bytes: what
  // travels on the wire is what was signed.
  const MessagePtr decoded = DecodeMessage(EncodeMessage(vote));
  ASSERT_NE(decoded, nullptr);
  const auto* dv = static_cast<const VoteMsg*>(decoded.get());
  EXPECT_TRUE(keys.Verify(dv->sig, dv->SigningBytes()));
  // And a single flipped body byte breaks verification.
  VoteMsg tampered = vote;
  tampered.block[0] ^= 0x01;
  EXPECT_FALSE(keys.Verify(tampered.sig, tampered.SigningBytes()));
}

TEST(WireSigning, PrePrepareDigestCoversCanonicalBatchSection) {
  PrePrepareMsg pp;
  pp.seq = 5;
  pp.leader = 1;
  pp.timestamp = 777;
  RequestRef req;
  req.client = 3;
  req.request_id = 44;
  req.sent_at = 700;
  req.op = TestBlob(5, 10);
  pp.batch = {req};
  pp.measurements = {TestBlob(6, 11)};

  Bytes section;
  {
    ByteWriter w(&section);
    pp.EncodeBatchSection(w);
  }
  Bytes body;
  {
    ByteWriter w(&body);
    pp.EncodeTo(w);
  }
  // The batch section replicas hash for agreement is the exact wire-body
  // prefix: the digest certifies canonical bytes, not a shadow encoding.
  ASSERT_LE(section.size(), body.size());
  EXPECT_TRUE(std::equal(section.begin(), section.end(), body.begin()));
  EXPECT_EQ(Sha256::Hash(section),
            Sha256::Hash(Bytes(body.begin(),
                               body.begin() +
                                   static_cast<long>(section.size()))));
}

}  // namespace
}  // namespace optilog
