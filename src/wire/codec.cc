#include "src/wire/codec.h"

#include "src/hotstuff/messages.h"
#include "src/pbft/messages.h"
#include "src/shard/txn_messages.h"
#include "src/statemachine/messages.h"
#include "src/util/check.h"
#include "src/workload/messages.h"

namespace optilog {

Bytes EncodeMessage(const Message& m) {
  const int type = m.type();
  OL_CHECK_MSG(type >= 0 && type <= 0xff, "message type must fit one byte");
  Bytes out;
  out.reserve(2 + m.WireSize());
  ByteWriter w(&out);
  w.U8(static_cast<uint8_t>(m.family()));
  w.U8(static_cast<uint8_t>(type));
  m.EncodeTo(w);
  return out;
}

MessagePtr DecodeMessage(MsgFamily family, int type, ByteReader& r) {
  // A closed dispatch (not static registrars): every message header is
  // included above, so a new type that misses this switch is a compile-time
  // conversation, not a linker-dropped registration at runtime.
  MessagePtr decoded;
  switch (family) {
    case MsgFamily::kHotStuff:
      switch (type) {
        case kMsgPropose:
        case kMsgForward:
          decoded = ProposeMsg::Decode(type, r);
          break;
        case kMsgVote:
          decoded = VoteMsg::Decode(type, r);
          break;
        case kMsgAggregate:
          decoded = AggregateMsg::Decode(type, r);
          break;
        default:
          return nullptr;
      }
      break;
    case MsgFamily::kPbft:
      switch (type) {
        case kMsgPrePrepare:
          decoded = PrePrepareMsg::Decode(type, r);
          break;
        case kMsgWrite:
        case kMsgAccept:
          decoded = PhaseMsg::Decode(type, r);
          break;
        default:
          return nullptr;
      }
      break;
    case MsgFamily::kWorkload:
      switch (type) {
        case kMsgClientRequest:
          decoded = ClientRequestMsg::Decode(type, r);
          break;
        case kMsgClientReply:
          decoded = ClientReplyMsg::Decode(type, r);
          break;
        default:
          return nullptr;
      }
      break;
    case MsgFamily::kState:
      switch (type) {
        case kMsgStateFetch:
          decoded = StateFetchMsg::Decode(type, r);
          break;
        case kMsgStateChunk:
          decoded = StateChunkMsg::Decode(type, r);
          break;
        case kMsgLogSuffixFetch:
          decoded = LogSuffixFetchMsg::Decode(type, r);
          break;
        case kMsgLogSuffixChunk:
          decoded = LogSuffixChunkMsg::Decode(type, r);
          break;
        default:
          return nullptr;
      }
      break;
    case MsgFamily::kShard:
      switch (type) {
        case kMsgTxnRequest:
          decoded = TxnRequestMsg::Decode(type, r);
          break;
        case kMsgTxnReply:
          decoded = TxnReplyMsg::Decode(type, r);
          break;
        default:
          return nullptr;
      }
      break;
    default:
      return nullptr;
  }
  return r.ok() ? decoded : nullptr;
}

MessagePtr DecodeMessage(const Bytes& frame) {
  ByteReader r(frame);
  const MsgFamily family = static_cast<MsgFamily>(r.U8());
  const int type = r.U8();
  if (!r.ok()) {
    return nullptr;
  }
  MessagePtr m = DecodeMessage(family, type, r);
  if (m == nullptr || !r.Done()) {
    return nullptr;
  }
  return m;
}

std::vector<std::pair<MsgFamily, int>> RegisteredMessageTypes() {
  return {
      {MsgFamily::kHotStuff, kMsgPropose},
      {MsgFamily::kHotStuff, kMsgForward},
      {MsgFamily::kHotStuff, kMsgVote},
      {MsgFamily::kHotStuff, kMsgAggregate},
      {MsgFamily::kPbft, kMsgPrePrepare},
      {MsgFamily::kPbft, kMsgWrite},
      {MsgFamily::kPbft, kMsgAccept},
      {MsgFamily::kWorkload, kMsgClientRequest},
      {MsgFamily::kWorkload, kMsgClientReply},
      {MsgFamily::kState, kMsgStateFetch},
      {MsgFamily::kState, kMsgStateChunk},
      {MsgFamily::kState, kMsgLogSuffixFetch},
      {MsgFamily::kState, kMsgLogSuffixChunk},
      {MsgFamily::kShard, kMsgTxnRequest},
      {MsgFamily::kShard, kMsgTxnReply},
  };
}

}  // namespace optilog
