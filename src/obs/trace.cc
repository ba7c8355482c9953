#include "src/obs/trace.h"

namespace optilog {
namespace {

void PutU64(std::string& s, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU32(std::string& s, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU16(std::string& s, uint16_t v) {
  s.push_back(static_cast<char>(v & 0xff));
  s.push_back(static_cast<char>((v >> 8) & 0xff));
}

}  // namespace

std::string TraceBytes(const std::vector<TraceRecord>& records) {
  std::string out;
  out.reserve(records.size() * 48);
  for (const TraceRecord& r : records) {
    PutU64(out, static_cast<uint64_t>(r.t));
    PutU64(out, r.id);
    PutU64(out, r.parent);
    PutU16(out, r.kind);
    PutU16(out, r.type);
    PutU32(out, r.actor);
    PutU64(out, r.a);
    PutU64(out, r.b);
  }
  return out;
}

const char* TraceKindName(uint16_t kind) {
  switch (static_cast<TraceKind>(kind)) {
    case TraceKind::kDispatchDelivery: return "dispatch_delivery";
    case TraceKind::kDispatchTimer: return "dispatch_timer";
    case TraceKind::kDispatchClosure: return "dispatch_closure";
    case TraceKind::kMsgSend: return "msg_send";
    case TraceKind::kCryptoCharge: return "crypto_charge";
    case TraceKind::kClientSend: return "client_send";
    case TraceKind::kQueueAdmit: return "queue_admit";
    case TraceKind::kBatchSeal: return "batch_seal";
    case TraceKind::kCommit: return "commit";
    case TraceKind::kReplySent: return "reply_sent";
    case TraceKind::kClientComplete: return "client_complete";
    case TraceKind::kPropose: return "propose";
    case TraceKind::kPbftPhase: return "pbft_phase";
    case TraceKind::kTxnPrepare: return "txn_prepare";
    case TraceKind::kTxnDecide: return "txn_decide";
    case TraceKind::kRecoveryChunk: return "recovery_chunk";
  }
  return "unknown";
}

}  // namespace optilog
