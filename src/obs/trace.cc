#include "src/obs/trace.h"

namespace optilog {

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
