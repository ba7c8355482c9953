// HMAC-SHA256 (RFC 2104). Basis of the simulated signature scheme.
#pragma once

#include "src/crypto/sha256.h"
#include "src/util/bytes.h"

namespace optilog {

Digest HmacSha256(const Bytes& key, const Bytes& message);

// Per-key precomputation: the inner/outer compression states after the
// padded-key block depend only on the key, so caching them cuts every HMAC
// over a short message from four SHA-256 compressions to two (and drops the
// per-call ipad/opad buffers). Output is byte-identical to HmacSha256.
struct HmacKeySchedule {
  Sha256Midstate inner;
  Sha256Midstate outer;
};
HmacKeySchedule HmacPrecompute(const Bytes& key);
Digest HmacSha256(const HmacKeySchedule& ks, const uint8_t* message,
                  size_t len);

}  // namespace optilog
