// HMAC-SHA256 (RFC 2104). Basis of the simulated signature scheme.
#pragma once

#include "src/crypto/sha256.h"
#include "src/util/bytes.h"

namespace optilog {

Digest HmacSha256(const Bytes& key, const Bytes& message);
Digest HmacSha256(const Bytes& key, const uint8_t* message, size_t len);

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

// Fast path for messages that fit a single final block (len <= 55, which
// covers the 32-byte digests the signature scheme MACs): both the inner and
// outer hash are exactly one compression over a stack-assembled padded
// block — no streaming buffer, no allocation. Byte-identical output to the
// streaming overloads.
Digest HmacSha256Short(const HmacKeySchedule& ks, const uint8_t* message,
                       size_t len);

// Two short-message HMACs under one key (len_a, len_b <= 55), written to
// out[0, 32) and out[32, 64). The two inner compressions run as one
// Sha256::CompressBlock2, then the two outer ones, so both chains overlap
// on one core. Byte-identical to two HmacSha256Short calls.
void HmacSha256ShortPair(const HmacKeySchedule& ks, const uint8_t* msg_a,
                         size_t len_a, const uint8_t* msg_b, size_t len_b,
                         uint8_t out[64]);

}  // namespace optilog
