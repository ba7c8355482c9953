// Simulated digital signatures.
//
// The paper's systems use Ed25519 / threshold signatures. Reimplementing
// elliptic-curve crypto is out of scope and irrelevant to the evaluation, so
// we substitute a deterministic MAC-based scheme with the *interface and
// byte sizes* of real signatures (64-byte signatures, 32-byte digests):
//
//   sig(R, m) = HMAC(secret_R, m) || HMAC(secret_R, m || 0x01)
//
// Every replica holds the full KeyStore, so any replica can verify any
// signature; this models a PKI where verification succeeds iff the claimed
// signer really signed exactly those bytes. A Byzantine replica cannot forge
// another replica's signature (it would have to invert HMAC); in the
// simulator, forgery attempts simply produce invalid bytes that verifiers
// reject — exactly the code path proof-of-misbehavior needs.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/sim/ids.h"  // re-exports ReplicaId for everything above crypto
#include "src/util/bytes.h"

namespace optilog {

constexpr size_t kSignatureSize = 64;
using SigBytes = std::array<uint8_t, kSignatureSize>;

struct Signature {
  ReplicaId signer = kNoReplica;
  SigBytes bytes{};

  bool operator==(const Signature& other) const = default;

  void Serialize(ByteWriter& w) const;
  static Signature Deserialize(ByteReader& r);

  // Wire size in bytes (signer id + signature bytes).
  static constexpr size_t kWireSize = 4 + kSignatureSize;
};

// Per-deployment key material. Constructed once from a seed; replicas share
// the same store (standing in for a PKI directory of public keys).
class KeyStore {
 public:
  KeyStore(uint32_t num_replicas, uint64_t seed);

  uint32_t size() const { return static_cast<uint32_t>(secrets_.size()); }

  Signature Sign(ReplicaId signer, const Bytes& message) const;
  Signature Sign(ReplicaId signer, const Digest& digest) const;

  bool Verify(const Signature& sig, const Bytes& message) const;
  bool Verify(const Signature& sig, const Digest& digest) const;

 private:
  SigBytes ComputeSig(ReplicaId signer, const uint8_t* msg, size_t len) const;

  std::vector<Bytes> secrets_;
  // Cached HMAC key schedules, one per secret: the midstate cache halves
  // the compression count of every signature and verification without
  // changing a byte of output.
  std::vector<HmacKeySchedule> schedules_;
};

}  // namespace optilog
