#include "src/crypto/signature.h"

#include <cstring>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace optilog {

void Signature::Serialize(ByteWriter& w) const {
  w.U32(signer);
  w.Raw(bytes.data(), bytes.size());
}

Signature Signature::Deserialize(ByteReader& r) {
  Signature sig;
  sig.signer = r.U32();
  r.Raw(sig.bytes.data(), sig.bytes.size());
  return sig;
}

KeyStore::KeyStore(uint32_t num_replicas, uint64_t seed) {
  secrets_.resize(num_replicas);
  schedules_.reserve(num_replicas);
  uint64_t sm = seed ^ 0x5ec2e75a11ce5eedULL;
  for (uint32_t i = 0; i < num_replicas; ++i) {
    Bytes secret(32);
    for (int word = 0; word < 4; ++word) {
      const uint64_t v = SplitMix64(sm);
      std::memcpy(secret.data() + 8 * word, &v, 8);
    }
    secrets_[i] = std::move(secret);
    schedules_.push_back(HmacPrecompute(secrets_[i]));
  }
}

SigBytes KeyStore::ComputeSig(ReplicaId signer, const uint8_t* msg,
                              size_t len) const {
  OL_CHECK(signer < secrets_.size());
  const HmacKeySchedule& ks = schedules_[signer];
  const Digest first = HmacSha256(ks, msg, len);
  // Second half covers msg || 0x01 — streamed through the same schedule
  // instead of materializing the extended buffer.
  Sha256 inner;
  inner.Resume(ks.inner);
  inner.Update(msg, len);
  const uint8_t kDomainSep = 0x01;
  inner.Update(&kDomainSep, 1);
  const Digest inner_digest = inner.Finish();
  Sha256 outer;
  outer.Resume(ks.outer);
  outer.Update(inner_digest.data(), inner_digest.size());
  const Digest second = outer.Finish();
  SigBytes out;
  std::memcpy(out.data(), first.data(), 32);
  std::memcpy(out.data() + 32, second.data(), 32);
  return out;
}

Signature KeyStore::Sign(ReplicaId signer, const Bytes& message) const {
  return Signature{signer, ComputeSig(signer, message.data(), message.size())};
}

Signature KeyStore::Sign(ReplicaId signer, const Digest& digest) const {
  return Signature{signer, ComputeSig(signer, digest.data(), digest.size())};
}

bool KeyStore::Verify(const Signature& sig, const Bytes& message) const {
  if (sig.signer >= secrets_.size()) {
    return false;
  }
  return sig.bytes == ComputeSig(sig.signer, message.data(), message.size());
}

bool KeyStore::Verify(const Signature& sig, const Digest& digest) const {
  if (sig.signer >= secrets_.size()) {
    return false;
  }
  return sig.bytes == ComputeSig(sig.signer, digest.data(), digest.size());
}

}  // namespace optilog
