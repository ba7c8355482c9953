#include "src/crypto/quorum_cert.h"

#include <algorithm>
#include <cstring>

namespace optilog {

SigBytes QuorumCert::Fold(const Digest& digest,
                          const std::vector<ReplicaId>& signers,
                          const KeyStore& keys) {
  Sha256 acc;
  acc.Update(digest.data(), digest.size());
  for (ReplicaId id : signers) {
    const Signature share = keys.Sign(id, digest);
    acc.Update(share.bytes.data(), share.bytes.size());
  }
  const Digest folded = acc.Finish();
  SigBytes out{};
  std::memcpy(out.data(), folded.data(), 32);
  // Second half binds the signer list so reordering or dropping ids breaks
  // the aggregate.
  Sha256 acc2;
  acc2.Update(folded.data(), folded.size());
  for (ReplicaId id : signers) {
    const uint8_t le[4] = {static_cast<uint8_t>(id), static_cast<uint8_t>(id >> 8),
                           static_cast<uint8_t>(id >> 16), static_cast<uint8_t>(id >> 24)};
    acc2.Update(le, 4);
  }
  const Digest folded2 = acc2.Finish();
  std::memcpy(out.data() + 32, folded2.data(), 32);
  return out;
}

QuorumCert QuorumCert::Aggregate(const Digest& digest,
                                 const std::vector<Signature>& shares,
                                 const KeyStore& keys) {
  QuorumCert qc;
  qc.digest_ = digest;
  qc.signers_.reserve(shares.size());
  for (const Signature& s : shares) {
    qc.signers_.push_back(s.signer);
  }
  std::sort(qc.signers_.begin(), qc.signers_.end());
  qc.signers_.erase(std::unique(qc.signers_.begin(), qc.signers_.end()),
                    qc.signers_.end());
  qc.aggregate_ = Fold(digest, qc.signers_, keys);
  return qc;
}

bool QuorumCert::Verify(const KeyStore& keys) const {
  for (ReplicaId id : signers_) {
    if (id >= keys.size()) {
      return false;
    }
  }
  if (!std::is_sorted(signers_.begin(), signers_.end())) {
    return false;
  }
  return aggregate_ == Fold(digest_, signers_, keys);
}

void QuorumCert::Serialize(ByteWriter& w) const {
  for (uint8_t b : digest_) {
    w.U8(b);
  }
  w.U32(static_cast<uint32_t>(signers_.size()));
  for (ReplicaId id : signers_) {
    w.U32(id);
  }
  for (uint8_t b : aggregate_) {
    w.U8(b);
  }
}

QuorumCert QuorumCert::Deserialize(ByteReader& r) {
  QuorumCert qc;
  for (auto& b : qc.digest_) {
    b = r.U8();
  }
  const uint32_t count = r.U32();
  qc.signers_.resize(count);
  for (auto& id : qc.signers_) {
    id = r.U32();
  }
  for (auto& b : qc.aggregate_) {
    b = r.U8();
  }
  return qc;
}

}  // namespace optilog
