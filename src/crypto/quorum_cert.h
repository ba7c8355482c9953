// Quorum certificates: an aggregate of >= q votes for a digest.
//
// Real systems use threshold/BLS aggregates; we keep the wire layout of an
// aggregate scheme (signer bitmap + one 64-byte aggregate) and define the
// aggregate as the signature of each signer over the digest, folded with
// SHA-256. Verification recomputes the fold from the KeyStore, so a
// certificate fabricated by a Byzantine aggregator fails verification —
// which is precisely the proof-of-misbehavior trigger OptiTree's extra rule
// (§6.3) relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "src/crypto/signature.h"

namespace optilog {

class QuorumCert {
 public:
  QuorumCert() = default;

  // Builds a certificate from individual signatures over `digest`. Does not
  // validate the shares; call Verify() for that.
  static QuorumCert Aggregate(const Digest& digest,
                              const std::vector<Signature>& shares,
                              const KeyStore& keys);

  const Digest& digest() const { return digest_; }
  const std::vector<ReplicaId>& signers() const { return signers_; }
  size_t num_signers() const { return signers_.size(); }

  // True iff the aggregate matches the fold of genuine signatures of all
  // listed signers over digest().
  bool Verify(const KeyStore& keys) const;

  // Invalidates the aggregate while keeping the signer list — the artifact a
  // Byzantine aggregator would produce.
  void Corrupt() { aggregate_.fill(0xba); }

  void Serialize(ByteWriter& w) const;
  static QuorumCert Deserialize(ByteReader& r);

  // Wire size: digest + 4-byte count + 4 bytes/signer + 64-byte aggregate.
  size_t WireSize() const { return 32 + 4 + 4 * signers_.size() + kSignatureSize; }

  bool operator==(const QuorumCert& other) const = default;

 private:
  static SigBytes Fold(const Digest& digest, const std::vector<ReplicaId>& signers,
                       const KeyStore& keys);

  Digest digest_{};
  std::vector<ReplicaId> signers_;
  SigBytes aggregate_{};
};

}  // namespace optilog
