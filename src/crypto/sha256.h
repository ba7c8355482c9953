// FIPS 180-4 SHA-256, implemented from scratch so the repository has no
// external crypto dependency. Used for message digests, simulated signature
// MACs, and deterministic content-addressed block hashes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/util/bytes.h"

namespace optilog {

using Digest = std::array<uint8_t, 32>;

// Compression state captured after a whole number of 64-byte blocks.
// Resuming from it replays the stream without reprocessing the prefix —
// the basis of the HMAC key-schedule cache (hmac.h): the state after the
// padded-key block depends only on the key, so per-message work drops to
// the message blocks alone. Byte-for-byte identical output to a fresh
// stream over prefix + suffix.
struct Sha256Midstate {
  uint32_t h[8];
  uint64_t processed = 0;  // bytes absorbed; always a multiple of 64
};

class Sha256 {
 public:
  Sha256() { Reset(); }

  void Reset();
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(const std::string& s) {
    Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  // Finalizes and returns the digest; the object must be Reset() before
  // reuse.
  Digest Finish();

  // Snapshot / restore at a block boundary (no partial buffer pending).
  Sha256Midstate Midstate() const;
  void Resume(const Sha256Midstate& m);

  static Digest Hash(const Bytes& data);
  static Digest Hash(const std::string& s);

  // One raw FIPS 180-4 compression of `block` applied to `state`: the
  // transform behind Update/Finish, exposed so a test can run a hand-laid
  // padding through it. It runs the SHA-NI rounds when the CPU has them,
  // else CompressBlockScalar.
  static void CompressBlock(uint32_t state[8], const uint8_t block[64]);

  // The portable scalar rounds: the fallback and the reference that tests
  // hold the SHA-NI rounds to.
  static void CompressBlockScalar(uint32_t state[8], const uint8_t block[64]);

 private:
  void Compress(const uint8_t block[64]) { CompressBlock(h_, block); }

  uint32_t h_[8];
  uint64_t total_len_ = 0;
  uint8_t buf_[64];
  size_t buf_len_ = 0;
};

// Hex encoding for logs and test expectations.
std::string DigestHex(const Digest& d);

}  // namespace optilog
