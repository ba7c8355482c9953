#include "src/crypto/hmac.h"

#include <bit>
#include <cstring>

namespace optilog {

Digest HmacSha256(const Bytes& key, const uint8_t* message, size_t len) {
  constexpr size_t kBlock = 64;
  Bytes k = key;
  if (k.size() > kBlock) {
    const Digest d = Sha256::Hash(k);
    k.assign(d.begin(), d.end());
  }
  k.resize(kBlock, 0);

  Bytes ipad(kBlock), opad(kBlock);
  for (size_t i = 0; i < kBlock; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.Update(ipad);
  inner.Update(message, len);
  const Digest inner_digest = inner.Finish();

  Sha256 outer;
  outer.Update(opad);
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
}

Digest HmacSha256(const Bytes& key, const Bytes& message) {
  return HmacSha256(key, message.data(), message.size());
}

HmacKeySchedule HmacPrecompute(const Bytes& key) {
  constexpr size_t kBlock = 64;
  Bytes k = key;
  if (k.size() > kBlock) {
    const Digest d = Sha256::Hash(k);
    k.assign(d.begin(), d.end());
  }
  k.resize(kBlock, 0);

  uint8_t ipad[kBlock];
  uint8_t opad[kBlock];
  for (size_t i = 0; i < kBlock; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.Update(ipad, kBlock);
  Sha256 outer;
  outer.Update(opad, kBlock);
  return HmacKeySchedule{inner.Midstate(), outer.Midstate()};
}

namespace {

// Serializes a compression state as the big-endian digest bytes Sha256::Finish
// emits, one word store each (the compiler folds the shifts into a bswap).
inline void StateToDigest(const uint32_t state[8], uint8_t* out) {
  for (int i = 0; i < 8; ++i) {
    uint32_t w = state[i];
    if constexpr (std::endian::native == std::endian::little) {
      w = (w >> 24) | ((w >> 8) & 0xff00) | ((w << 8) & 0xff0000) | (w << 24);
    }
    std::memcpy(out + 4 * i, &w, sizeof(w));
  }
}

// Lays out `msg` (len <= 55) as the final block of a stream that already
// absorbed `prefix_bytes`: msg || 0x80 || zeros || bit-length.
inline void FinalBlock(uint8_t block[64], const uint8_t* msg, size_t len,
                       uint64_t prefix_bytes) {
  std::memset(block, 0, 64);
  if (len > 0) {  // an empty Bytes may hand us a null pointer
    std::memcpy(block, msg, len);
  }
  block[len] = 0x80;
  const uint64_t bits = (prefix_bytes + len) * 8;
  for (int i = 0; i < 8; ++i) {
    block[56 + i] = static_cast<uint8_t>(bits >> (8 * (7 - i)));
  }
}

}  // namespace

Digest HmacSha256Short(const HmacKeySchedule& ks, const uint8_t* message,
                       size_t len) {
  uint8_t block[64];
  uint32_t st[8];
  std::memcpy(st, ks.inner.h, sizeof(st));
  FinalBlock(block, message, len, 64);
  Sha256::CompressBlock(st, block);
  Digest inner_digest;
  StateToDigest(st, inner_digest.data());

  std::memcpy(st, ks.outer.h, sizeof(st));
  FinalBlock(block, inner_digest.data(), inner_digest.size(), 64);
  Sha256::CompressBlock(st, block);
  Digest out;
  StateToDigest(st, out.data());
  return out;
}

void HmacSha256ShortPair(const HmacKeySchedule& ks, const uint8_t* msg_a,
                         size_t len_a, const uint8_t* msg_b, size_t len_b,
                         uint8_t out[64]) {
  uint8_t block_a[64];
  uint8_t block_b[64];
  uint32_t st_a[8];
  uint32_t st_b[8];
  std::memcpy(st_a, ks.inner.h, sizeof(st_a));
  std::memcpy(st_b, ks.inner.h, sizeof(st_b));
  FinalBlock(block_a, msg_a, len_a, 64);
  FinalBlock(block_b, msg_b, len_b, 64);
  Sha256::CompressBlock2(st_a, block_a, st_b, block_b);
  // `out` holds the two inner digests until the outer results replace them.
  StateToDigest(st_a, out);
  StateToDigest(st_b, out + 32);
  FinalBlock(block_a, out, 32, 64);
  FinalBlock(block_b, out + 32, 32, 64);

  std::memcpy(st_a, ks.outer.h, sizeof(st_a));
  std::memcpy(st_b, ks.outer.h, sizeof(st_b));
  Sha256::CompressBlock2(st_a, block_a, st_b, block_b);
  StateToDigest(st_a, out);
  StateToDigest(st_b, out + 32);
}

Digest HmacSha256(const HmacKeySchedule& ks, const uint8_t* message,
                  size_t len) {
  if (len <= 55) {
    return HmacSha256Short(ks, message, len);
  }
  Sha256 inner;
  inner.Resume(ks.inner);
  inner.Update(message, len);
  const Digest inner_digest = inner.Finish();

  Sha256 outer;
  outer.Resume(ks.outer);
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
}

}  // namespace optilog
