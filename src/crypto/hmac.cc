#include "src/crypto/hmac.h"

namespace optilog {

Digest HmacSha256(const Bytes& key, const Bytes& message) {
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
  inner.Update(message);
  const Digest inner_digest = inner.Finish();

  Sha256 outer;
  outer.Update(opad);
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
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

Digest HmacSha256(const HmacKeySchedule& ks, const uint8_t* message,
                  size_t len) {
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
