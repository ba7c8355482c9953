#include "src/crypto/sha256.h"

#include <cstring>
#include <utility>

#if defined(__x86_64__) && defined(__GNUC__)
#define OPTILOG_SHA_NI_DISPATCH 1
#include <immintrin.h>
#endif

namespace optilog {
namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#ifdef OPTILOG_SHA_NI_DISPATCH
// Hardware compression via the x86 SHA extensions — the same FIPS 180-4
// function, so every digest in the repository is unchanged to the bit; the
// scalar path below remains both the portable fallback and the reference.
// The schedule follows the canonical Intel code: state is carried as
// ABEF/CDGH lane pairs, each _mm_sha256rnds2_epu32 retires two rounds, and
// four message registers roll through the schedule.
#define OPTILOG_SHA_NI_TARGET \
  __attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline

struct ShaNiState {
  const uint8_t* block;
  __m128i abef, cdgh;  // working state
  __m128i w[4];        // rolling message schedule, four words each
};

// Rounds 4G..4G+3. Groups 0-3 load their schedule words from the block;
// groups 1-12 start the words of group G+3 (msg1) and groups 3-14 finish
// those of group G+1 (msg2).
template <int G>
OPTILOG_SHA_NI_TARGET void Rounds(ShaNiState& s) {
  constexpr int kCur = G % 4;
  if constexpr (G < 4) {
    const __m128i kShuffle =
        _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
    s.w[kCur] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(s.block + 16 * G)),
        kShuffle);
  }
  __m128i msg = _mm_add_epi32(
      s.w[kCur], _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * G])));
  s.cdgh = _mm_sha256rnds2_epu32(s.cdgh, s.abef, msg);
  if constexpr (G >= 3 && G <= 14) {
    constexpr int kNext = (G + 1) % 4;
    const __m128i tmp = _mm_alignr_epi8(s.w[kCur], s.w[(G + 3) % 4], 4);
    s.w[kNext] =
        _mm_sha256msg2_epu32(_mm_add_epi32(s.w[kNext], tmp), s.w[kCur]);
  }
  msg = _mm_shuffle_epi32(msg, 0x0E);
  s.abef = _mm_sha256rnds2_epu32(s.abef, s.cdgh, msg);
  if constexpr (G >= 1 && G <= 12) {
    constexpr int kAhead = (G + 3) % 4;
    s.w[kAhead] = _mm_sha256msg1_epu32(s.w[kAhead], s.w[kCur]);
  }
}

template <int... G>
OPTILOG_SHA_NI_TARGET void AllRounds(ShaNiState& s,
                                     std::integer_sequence<int, G...>) {
  (Rounds<G>(s), ...);
}
#undef OPTILOG_SHA_NI_TARGET

__attribute__((target("sha,sse4.1,ssse3"))) void CompressShaNi(
    uint32_t* state, const uint8_t* block) {
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  const __m128i abef0 = _mm_alignr_epi8(cdab, efgh, 8);
  const __m128i cdgh0 = _mm_blend_epi16(efgh, cdab, 0xF0);
  ShaNiState s{block, abef0, cdgh0, {}};
  AllRounds(s, std::make_integer_sequence<int, 16>{});
  const __m128i feba = _mm_shuffle_epi32(_mm_add_epi32(s.abef, abef0), 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(_mm_add_epi32(s.cdgh, cdgh0), 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));  // HGFE
}

bool HasShaNi() {
  static const bool has = __builtin_cpu_supports("sha") != 0;
  return has;
}
#endif  // OPTILOG_SHA_NI_DISPATCH

}  // namespace

void Sha256::Reset() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
  total_len_ = 0;
  buf_len_ = 0;
}

void Sha256::CompressBlock(uint32_t state[8], const uint8_t block[64]) {
#ifdef OPTILOG_SHA_NI_DISPATCH
  if (HasShaNi()) {
    CompressShaNi(state, block);
    return;
  }
#endif
  CompressBlockScalar(state, block);
}

void Sha256::CompressBlockScalar(uint32_t state[8], const uint8_t block[64]) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<uint32_t>(block[4 * i]) << 24 |
           static_cast<uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const uint32_t ch = (e & f) ^ (~e & g);
    const uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

void Sha256::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  while (len > 0) {
    if (buf_len_ == 0 && len >= 64) {
      Compress(data);
      data += 64;
      len -= 64;
      continue;
    }
    const size_t take = std::min(len, 64 - buf_len_);
    std::memcpy(buf_ + buf_len_, data, take);
    buf_len_ += take;
    data += take;
    len -= take;
    if (buf_len_ == 64) {
      Compress(buf_);
      buf_len_ = 0;
    }
  }
}

Digest Sha256::Finish() {
  const uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros up to byte 56 of a block (spilling into one more
  // block when fewer than 8 bytes remain), then the big-endian bit length.
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_ + buf_len_, 0, 64 - buf_len_);
    Compress(buf_);
    buf_len_ = 0;
  }
  std::memset(buf_ + buf_len_, 0, 56 - buf_len_);
  for (int i = 0; i < 8; ++i) {
    buf_[56 + i] = static_cast<uint8_t>(bit_len >> (8 * (7 - i)));
  }
  Compress(buf_);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return out;
}

Sha256Midstate Sha256::Midstate() const {
  Sha256Midstate m;
  // Only valid at a block boundary: a partial buffer has no resumable state.
  for (int i = 0; i < 8; ++i) {
    m.h[i] = h_[i];
  }
  m.processed = total_len_;
  return m;
}

void Sha256::Resume(const Sha256Midstate& m) {
  for (int i = 0; i < 8; ++i) {
    h_[i] = m.h[i];
  }
  total_len_ = m.processed;
  buf_len_ = 0;
}

Digest Sha256::Hash(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Digest Sha256::Hash(const std::string& s) {
  Sha256 h;
  h.Update(s);
  return h.Finish();
}

std::string DigestHex(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t byte : d) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

}  // namespace optilog
