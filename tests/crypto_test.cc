#include <gtest/gtest.h>

#include <cstring>

#include "src/crypto/hmac.h"
#include "src/crypto/quorum_cert.h"
#include "src/crypto/sha256.h"
#include "src/crypto/signature.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace optilog {
namespace {

TEST(Sha256, EmptyString) {
  EXPECT_EQ(DigestHex(Sha256::Hash(std::string())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(DigestHex(Sha256::Hash(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(DigestHex(Sha256::Hash(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(DigestHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) {
    h.Update(std::string(1, c));
  }
  EXPECT_EQ(h.Finish(), Sha256::Hash(msg));
}

TEST(Sha256, BoundaryLengths) {
  // Exercise padding edge cases around the 56/64-byte boundary.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 h;
    h.Update(msg);
    const Digest one = h.Finish();
    Sha256 h2;
    h2.Update(msg.substr(0, len / 2));
    h2.Update(msg.substr(len / 2));
    EXPECT_EQ(one, h2.Finish()) << "len=" << len;
  }
}

// SHA-256 of `msg` by a hand-laid FIPS 180-4 padding run block by block
// through `compress`.
Digest ManualHash(const Bytes& msg, void (*compress)(uint32_t*, const uint8_t*)) {
  Bytes padded = msg;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) {
    padded.push_back(0);
  }
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>((uint64_t{msg.size()} * 8) >> (8 * i)));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (size_t off = 0; off < padded.size(); off += 64) {
    compress(state, padded.data() + off);
  }
  Digest d;
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) {
      d[4 * i + b] = static_cast<uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return d;
}

// Finish's padding against the hand-laid one through CompressBlock, at
// every length across two block boundaries.
TEST(Sha256, FinishPaddingMatchesManualPadding) {
  for (size_t len = 0; len <= 130; ++len) {
    Bytes msg(len);
    for (size_t i = 0; i < len; ++i) {
      msg[i] = static_cast<uint8_t>(i * 13 + len);
    }
    EXPECT_EQ(Sha256::Hash(msg), ManualHash(msg, Sha256::CompressBlock)) << "len=" << len;
  }
}

// CompressBlock runs the SHA-NI rounds on a CPU that has them, so the tests
// above check the scalar rounds only on one that does not. These two run
// them everywhere: against the dispatching path on random inputs, and on the
// known-answer vectors.
TEST(Sha256, ScalarRoundsMatchDispatchedCompression) {
  Rng rng(20261019);
  for (int trial = 0; trial < 2000; ++trial) {
    uint32_t scalar[8], dispatched[8];
    for (int i = 0; i < 8; ++i) {
      scalar[i] = dispatched[i] = static_cast<uint32_t>(rng.Next());
    }
    uint8_t block[64];
    for (uint8_t& byte : block) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    Sha256::CompressBlockScalar(scalar, block);
    Sha256::CompressBlock(dispatched, block);
    for (int i = 0; i < 8; ++i) {
      ASSERT_EQ(scalar[i], dispatched[i]) << "trial " << trial << " word " << i;
    }
  }
}

TEST(Sha256, ScalarRoundsPassKnownAnswers) {
  auto scalar_hex = [](const std::string& s) {
    return DigestHex(ManualHash(Bytes(s.begin(), s.end()), Sha256::CompressBlockScalar));
  };
  EXPECT_EQ(scalar_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(scalar_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(scalar_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(scalar_hex(std::string(1'000'000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Hmac, Rfc4231Case1) {
  // RFC 4231 test case 1: key = 20 x 0x0b, data = "Hi There".
  Bytes key(20, 0x0b);
  Bytes data{'H', 'i', ' ', 'T', 'h', 'e', 'r', 'e'};
  EXPECT_EQ(DigestHex(HmacSha256(key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  // Key "Jefe", data "what do ya want for nothing?".
  Bytes key{'J', 'e', 'f', 'e'};
  const std::string s = "what do ya want for nothing?";
  Bytes data(s.begin(), s.end());
  EXPECT_EQ(DigestHex(HmacSha256(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  Bytes long_key(200, 0xaa);
  Bytes data{'m', 's', 'g'};
  // Must not crash and must be deterministic.
  EXPECT_EQ(HmacSha256(long_key, data), HmacSha256(long_key, data));
}

TEST(Signature, SignVerifyRoundTrip) {
  KeyStore keys(4, 1);
  const Bytes msg{1, 2, 3, 4};
  for (ReplicaId id = 0; id < 4; ++id) {
    const Signature sig = keys.Sign(id, msg);
    EXPECT_EQ(sig.signer, id);
    EXPECT_TRUE(keys.Verify(sig, msg));
  }
}

TEST(Signature, WrongMessageFails) {
  KeyStore keys(4, 1);
  const Signature sig = keys.Sign(0, Bytes{1, 2, 3});
  EXPECT_FALSE(keys.Verify(sig, Bytes{1, 2, 4}));
}

TEST(Signature, WrongSignerClaimFails) {
  KeyStore keys(4, 1);
  Signature sig = keys.Sign(0, Bytes{9});
  sig.signer = 1;  // claim someone else's identity
  EXPECT_FALSE(keys.Verify(sig, Bytes{9}));
}

TEST(Signature, ForgeFailsVerification) {
  KeyStore keys(4, 1);
  const Signature forged = ForgedSignature(2);
  EXPECT_EQ(forged.signer, 2u);
  EXPECT_FALSE(keys.Verify(forged, Bytes{1}));
}

TEST(Signature, OutOfRangeSignerFails) {
  KeyStore keys(4, 1);
  Signature sig = keys.Sign(0, Bytes{1});
  sig.signer = 99;
  EXPECT_FALSE(keys.Verify(sig, Bytes{1}));
}

TEST(Signature, DifferentSeedsDifferentKeys) {
  KeyStore a(2, 1), b(2, 2);
  const Bytes msg{5};
  EXPECT_NE(a.Sign(0, msg).bytes, b.Sign(0, msg).bytes);
}

TEST(Signature, SerializeRoundTrip) {
  KeyStore keys(2, 1);
  const Signature sig = keys.Sign(1, Bytes{1, 2});
  Bytes buf;
  ByteWriter w(&buf);
  sig.Serialize(w);
  EXPECT_EQ(buf.size(), Signature::kWireSize);
  // Wire layout: signer u32 little-endian, then the 64 signature bytes.
  EXPECT_EQ(Bytes(buf.begin(), buf.begin() + 4), (Bytes{1, 0, 0, 0}));
  EXPECT_TRUE(std::equal(sig.bytes.begin(), sig.bytes.end(), buf.begin() + 4));
  ByteReader r(buf);
  EXPECT_EQ(Signature::Deserialize(r), sig);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.Done());

  buf.pop_back();
  ByteReader truncated(buf);
  Signature::Deserialize(truncated);
  EXPECT_FALSE(truncated.ok());
}

TEST(QuorumCert, AggregateAndVerify) {
  KeyStore keys(7, 3);
  const Digest d = Sha256::Hash(std::string("block"));
  std::vector<Signature> shares;
  for (ReplicaId id : {0u, 2u, 4u, 5u, 6u}) {
    shares.push_back(keys.Sign(id, d));
  }
  const QuorumCert qc = QuorumCert::Aggregate(d, shares, keys);
  EXPECT_EQ(qc.num_signers(), 5u);
  EXPECT_TRUE(qc.Verify(keys));
  EXPECT_EQ(qc.signers(), (std::vector<ReplicaId>{0, 2, 4, 5, 6}));
}

TEST(QuorumCert, CorruptedAggregateFails) {
  KeyStore keys(4, 3);
  const Digest d = Sha256::Hash(std::string("b"));
  QuorumCert qc = QuorumCert::Aggregate(d, {keys.Sign(0, d), keys.Sign(1, d)}, keys);
  qc.Corrupt();
  EXPECT_FALSE(qc.Verify(keys));
}

TEST(QuorumCert, DuplicateSignersDeduplicated) {
  KeyStore keys(4, 3);
  const Digest d = Sha256::Hash(std::string("b"));
  const QuorumCert qc =
      QuorumCert::Aggregate(d, {keys.Sign(0, d), keys.Sign(0, d), keys.Sign(1, d)}, keys);
  EXPECT_EQ(qc.num_signers(), 2u);
  EXPECT_TRUE(qc.Verify(keys));
}

TEST(QuorumCert, SerializeRoundTrip) {
  KeyStore keys(5, 3);
  const Digest d = Sha256::Hash(std::string("blk"));
  const QuorumCert qc =
      QuorumCert::Aggregate(d, {keys.Sign(1, d), keys.Sign(3, d)}, keys);
  Bytes buf;
  ByteWriter w(&buf);
  qc.Serialize(w);
  EXPECT_EQ(buf.size(), qc.WireSize());
  ByteReader r(buf);
  const QuorumCert back = QuorumCert::Deserialize(r);
  EXPECT_EQ(back, qc);
  EXPECT_TRUE(back.Verify(keys));
}

TEST(QuorumCert, SignerListIsBound) {
  // Dropping a signer from the list must break the aggregate.
  KeyStore keys(5, 3);
  const Digest d = Sha256::Hash(std::string("blk"));
  const QuorumCert qc =
      QuorumCert::Aggregate(d, {keys.Sign(1, d), keys.Sign(3, d)}, keys);
  Bytes buf;
  ByteWriter w(&buf);
  qc.Serialize(w);
  // Tamper: change signer 3 to signer 2 in the serialized form.
  // Layout: 32 digest + 4 count + 4 (id=1) + 4 (id=3).
  buf[32 + 4 + 4] = 2;
  ByteReader r(buf);
  EXPECT_FALSE(QuorumCert::Deserialize(r).Verify(keys));
}

class QuorumSizes : public ::testing::TestWithParam<int> {};

TEST_P(QuorumSizes, VerifiesAtAllSizes) {
  const int n = GetParam();
  KeyStore keys(n, 77);
  const Digest d = Sha256::Hash(std::string("sz"));
  std::vector<Signature> shares;
  for (int id = 0; id < n; ++id) {
    shares.push_back(keys.Sign(id, d));
  }
  const QuorumCert qc = QuorumCert::Aggregate(d, shares, keys);
  EXPECT_EQ(qc.num_signers(), static_cast<size_t>(n));
  EXPECT_TRUE(qc.Verify(keys));
}

INSTANTIATE_TEST_SUITE_P(Sizes, QuorumSizes, ::testing::Values(1, 4, 7, 22, 73));

// The cached key schedule must be byte-identical to the plain streaming HMAC
// at every length, short messages that fit one final block included.
TEST(Hmac, ScheduleAndShortPathsMatchStreaming) {
  const Bytes key(32, 0x42);
  const HmacKeySchedule ks = HmacPrecompute(key);
  for (size_t len : {size_t{0}, size_t{1}, size_t{32}, size_t{54}, size_t{55},
                     size_t{56}, size_t{64}, size_t{200}}) {
    Bytes msg(len);
    for (size_t i = 0; i < len; ++i) {
      msg[i] = static_cast<uint8_t>(i * 31 + 7);
    }
    const Digest ref = HmacSha256(key, msg);
    EXPECT_EQ(HmacSha256(ks, msg.data(), msg.size()), ref) << "len=" << len;
  }
}

// KeyStore's key derivation, restated: replica i's secret is the i-th run
// of four SplitMix64 words from seed ^ 0x5ec2e75a11ce5eed.
Bytes KeyStoreSecret(uint64_t seed, ReplicaId id) {
  uint64_t sm = seed ^ 0x5ec2e75a11ce5eedULL;
  Bytes secret(32);
  for (ReplicaId i = 0; i <= id; ++i) {
    for (int word = 0; word < 4; ++word) {
      const uint64_t v = SplitMix64(sm);
      std::memcpy(secret.data() + 8 * word, &v, 8);
    }
  }
  return secret;
}

TEST(Signature, ShortPathMatchesLongMessagePath) {
  // Sign() streams both halves through the signer's cached key schedule;
  // every length, across the one- and two-block final padding, must equal a
  // from-scratch HMAC(m) || HMAC(m || 0x01) under the signer's secret, an
  // empty Bytes (null data) included.
  KeyStore keys(2, 9);
  const Bytes secret = KeyStoreSecret(9, 1);
  for (size_t len = 0; len <= 120; ++len) {
    Bytes msg;
    for (size_t i = 0; i < len; ++i) {
      msg.push_back(static_cast<uint8_t>(0x5a + 7 * i));
    }
    Bytes ext = msg;
    ext.push_back(0x01);
    const Digest first = HmacSha256(secret, msg);
    const Digest second = HmacSha256(secret, ext);
    SigBytes expected;
    std::memcpy(expected.data(), first.data(), 32);
    std::memcpy(expected.data() + 32, second.data(), 32);

    const Signature sig = keys.Sign(1, msg);
    EXPECT_EQ(sig.bytes, expected) << "len=" << len;
    EXPECT_TRUE(keys.Verify(sig, msg)) << "len=" << len;
  }
}

}  // namespace
}  // namespace optilog
