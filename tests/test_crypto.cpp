// Known-answer and property tests for the from-scratch crypto substrate.
//
// Vectors: SHA-256 (FIPS 180-4 / NIST examples), HMAC-SHA256 (RFC 4231),
// HKDF (RFC 5869), ChaCha20 (RFC 8439 §2.3.2/§2.4.2), AES (FIPS 197 App. C,
// NIST SP 800-38A CTR). The AEAD, long-key HMAC and maximum-length HKDF
// vectors pin this library's own output bytes; every AEAD tag among them
// was also checked against an independent HMAC-SHA256 (Python's hmac).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/hex.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "crypto/aead.hpp"
#include "crypto/aes.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/drbg.hpp"
#include "crypto/gf256.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernels.hpp"

namespace emergence::crypto {
namespace {

using emergence::bytes_of;
using emergence::from_hex;
using emergence::to_hex;

// Byte i is i * 31 + seed: a fixed input that is not one repeated byte.
Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::uint8_t>(i * 31 + seed);
  return out;
}

// Feeds `msg` to `h` in pieces of random length, empty pieces included.
void update_in_random_splits(Sha256& h, BytesView msg, Rng& rng) {
  std::size_t offset = 0;
  while (offset < msg.size()) {
    const std::size_t take =
        std::min<std::size_t>(rng.uniform(0, 150), msg.size() - offset);
    h.update(msg.subspan(offset, take));
    offset += take;
  }
}

// The FIPS 180-4 padding of `msg`: 0x80, zeros and the big-endian bit
// length, to a whole number of blocks.
Bytes padded(BytesView msg) {
  Bytes out(msg.begin(), msg.end());
  out.push_back(0x80);
  while (out.size() % Sha256::kBlockSize != 56) out.push_back(0);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i)
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  return out;
}

constexpr sha256_kernels::State kSha256Iv = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

Bytes digest_of(const sha256_kernels::State& state) {
  Bytes out;
  for (const std::uint32_t word : state)
    for (int shift = 24; shift >= 0; shift -= 8)
      out.push_back(static_cast<std::uint8_t>(word >> shift));
  return out;
}

// -- SHA-256 ------------------------------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256(Bytes{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(sha256(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const auto digest = h.finalize();
  EXPECT_EQ(to_hex(Bytes(digest.begin(), digest.end())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingSplitsAgreeWithOneShot) {
  const Bytes msg = bytes_of("the quick brown fox jumps over the lazy dog!!");
  const Bytes expected = sha256(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(BytesView(msg.data(), split));
    h.update(BytesView(msg.data() + split, msg.size() - split));
    const auto digest = h.finalize();
    EXPECT_EQ(Bytes(digest.begin(), digest.end()), expected);
  }
}

TEST(Sha256, ExactBlockBoundaries) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const Bytes msg(len, 0x61);
    Sha256 a;
    a.update(msg);
    const auto one = a.finalize();
    Sha256 b;
    for (std::size_t i = 0; i < len; ++i)
      b.update(BytesView(msg.data() + i, 1));
    const auto two = b.finalize();
    EXPECT_EQ(one, two) << "len=" << len;
  }
}

TEST(Sha256, FinalizeTwiceThrows) {
  Sha256 h;
  h.update(bytes_of("x"));
  (void)h.finalize();
  EXPECT_THROW((void)h.finalize(), PreconditionError);
}

TEST(Sha256, EmptyUpdateMidBlockIsANoOp) {
  // An empty view's data() is null; with a partial block buffered, update
  // must not hand it to memcpy (undefined even for zero bytes).
  Sha256 h;
  h.update(bytes_of("abc"));
  h.update(BytesView{});
  const auto digest = h.finalize();
  EXPECT_EQ(Bytes(digest.begin(), digest.end()), sha256(bytes_of("abc")));
}

TEST(Sha256, RandomSplitsMatchThePortableKernel) {
  // Sha256 runs whichever kernel the CPU supports; the portable kernel over
  // the padded message in one call is the reference.
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    const Bytes msg = rng.bytes(rng.uniform(0, 4096));
    Sha256 h;
    update_in_random_splits(h, msg, rng);
    const auto digest = h.finalize();

    const Bytes blocks = padded(msg);
    sha256_kernels::State state = kSha256Iv;
    sha256_kernels::portable(state, blocks.data(),
                             blocks.size() / Sha256::kBlockSize);
    ASSERT_EQ(Bytes(digest.begin(), digest.end()), digest_of(state))
        << "seed " << seed << ", " << msg.size() << " bytes";
  }
}

TEST(Sha256, ShaNiKernelMatchesPortable) {
  const sha256_kernels::Compress sha_ni = sha256_kernels::sha_ni();
  if (sha_ni == nullptr)
    GTEST_SKIP() << "this CPU does not report SHA, SSSE3 and SSE4.1: only "
                    "the portable kernel runs here";
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    const Bytes blocks = padded(rng.bytes(rng.uniform(0, 4096)));
    const std::size_t count = blocks.size() / Sha256::kBlockSize;
    sha256_kernels::State reference = kSha256Iv;
    sha256_kernels::portable(reference, blocks.data(), count);
    // The SHA-NI kernel takes the same blocks in runs of random length.
    sha256_kernels::State fast = kSha256Iv;
    for (std::size_t done = 0; done < count;) {
      const std::size_t run =
          std::min<std::size_t>(rng.uniform(1, 9), count - done);
      sha_ni(fast, blocks.data() + done * Sha256::kBlockSize, run);
      done += run;
    }
    ASSERT_EQ(fast, reference) << "seed " << seed << ", " << count << " blocks";
  }
}

// -- HMAC-SHA256 (RFC 4231) ----------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      to_hex(hmac_sha256(bytes_of("Jefe"),
                         bytes_of("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      to_hex(hmac_sha256(
          key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key "
                        "First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DifferentKeysDiffer) {
  EXPECT_NE(hmac_sha256(bytes_of("k1"), bytes_of("m")),
            hmac_sha256(bytes_of("k2"), bytes_of("m")));
}

TEST(Hmac, KeysAtAndPastTheBlockSize) {
  // A 64-byte key is used as is; a 65-byte key is hashed first.
  EXPECT_EQ(to_hex(hmac_sha256(pattern(64, 0x11), pattern(100, 0x22))),
            "8854493cf7398feee3506090a001fd42f93d7ff33da597d9849498c772a9e837");
  EXPECT_EQ(to_hex(hmac_sha256(pattern(65, 0x11), pattern(100, 0x22))),
            "e66058b6ea221b230b125e8cd772f0f3eee4912fe675d583a1b63e0ed3616aeb");
}

TEST(Hmac, ReusedKeyMatchesOneShot) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    const Bytes key = rng.bytes(rng.uniform(0, 130));
    const HmacSha256 mac(key);
    for (int m = 0; m < 4; ++m) {
      const Bytes msg = rng.bytes(rng.uniform(0, 300));
      Sha256 h = mac.begin();
      update_in_random_splits(h, msg, rng);
      const auto tag = mac.finish(h);
      ASSERT_EQ(Bytes(tag.begin(), tag.end()), hmac_sha256(key, msg))
          << "seed " << seed << ", message " << m;
    }
  }
}

// -- HKDF (RFC 5869) -----------------------------------------------------------

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(to_hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  const Bytes okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3NoSaltNoInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes okm = hkdf(/*salt=*/{}, ikm, /*info=*/{}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, MaximumLengthKnownAnswer) {
  // 255 blocks: the counter byte runs from 1 to 0xff.
  const Bytes okm =
      hkdf(bytes_of("salt"), pattern(22, 0x0b), bytes_of("info"), 255 * 32);
  ASSERT_EQ(okm.size(), 255u * 32);
  EXPECT_EQ(to_hex(sha256(okm)),
            "c39758cde5cf1867874fc3cc7443776bbcfbc47b900bfaad75d3463f977fdc5d");
  EXPECT_EQ(to_hex(BytesView(okm).subspan(okm.size() - 32)),
            "71c222174fa80dad25fedb353f190d0048be53ff64e399f3fcadaab3eca3646d");
}

TEST(Hkdf, LengthLimitEnforced) {
  EXPECT_THROW(hkdf_expand(Bytes(32, 1), {}, 255 * 32 + 1),
               PreconditionError);
}

TEST(Hkdf, DistinctInfoGivesDistinctKeys) {
  const Bytes prk = hkdf_extract({}, bytes_of("seed"));
  EXPECT_NE(hkdf_expand(prk, bytes_of("enc"), 32),
            hkdf_expand(prk, bytes_of("mac"), 32));
}

// -- ChaCha20 (RFC 8439) ---------------------------------------------------------

std::array<std::uint8_t, 32> rfc_key() {
  std::array<std::uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  return key;
}

TEST(ChaCha20, Rfc8439BlockFunction) {
  // RFC 8439 §2.3.2 test vector.
  std::array<std::uint8_t, 12> nonce{};
  const Bytes nonce_bytes = from_hex("000000090000004a00000000");
  std::copy(nonce_bytes.begin(), nonce_bytes.end(), nonce.begin());
  const auto block = chacha20_block(rfc_key(), 1, nonce);
  EXPECT_EQ(
      to_hex(Bytes(block.begin(), block.end())),
      "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Encryption) {
  // RFC 8439 §2.4.2: the "sunscreen" plaintext.
  std::array<std::uint8_t, 12> nonce{};
  const Bytes nonce_bytes = from_hex("000000000000004a00000000");
  std::copy(nonce_bytes.begin(), nonce_bytes.end(), nonce.begin());
  const Bytes plaintext = bytes_of(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  const Bytes ciphertext =
      chacha20_apply(rfc_key(), nonce, /*initial_counter=*/1, plaintext);
  EXPECT_EQ(
      to_hex(ciphertext),
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, ApplyIsAnInvolution) {
  std::array<std::uint8_t, 12> nonce{};
  nonce[0] = 7;
  const Bytes msg = bytes_of("round-trip me please, across block boundaries "
                             "so several keystream blocks are used........");
  const Bytes ct = chacha20_apply(rfc_key(), nonce, 0, msg);
  EXPECT_NE(ct, msg);
  EXPECT_EQ(chacha20_apply(rfc_key(), nonce, 0, ct), msg);
}

TEST(ChaCha20, CounterOffsetsProduceDifferentStream) {
  std::array<std::uint8_t, 12> nonce{};
  const Bytes zeros(64, 0);
  EXPECT_NE(chacha20_apply(rfc_key(), nonce, 0, zeros),
            chacha20_apply(rfc_key(), nonce, 1, zeros));
}

// -- AES (FIPS 197 / SP 800-38A) -------------------------------------------------

TEST(Aes, Fips197Aes128Block) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes block = from_hex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  aes.encrypt_block(block.data());
  EXPECT_EQ(to_hex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
  aes.decrypt_block(block.data());
  EXPECT_EQ(to_hex(block), "00112233445566778899aabbccddeeff");
}

TEST(Aes, Fips197Aes192Block) {
  const Bytes key =
      from_hex("000102030405060708090a0b0c0d0e0f1011121314151617");
  Bytes block = from_hex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  aes.encrypt_block(block.data());
  EXPECT_EQ(to_hex(block), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(Aes, Fips197Aes256Block) {
  const Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes block = from_hex("00112233445566778899aabbccddeeff");
  Aes aes(key);
  aes.encrypt_block(block.data());
  EXPECT_EQ(to_hex(block), "8ea2b7ca516745bfeafc49904b496089");
  aes.decrypt_block(block.data());
  EXPECT_EQ(to_hex(block), "00112233445566778899aabbccddeeff");
}

TEST(Aes, Sp80038aCtrAes128) {
  // NIST SP 800-38A F.5.1 (CTR-AES128.Encrypt), adapted: our counter block
  // is nonce(12) || u32 counter, so we use the vector's initial counter
  // block f0..fc as nonce and 0xf7f8f9ff... hmm -- use the full 16-byte
  // vector layout directly by picking nonce = f0f1f2f3f4f5f6f7f8f9fafb and
  // initial counter 0xfcfdfeff.
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Aes aes(key);
  std::array<std::uint8_t, 12> nonce{};
  const Bytes nonce_bytes = from_hex("f0f1f2f3f4f5f6f7f8f9fafb");
  std::copy(nonce_bytes.begin(), nonce_bytes.end(), nonce.begin());
  Bytes data = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51");
  aes_ctr_xor(aes, nonce, 0xfcfdfeff, data);
  EXPECT_EQ(to_hex(data),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff");
}

TEST(Aes, CtrRoundTripArbitraryLength) {
  const Aes aes(Bytes(32, 0x42));
  std::array<std::uint8_t, 12> nonce{};
  nonce[5] = 9;
  const Bytes msg = bytes_of("a message that is not a multiple of sixteen");
  Bytes work = msg;
  aes_ctr_xor(aes, nonce, 1, work);
  EXPECT_NE(work, msg);
  aes_ctr_xor(aes, nonce, 1, work);
  EXPECT_EQ(work, msg);
}

TEST(Aes, RejectsBadKeySizes) {
  EXPECT_THROW(Aes(Bytes(15, 0)), PreconditionError);
  EXPECT_THROW(Aes(Bytes(33, 0)), PreconditionError);
  EXPECT_NO_THROW(Aes(Bytes(16, 0)));
  EXPECT_NO_THROW(Aes(Bytes(24, 0)));
  EXPECT_NO_THROW(Aes(Bytes(32, 0)));
}

// -- AEAD ------------------------------------------------------------------------

class AeadBackends : public ::testing::TestWithParam<CipherBackend> {};

TEST_P(AeadBackends, SealOpenRoundTrip) {
  const SymmetricKey key = SymmetricKey::from_bytes(Bytes(32, 0x11));
  const Bytes nonce(12, 0x22);
  const Bytes msg = bytes_of("attack at dawn");
  const Bytes aad = bytes_of("context");
  const Bytes sealed = aead_seal(key, nonce, msg, aad, GetParam());
  EXPECT_EQ(sealed.size(), msg.size() + kAeadOverhead);
  EXPECT_EQ(aead_open(key, sealed, aad, GetParam()), msg);
}

TEST_P(AeadBackends, WrongKeyFails) {
  const SymmetricKey key = SymmetricKey::from_bytes(Bytes(32, 0x11));
  const SymmetricKey other = SymmetricKey::from_bytes(Bytes(32, 0x12));
  const Bytes sealed =
      aead_seal(key, Bytes(12, 0), bytes_of("m"), {}, GetParam());
  EXPECT_THROW(aead_open(other, sealed, {}, GetParam()), CryptoError);
}

TEST_P(AeadBackends, WrongAadFails) {
  const SymmetricKey key = SymmetricKey::from_bytes(Bytes(32, 0x11));
  const Bytes sealed =
      aead_seal(key, Bytes(12, 0), bytes_of("m"), bytes_of("a"), GetParam());
  EXPECT_THROW(aead_open(key, sealed, bytes_of("b"), GetParam()), CryptoError);
}

TEST_P(AeadBackends, BitFlipAnywhereFails) {
  const SymmetricKey key = SymmetricKey::from_bytes(Bytes(32, 0x33));
  Bytes sealed =
      aead_seal(key, Bytes(12, 1), bytes_of("payload bytes"), {}, GetParam());
  for (std::size_t i = 0; i < sealed.size(); i += 5) {
    Bytes tampered = sealed;
    tampered[i] ^= 0x01;
    EXPECT_THROW(aead_open(key, tampered, {}, GetParam()), CryptoError)
        << "flip at " << i;
  }
}

TEST_P(AeadBackends, TruncationFails) {
  const SymmetricKey key = SymmetricKey::from_bytes(Bytes(32, 0x33));
  const Bytes sealed =
      aead_seal(key, Bytes(12, 1), bytes_of("payload"), {}, GetParam());
  const BytesView short_view(sealed.data(), sealed.size() - 1);
  EXPECT_THROW(aead_open(key, short_view, {}, GetParam()), CryptoError);
  EXPECT_THROW(aead_open(key, BytesView(sealed.data(), 10), {}, GetParam()),
               CryptoError);
}

TEST_P(AeadBackends, EmptyPlaintextSupported) {
  const SymmetricKey key = SymmetricKey::from_bytes(Bytes(32, 0x44));
  const Bytes sealed = aead_seal(key, Bytes(12, 2), {}, {}, GetParam());
  EXPECT_TRUE(aead_open(key, sealed, {}, GetParam()).empty());
}

TEST_P(AeadBackends, BackendsAreIncompatible) {
  const SymmetricKey key = SymmetricKey::from_bytes(Bytes(32, 0x55));
  const CipherBackend mine = GetParam();
  const CipherBackend other = mine == CipherBackend::kChaCha20
                                  ? CipherBackend::kAes256Ctr
                                  : CipherBackend::kChaCha20;
  const Bytes sealed = aead_seal(key, Bytes(12, 3), bytes_of("m"), {}, mine);
  EXPECT_THROW(aead_open(key, sealed, {}, other), CryptoError);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, AeadBackends,
                         ::testing::Values(CipherBackend::kChaCha20,
                                           CipherBackend::kAes256Ctr),
                         [](const auto& info) {
                           return info.param == CipherBackend::kChaCha20
                                      ? "ChaCha20"
                                      : "Aes256Ctr";
                         });

TEST(Aead, KnownAnswerVectors) {
  // The sealed bytes: nonce || body || tag, where the tag covers the nonce,
  // the aad length as a little-endian u64, the aad and the body.
  struct Vector {
    CipherBackend backend;
    std::size_t body_len;
    bool envelope_aad;
    const char* sealed_hex;
  };
  const Vector vectors[] = {
    {CipherBackend::kChaCha20, 0, false,
     "a0bfdefd1c3b5a7998b7d6f574651ab1bad02629be6b3d3e2cd1f7a391895242"
     "2ce5c74eddb0305dc6a279c4"},
    {CipherBackend::kChaCha20, 0, true,
     "a0bfdefd1c3b5a7998b7d6f5a648923150ea55ed65aa38fb81f382d684533a07"
     "de6b0e4400f3c9617efc03a4"},
    {CipherBackend::kChaCha20, 1, false,
     "a0bfdefd1c3b5a7998b7d6f52f52c50105a1648d4873714b617e5b93b44bde27"
     "785ee31e293d309c24958d9828"},
    {CipherBackend::kChaCha20, 1, true,
     "a0bfdefd1c3b5a7998b7d6f52fbc2fbc05f9a57ee4f8a184d3f149cd754a0e00"
     "2f71709c3c9306e2575ccfebb4"},
    {CipherBackend::kChaCha20, 84, false,
     "a0bfdefd1c3b5a7998b7d6f52ff6281fdb51584c9ad827fcf9a1ad619866bf22"
     "c846c816e11a14a23ad48ba48a4d1e945c55ba30bfb26d2909cfd09fe5213640"
     "4dfc36e0a184695ca3bb259dca6c4f639277e0bbd4158c10ee4d301dc4aec581"
     "b511f5c858dae0471af1db9574fe50e00b644a4abdf816569218f907a0ea532d"},
    {CipherBackend::kChaCha20, 84, true,
     "a0bfdefd1c3b5a7998b7d6f52ff6281fdb51584c9ad827fcf9a1ad619866bf22"
     "c846c816e11a14a23ad48ba48a4d1e945c55ba30bfb26d2909cfd09fe5213640"
     "4dfc36e0a184695ca3bb259dca6c4f639277e0bbd4158c10ee4d301dc4aec581"
     "8ff92c3f4ff208e9339af869bbd3c39f4b468474674ea0b3207a609ea94b1432"},
    {CipherBackend::kChaCha20, 700, false,
     "a0bfdefd1c3b5a7998b7d6f52ff6281fdb51584c9ad827fcf9a1ad619866bf22"
     "c846c816e11a14a23ad48ba48a4d1e945c55ba30bfb26d2909cfd09fe5213640"
     "4dfc36e0a184695ca3bb259dca6c4f639277e0bbd4158c10ee4d301dc4aec581"
     "724eef51547d2ff016448c0a34b6e87b4183baafe15d147639cbca11982fa4ec"
     "92a4b3f7c012c3236f9e6380204a9b3d41bf3f9d508bf01feb879eefd5bd970b"
     "9f4ecce1da18e19ada0a66bb08b0e465cc01ea1d6466961b8f1181c0ee30d570"
     "c04379c368337a71ceda30098da2e0bbd8341a4715d07a1c19f1a7d9bdd02cd7"
     "3590a10c26a2c39fadb138129989bea084e04cb2aba9e64368719ba8929e5299"
     "b0e6d719e63a3234e4d6d8a19e706f1bb63cdf84bd41e94ddcd7d7334e8f20c5"
     "e10f04aadc3eb8b3a2896b13f486c98f56b368cb4d18c124dc4433a4bee5573e"
     "bbd247d5ed2ea9db4f408745b23815835825100ad90e5cb160d596d5a7b16925"
     "d7d0fce25cb080003ce67eacfb1780f6c4c26f28ae12d339333576d1e9894816"
     "9ab76c4af9ee213a04f2c5d21947df8b07dda233d767c4e02fdacd8c5e502785"
     "0b19b5b0cf7a3c44ea479aaab8d2e80a233130a197fedb2200fac142a659f2b7"
     "b0bbb483f759055979a41e869396e114a5e0be98da2b629147f9bd7a7589022e"
     "8710167f78d78ab374cfdb87fa518c2c46973e29d1eb0693df24ec8e874ee0a9"
     "0d4cabe7df02426aaa8b0f05cc44784eb2f5fcb0755754c06fa0d548563b7895"
     "3b0e1d4af04b68e5c007b7e61de692aff88bc34fe148331eb51211366753744b"
     "c81b1fd6c244c0f7e8cec01510015fbb21d655b7205a818bace29d4c822c574e"
     "fa8389685dfc63d7efa3194a81527e109078081a77fc644074dc1c69c7e30bad"
     "a7be9b77de8b5c75cf32e14139cd03f0e107abc3faa21def590136e195164911"
     "3fe9c4d7a8bc4d53a170e8373b91e542ecffce99c4ce82e0afe97eb0839b3bc4"
     "b70d1e155764289903367b49cf66727f925731906d9a781429146fefef2c7deb"
     "b6c6e0cacd584e14"},
    {CipherBackend::kChaCha20, 700, true,
     "a0bfdefd1c3b5a7998b7d6f52ff6281fdb51584c9ad827fcf9a1ad619866bf22"
     "c846c816e11a14a23ad48ba48a4d1e945c55ba30bfb26d2909cfd09fe5213640"
     "4dfc36e0a184695ca3bb259dca6c4f639277e0bbd4158c10ee4d301dc4aec581"
     "724eef51547d2ff016448c0a34b6e87b4183baafe15d147639cbca11982fa4ec"
     "92a4b3f7c012c3236f9e6380204a9b3d41bf3f9d508bf01feb879eefd5bd970b"
     "9f4ecce1da18e19ada0a66bb08b0e465cc01ea1d6466961b8f1181c0ee30d570"
     "c04379c368337a71ceda30098da2e0bbd8341a4715d07a1c19f1a7d9bdd02cd7"
     "3590a10c26a2c39fadb138129989bea084e04cb2aba9e64368719ba8929e5299"
     "b0e6d719e63a3234e4d6d8a19e706f1bb63cdf84bd41e94ddcd7d7334e8f20c5"
     "e10f04aadc3eb8b3a2896b13f486c98f56b368cb4d18c124dc4433a4bee5573e"
     "bbd247d5ed2ea9db4f408745b23815835825100ad90e5cb160d596d5a7b16925"
     "d7d0fce25cb080003ce67eacfb1780f6c4c26f28ae12d339333576d1e9894816"
     "9ab76c4af9ee213a04f2c5d21947df8b07dda233d767c4e02fdacd8c5e502785"
     "0b19b5b0cf7a3c44ea479aaab8d2e80a233130a197fedb2200fac142a659f2b7"
     "b0bbb483f759055979a41e869396e114a5e0be98da2b629147f9bd7a7589022e"
     "8710167f78d78ab374cfdb87fa518c2c46973e29d1eb0693df24ec8e874ee0a9"
     "0d4cabe7df02426aaa8b0f05cc44784eb2f5fcb0755754c06fa0d548563b7895"
     "3b0e1d4af04b68e5c007b7e61de692aff88bc34fe148331eb51211366753744b"
     "c81b1fd6c244c0f7e8cec01510015fbb21d655b7205a818bace29d4c822c574e"
     "fa8389685dfc63d7efa3194a81527e109078081a77fc644074dc1c69c7e30bad"
     "a7be9b77de8b5c75cf32e14139cd03f0e107abc3faa21def590136e195164911"
     "3fe9c4d7a8bc4d53a170e8373b91e542ecffce99c4ce82e0afe97eb0839b3bc4"
     "b70d1e1557642899984258e2841adbbd383a7ed0f78e84512de139651ac47fef"
     "f44f621dfb653840"},
    {CipherBackend::kAes256Ctr, 0, false,
     "a0bfdefd1c3b5a7998b7d6f5304ca5ba050ece6426903ed39db10b707a0609b9"
     "ba7ebda6f8b76dc0914e000f"},
    {CipherBackend::kAes256Ctr, 0, true,
     "a0bfdefd1c3b5a7998b7d6f5ef34856008130fe009019d95d18592217bf1972c"
     "e683d26017187c509a0dc9ac"},
    {CipherBackend::kAes256Ctr, 1, false,
     "a0bfdefd1c3b5a7998b7d6f5f7091f1c8de7fd97d91ed4f54c31374ced39a41c"
     "4ec00db29b93073337bceb7118"},
    {CipherBackend::kAes256Ctr, 1, true,
     "a0bfdefd1c3b5a7998b7d6f5f7d22b8baab6bfc5f144792bc3ba44557c53508d"
     "ffeceefe6b5234e4628c55eb99"},
    {CipherBackend::kAes256Ctr, 84, false,
     "a0bfdefd1c3b5a7998b7d6f5f7d158333ae0ca0bef23310f0c8b9ce2b1d7668c"
     "272336b58fd61a2e60361c2afbe5eddaa97c3ee41e902571c236aa7ac8aaf3f0"
     "936a14c9a80f6911a48ac1ad833dd1e89f6fedda5e9cfbf66891d686298edef9"
     "f042f9fefa77d2f44ca9eaabad7ae2f94fda6c9c237d4fbaaca302d917c4130f"},
    {CipherBackend::kAes256Ctr, 84, true,
     "a0bfdefd1c3b5a7998b7d6f5f7d158333ae0ca0bef23310f0c8b9ce2b1d7668c"
     "272336b58fd61a2e60361c2afbe5eddaa97c3ee41e902571c236aa7ac8aaf3f0"
     "936a14c9a80f6911a48ac1ad833dd1e89f6fedda5e9cfbf66891d686298edef9"
     "36c402cd39a1d816456d0594da7cabe4304685cac7fbcf58efff8052915e7901"},
    {CipherBackend::kAes256Ctr, 700, false,
     "a0bfdefd1c3b5a7998b7d6f5f7d158333ae0ca0bef23310f0c8b9ce2b1d7668c"
     "272336b58fd61a2e60361c2afbe5eddaa97c3ee41e902571c236aa7ac8aaf3f0"
     "936a14c9a80f6911a48ac1ad833dd1e89f6fedda5e9cfbf66891d686298edef9"
     "9e23a595bebf5239907d7d676a75d201ad579166085941acb2d1987737b5273b"
     "270329fe3c7ddbaf84b7fcfa235f754b6dde4cf17cff371b2d60192bc55e1c8f"
     "d9a1b9c67579eb41228213852a670f5d448315744bf806aaf43a755a8b8b40e9"
     "7f8398cc228912b83bde5b767e1f71ff1e3a9becf752e8eb8ffba04f0dcacb3f"
     "a294a8c7f88bf63bade757e1e5d8398cbcaa1b0bc878a257c0aaef1e0b74f1a5"
     "c11f0710d7ce7c6e6dcb017c60c7037351308e1d33284bee532fcc68a95bb23e"
     "2ea24a3d7e3a941efb1b0a0d5f94cd536190b201106ea075e5328b35fbecda7a"
     "bbd55ed6e753b19e0f337b923d7ee81aed72c5253722629454ae8082dda65a5a"
     "c9427bdd3ef2ba61ebad84b072461c5d39b41aa2d6e9327ba84ac5dc7dd32ead"
     "7a2a7d4f0706b93da47dbfca268a3ab92e9ee7d19c01c0796d1241a363c40837"
     "ae476c83f62947b20db678640f6051bdb49e79bfbab7f09d65da6f2860db39ed"
     "5e4a091c3f3f0c28cfc1426da9afb309b59cec6171860d812a2138c3216e0436"
     "5e64e0e420145f7b7de31fb56dc27f983ac2f200c66f0e70b2aec80ba6746cbf"
     "a8ce8fea20e4f78bab560d8c063296431d389c81670307c575d3cc878a8ea6ca"
     "d1fb5a4819927624ed6cc5794036857c93b0d7d2d2ff6a52ecbccdac5faa5e04"
     "e92895888291b4e14d8357d780961cf85c67de4bcf55d8fac0e5c37211f9233c"
     "bba5a833130aaaf704c14573f8a3ab3d4def6c0294d48bcc0ab25d7fb541f4f0"
     "3ca58e46ec73323c9430ab8492e738ca636164112382428a63fe4d3c3563e951"
     "b90894aabaa8c246cabd54a3d544c5c653420c5fdc751ecf7c1b975a9d5a6e64"
     "c0a2975cd981cf63846da6c5cd31248bef9d3328d89a1471ca2373e22da45dde"
     "b8afdb9522d47df6"},
    {CipherBackend::kAes256Ctr, 700, true,
     "a0bfdefd1c3b5a7998b7d6f5f7d158333ae0ca0bef23310f0c8b9ce2b1d7668c"
     "272336b58fd61a2e60361c2afbe5eddaa97c3ee41e902571c236aa7ac8aaf3f0"
     "936a14c9a80f6911a48ac1ad833dd1e89f6fedda5e9cfbf66891d686298edef9"
     "9e23a595bebf5239907d7d676a75d201ad579166085941acb2d1987737b5273b"
     "270329fe3c7ddbaf84b7fcfa235f754b6dde4cf17cff371b2d60192bc55e1c8f"
     "d9a1b9c67579eb41228213852a670f5d448315744bf806aaf43a755a8b8b40e9"
     "7f8398cc228912b83bde5b767e1f71ff1e3a9becf752e8eb8ffba04f0dcacb3f"
     "a294a8c7f88bf63bade757e1e5d8398cbcaa1b0bc878a257c0aaef1e0b74f1a5"
     "c11f0710d7ce7c6e6dcb017c60c7037351308e1d33284bee532fcc68a95bb23e"
     "2ea24a3d7e3a941efb1b0a0d5f94cd536190b201106ea075e5328b35fbecda7a"
     "bbd55ed6e753b19e0f337b923d7ee81aed72c5253722629454ae8082dda65a5a"
     "c9427bdd3ef2ba61ebad84b072461c5d39b41aa2d6e9327ba84ac5dc7dd32ead"
     "7a2a7d4f0706b93da47dbfca268a3ab92e9ee7d19c01c0796d1241a363c40837"
     "ae476c83f62947b20db678640f6051bdb49e79bfbab7f09d65da6f2860db39ed"
     "5e4a091c3f3f0c28cfc1426da9afb309b59cec6171860d812a2138c3216e0436"
     "5e64e0e420145f7b7de31fb56dc27f983ac2f200c66f0e70b2aec80ba6746cbf"
     "a8ce8fea20e4f78bab560d8c063296431d389c81670307c575d3cc878a8ea6ca"
     "d1fb5a4819927624ed6cc5794036857c93b0d7d2d2ff6a52ecbccdac5faa5e04"
     "e92895888291b4e14d8357d780961cf85c67de4bcf55d8fac0e5c37211f9233c"
     "bba5a833130aaaf704c14573f8a3ab3d4def6c0294d48bcc0ab25d7fb541f4f0"
     "3ca58e46ec73323c9430ab8492e738ca636164112382428a63fe4d3c3563e951"
     "b90894aabaa8c246cabd54a3d544c5c653420c5fdc751ecf7c1b975a9d5a6e64"
     "c0a2975cd981cf63243f23392c4710fbdb14072e3846a0d936c26ff6227e6ae2"
     "690fa95f0e18c310"},
  };
  const SymmetricKey key = SymmetricKey::from_bytes(pattern(32, 0x00));
  const Bytes nonce = pattern(12, 0xa0);
  // The 30-byte aad the onion gives column 1's envelopes.
  BinaryWriter w;
  w.str("emergence/onion/envelope");
  w.u16(1);
  const Bytes envelope_aad = w.take();
  ASSERT_EQ(envelope_aad.size(), 30u);
  for (const Vector& v : vectors) {
    const Bytes aad = v.envelope_aad ? envelope_aad : Bytes{};
    const Bytes plaintext = pattern(v.body_len, 0x07);
    const Bytes sealed = aead_seal(key, nonce, plaintext, aad, v.backend);
    EXPECT_EQ(to_hex(sealed), v.sealed_hex)
        << "backend " << static_cast<int>(v.backend) << ", body "
        << v.body_len << ", aad " << aad.size();
    EXPECT_EQ(aead_open(key, from_hex(v.sealed_hex), aad, v.backend),
              plaintext);
  }
}

TEST(SymmetricKey, FromBytesValidatesLength) {
  EXPECT_THROW(SymmetricKey::from_bytes(Bytes(31, 0)), PreconditionError);
  EXPECT_NO_THROW(SymmetricKey::from_bytes(Bytes(32, 0)));
}

// -- DRBG -------------------------------------------------------------------------

TEST(Drbg, DeterministicForSeed) {
  Drbg a(std::uint64_t{1234}), b(std::uint64_t{1234});
  EXPECT_EQ(a.bytes(100), b.bytes(100));
}

TEST(Drbg, DifferentSeedsDiffer) {
  Drbg a(std::uint64_t{1}), b(std::uint64_t{2});
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Drbg, ForkedStreamsDiverge) {
  Drbg parent(std::uint64_t{7});
  Drbg child = parent.fork();
  EXPECT_NE(parent.bytes(32), child.bytes(32));
}

TEST(Drbg, ForkIsDeterministic) {
  Drbg a(std::uint64_t{7}), b(std::uint64_t{7});
  EXPECT_EQ(a.fork().bytes(16), b.fork().bytes(16));
}

TEST(Drbg, BelowStaysInRangeAndCoversValues) {
  Drbg d(std::uint64_t{99});
  std::array<int, 10> seen{};
  for (int i = 0; i < 1000; ++i) {
    const auto v = d.below(10);
    ASSERT_LT(v, 10u);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(Drbg, ByteSeedMatchesHashSemantics) {
  Drbg a(bytes_of("seed material"));
  Drbg b(bytes_of("seed material"));
  Drbg c(bytes_of("other material"));
  EXPECT_EQ(a.bytes(24), b.bytes(24));
  EXPECT_NE(Drbg(bytes_of("seed material")).bytes(24), c.bytes(24));
}

TEST(Drbg, OutputLooksBalanced) {
  // Not a randomness test -- just catches catastrophic bias (e.g. all
  // zeros) in the keystream plumbing.
  Drbg d(std::uint64_t{5});
  const Bytes sample = d.bytes(4096);
  std::size_t ones = 0;
  for (std::uint8_t byte : sample)
    ones += static_cast<std::size_t>(__builtin_popcount(byte));
  const double fraction = static_cast<double>(ones) / (4096.0 * 8.0);
  EXPECT_NEAR(fraction, 0.5, 0.02);
}

// -- GF(256) ----------------------------------------------------------------------

TEST(Gf256, MulAgreesWithKnownValues) {
  // 0x57 * 0x83 = 0xc1 (FIPS 197 §4.2 example).
  EXPECT_EQ(gf256::mul(0x57, 0x83), 0xc1);
  EXPECT_EQ(gf256::mul(0x57, 0x13), 0xfe);
}

TEST(Gf256, MulByZeroAndOne) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), 0), 0);
    EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), 1), a);
  }
}

TEST(Gf256, MulCommutative) {
  for (int a = 1; a < 256; a += 7) {
    for (int b = 1; b < 256; b += 11) {
      EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a),
                           static_cast<std::uint8_t>(b)),
                gf256::mul(static_cast<std::uint8_t>(b),
                           static_cast<std::uint8_t>(a)));
    }
  }
}

TEST(Gf256, InverseIsTwoSided) {
  for (int a = 1; a < 256; ++a) {
    const auto inv = gf256::inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), inv), 1) << a;
  }
}

TEST(Gf256, InverseOfZeroThrows) {
  EXPECT_THROW(gf256::inv(0), emergence::PreconditionError);
  EXPECT_THROW(gf256::div(1, 0), emergence::PreconditionError);
}

TEST(Gf256, DivisionInvertsMultiplication) {
  for (int a = 0; a < 256; a += 5) {
    for (int b = 1; b < 256; b += 9) {
      const auto product = gf256::mul(static_cast<std::uint8_t>(a),
                                      static_cast<std::uint8_t>(b));
      EXPECT_EQ(gf256::div(product, static_cast<std::uint8_t>(b)), a);
    }
  }
}

TEST(Gf256, DistributiveLaw) {
  for (int a = 1; a < 256; a += 17) {
    for (int b = 0; b < 256; b += 13) {
      for (int c = 0; c < 256; c += 19) {
        const auto lhs = gf256::mul(
            static_cast<std::uint8_t>(a),
            gf256::add(static_cast<std::uint8_t>(b),
                       static_cast<std::uint8_t>(c)));
        const auto rhs =
            gf256::add(gf256::mul(static_cast<std::uint8_t>(a),
                                  static_cast<std::uint8_t>(b)),
                       gf256::mul(static_cast<std::uint8_t>(a),
                                  static_cast<std::uint8_t>(c)));
        EXPECT_EQ(lhs, rhs);
      }
    }
  }
}

TEST(Gf256, PowMatchesRepeatedMul) {
  for (int a : {2, 3, 0x53}) {
    std::uint8_t acc = 1;
    for (unsigned e = 0; e < 10; ++e) {
      EXPECT_EQ(gf256::pow(static_cast<std::uint8_t>(a), e), acc);
      acc = gf256::mul(acc, static_cast<std::uint8_t>(a));
    }
  }
}

}  // namespace
}  // namespace emergence::crypto
