#include "crypto/aead.hpp"

#include "common/error.hpp"
#include "crypto/aes.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"

namespace emergence::crypto {
namespace {

constexpr std::size_t kNonceSize = 12;
constexpr std::size_t kTagSize = HmacSha256::kTagSize;

struct DerivedKeys {
  std::array<std::uint8_t, 32> enc;
  HmacSha256 mac;
};

DerivedKeys derive_keys(const SymmetricKey& key, CipherBackend backend) {
  Bytes info = bytes_of("emergence/aead/v1");
  info.push_back(static_cast<std::uint8_t>(backend));
  const Bytes okm = hkdf(/*salt=*/{}, BytesView(key.bytes.data(), 32), info,
                         /*length=*/64);
  DerivedKeys out{{}, HmacSha256(BytesView(okm).subspan(32))};
  std::copy(okm.begin(), okm.begin() + 32, out.enc.begin());
  return out;
}

// tag = HMAC(mac key, nonce || u64 LE aad length || aad || body), streamed
// into the keyed midstate.
std::array<std::uint8_t, kTagSize> compute_tag(const HmacSha256& mac,
                                               BytesView nonce, BytesView aad,
                                               BytesView body) {
  std::array<std::uint8_t, 8> aad_len{};
  for (std::size_t i = 0; i < aad_len.size(); ++i)
    aad_len[i] = static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(aad.size()) >> (8 * i));
  Sha256 h = mac.begin();
  h.update(nonce);
  h.update(aad_len);
  h.update(aad);
  h.update(body);
  return mac.finish(h);
}

void apply_stream(const std::array<std::uint8_t, 32>& enc_key, BytesView nonce,
                  std::span<std::uint8_t> data, CipherBackend backend) {
  std::array<std::uint8_t, kNonceSize> n{};
  std::copy(nonce.begin(), nonce.end(), n.begin());
  switch (backend) {
    case CipherBackend::kChaCha20:
      chacha20_xor(enc_key, n, /*initial_counter=*/1, data);
      break;
    case CipherBackend::kAes256Ctr: {
      const Aes aes(BytesView(enc_key.data(), enc_key.size()));
      aes_ctr_xor(aes, n, /*initial_counter=*/1, data);
      break;
    }
  }
}

}  // namespace

SymmetricKey SymmetricKey::from_bytes(BytesView raw) {
  require(raw.size() == 32, "SymmetricKey: expected 32 bytes");
  SymmetricKey k;
  std::copy(raw.begin(), raw.end(), k.bytes.begin());
  return k;
}

Bytes aead_seal(const SymmetricKey& key, BytesView nonce12, BytesView plaintext,
                BytesView aad, CipherBackend backend) {
  require(nonce12.size() == kNonceSize, "aead_seal: nonce must be 12 bytes");
  const DerivedKeys keys = derive_keys(key, backend);

  Bytes out(kNonceSize + plaintext.size() + kTagSize);
  const std::span<std::uint8_t> body(out.data() + kNonceSize, plaintext.size());
  std::copy(nonce12.begin(), nonce12.end(), out.begin());
  std::copy(plaintext.begin(), plaintext.end(), body.begin());
  apply_stream(keys.enc, nonce12, body, backend);

  const auto tag = compute_tag(keys.mac, nonce12, aad, body);
  std::copy(tag.begin(), tag.end(), out.end() - kTagSize);
  return out;
}

Bytes aead_open(const SymmetricKey& key, BytesView sealed, BytesView aad,
                CipherBackend backend) {
  if (sealed.size() < kNonceSize + kTagSize)
    throw CryptoError("aead_open: ciphertext too short");
  const DerivedKeys keys = derive_keys(key, backend);

  const BytesView nonce = sealed.subspan(0, kNonceSize);
  const BytesView body =
      sealed.subspan(kNonceSize, sealed.size() - kNonceSize - kTagSize);
  const BytesView tag = sealed.subspan(sealed.size() - kTagSize);

  const auto expected = compute_tag(keys.mac, nonce, aad, body);
  if (!constant_time_equal(expected, tag))
    throw CryptoError("aead_open: authentication failed");

  Bytes plaintext(body.begin(), body.end());
  apply_stream(keys.enc, nonce, plaintext, backend);
  return plaintext;
}

}  // namespace emergence::crypto
