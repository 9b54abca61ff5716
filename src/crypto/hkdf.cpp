#include "crypto/hkdf.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace emergence::crypto {

Bytes hkdf_extract(BytesView salt, BytesView ikm) {
  if (!salt.empty()) return hmac_sha256(salt, ikm);
  // RFC 5869: no salt means HashLen zero bytes. Every AEAD call extracts
  // under it, so it is keyed once.
  static const HmacSha256 zero_salt(
      std::array<std::uint8_t, Sha256::kDigestSize>{});
  Sha256 h = zero_salt.begin();
  h.update(ikm);
  const auto prk = zero_salt.finish(h);
  return Bytes(prk.begin(), prk.end());
}

Bytes hkdf_expand(BytesView prk, BytesView info, std::size_t length) {
  constexpr std::size_t kHash = Sha256::kDigestSize;
  require(length <= 255 * kHash, "hkdf_expand: length too large");
  const HmacSha256 mac(prk);
  Bytes okm;
  okm.reserve(length);
  std::array<std::uint8_t, kHash> t{};
  for (std::uint8_t counter = 1; okm.size() < length; ++counter) {
    // T(i) = HMAC(PRK, T(i-1) || info || i), with T(0) empty.
    Sha256 h = mac.begin();
    if (counter > 1) h.update(t);
    h.update(info);
    h.update(BytesView(&counter, 1));
    t = mac.finish(h);
    const std::size_t take = std::min(kHash, length - okm.size());
    okm.insert(okm.end(), t.begin(), t.begin() + static_cast<long>(take));
  }
  return okm;
}

Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length) {
  return hkdf_expand(hkdf_extract(salt, ikm), info, length);
}

}  // namespace emergence::crypto
