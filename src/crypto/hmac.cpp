#include "crypto/hmac.hpp"

#include <algorithm>

namespace emergence::crypto {

HmacSha256::HmacSha256(BytesView key) {
  std::array<std::uint8_t, Sha256::kBlockSize> block{};
  if (key.size() > block.size()) {
    Sha256 h;
    h.update(key);
    const auto digest = h.finalize();
    std::copy(digest.begin(), digest.end(), block.begin());
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }
  for (auto& b : block) b ^= 0x36;
  inner_.update(block);
  for (auto& b : block) b ^= 0x36 ^ 0x5c;
  outer_.update(block);
}

std::array<std::uint8_t, HmacSha256::kTagSize> HmacSha256::finish(
    Sha256 inner) const {
  const auto inner_digest = inner.finalize();
  Sha256 outer = outer_;
  outer.update(inner_digest);
  return outer.finalize();
}

Bytes hmac_sha256(BytesView key, BytesView data) {
  const HmacSha256 mac(key);
  Sha256 h = mac.begin();
  h.update(data);
  const auto tag = mac.finish(h);
  return Bytes(tag.begin(), tag.end());
}

}  // namespace emergence::crypto
