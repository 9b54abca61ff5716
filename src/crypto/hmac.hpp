// HMAC-SHA256 (RFC 2104 / FIPS 198-1).
#pragma once

#include <array>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace emergence::crypto {

/// HMAC-SHA256 under one key. The key's ipad and opad blocks are absorbed
/// once, into two SHA-256 midstates, so a message costs only its own blocks
/// and the outer hash's last block. Copies MAC under the same key.
class HmacSha256 {
 public:
  static constexpr std::size_t kTagSize = Sha256::kDigestSize;

  /// Keys longer than the block size are hashed first, per the RFC.
  explicit HmacSha256(BytesView key);

  /// Starts one message: update() the returned hasher with its bytes, then
  /// pass it to finish().
  Sha256 begin() const { return inner_; }

  /// Ends a message started with begin() and returns its tag.
  std::array<std::uint8_t, kTagSize> finish(Sha256 inner) const;

 private:
  Sha256 inner_;  // has absorbed key ^ ipad
  Sha256 outer_;  // has absorbed key ^ opad
};

/// Computes HMAC-SHA256(key, data) in one call.
Bytes hmac_sha256(BytesView key, BytesView data);

}  // namespace emergence::crypto
