// SHA-256 (FIPS 180-4), implemented from the specification.
//
// Used for node identifiers, HMAC, HKDF and the ChaCha20 DRBG seeding. The
// streaming interface supports incremental hashing of large payloads, and a
// copy of a hasher is a midstate: both copies continue independently.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace emergence::crypto {

/// Streaming SHA-256 hasher.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256();

  /// Absorbs more input.
  void update(BytesView data);

  /// Finalizes and returns the 32-byte digest. The hasher must not be used
  /// again afterwards (construct a fresh one, or finalize a copy instead).
  std::array<std::uint8_t, kDigestSize> finalize();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

/// One-shot SHA-256.
Bytes sha256(BytesView data);

}  // namespace emergence::crypto
