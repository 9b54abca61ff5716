// 160-bit identifiers on the Chord ring.
//
// IDs are big-endian 20-byte values; nodes and keys share the identifier
// space (consistent hashing, as in the Chord paper). All interval tests are
// circular: (a, b] wraps around the 2^160 boundary.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

#include "common/bytes.hpp"

namespace emergence::dht {

constexpr std::size_t kIdBytes = 20;
constexpr std::size_t kIdBits = kIdBytes * 8;  // 160

/// An identifier on the ring.
class NodeId {
 public:
  NodeId() = default;

  /// Builds from exactly 20 raw bytes.
  static NodeId from_bytes(BytesView raw);

  /// SHA-256 of `data`, truncated to 160 bits (Chord's consistent hash).
  static NodeId hash_of(BytesView data);

  /// Convenience: hash of a textual name ("node-17", key labels, ...).
  static NodeId hash_of_text(std::string_view text);

  /// Parses 40 hex characters.
  static NodeId from_hex(std::string_view hex);

  const std::array<std::uint8_t, kIdBytes>& bytes() const { return bytes_; }
  std::string to_hex() const;
  /// First 8 hex chars; convenient for logs.
  std::string short_hex() const;

  /// Ring order is the big-endian byte order, compared as three words
  /// (bytes 0-7, 8-15, 12-19) rather than through memcmp: lookups make
  /// tens of millions of these compares per 100k-node run. The last word
  /// overlaps the middle one; it is reached only when bytes 0-15 are
  /// equal, so bytes 16-19 decide it.
  std::strong_ordering operator<=>(const NodeId& other) const {
    if (const auto c = word64(0) <=> other.word64(0); c != 0) return c;
    if (const auto c = word64(8) <=> other.word64(8); c != 0) return c;
    return word64(12) <=> other.word64(12);
  }
  bool operator==(const NodeId& other) const {
    return word64(0) == other.word64(0) && word64(8) == other.word64(8) &&
           word64(12) == other.word64(12);
  }

  /// this + 2^power (mod 2^160); used for finger-table starts.
  NodeId add_power_of_two(std::size_t power) const;

  /// Clockwise distance from this to other (other - this mod 2^160),
  /// truncated to the low 64 bits (sufficient for ordering diagnostics).
  std::uint64_t distance_low64(const NodeId& other) const;

 private:
  /// The big-endian word at byte `at`, as a number.
  std::uint64_t word64(std::size_t at) const {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes_.data() + at, sizeof(w));
    if constexpr (std::endian::native == std::endian::little)
      w = __builtin_bswap64(w);
    return w;
  }

  std::array<std::uint8_t, kIdBytes> bytes_{};
};

/// True when x lies in the open interval (a, b) on the ring. Empty when
/// a == b (full-circle semantics are handled by callers that need them).
inline bool in_open_interval(const NodeId& x, const NodeId& a,
                             const NodeId& b) {
  if (a < b) return a < x && x < b;
  if (a > b) return x > a || x < b;  // interval wraps through zero
  return false;                      // (a, a) is empty
}

/// True when x lies in the half-open interval (a, b] on the ring; this is
/// the successor-responsibility test of Chord.
inline bool in_half_open_interval(const NodeId& x, const NodeId& a,
                                  const NodeId& b) {
  if (x == b) return true;
  if (a == b) return x != a;  // (a, a] is the whole ring
  return in_open_interval(x, a, b);
}

/// Hash functor so NodeId can key unordered containers.
struct NodeIdHash {
  std::size_t operator()(const NodeId& id) const;
};

}  // namespace emergence::dht
