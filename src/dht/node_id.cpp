#include "dht/node_id.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/hex.hpp"
#include "crypto/sha256.hpp"

namespace emergence::dht {

NodeId NodeId::from_bytes(BytesView raw) {
  require(raw.size() == kIdBytes, "NodeId::from_bytes: expected 20 bytes");
  NodeId id;
  std::copy(raw.begin(), raw.end(), id.bytes_.begin());
  return id;
}

NodeId NodeId::hash_of(BytesView data) {
  const Bytes digest = crypto::sha256(data);
  return from_bytes(BytesView(digest.data(), kIdBytes));
}

NodeId NodeId::hash_of_text(std::string_view text) {
  return hash_of(bytes_of(text));
}

NodeId NodeId::from_hex(std::string_view hex) {
  return from_bytes(emergence::from_hex(hex));
}

std::string NodeId::to_hex() const {
  return emergence::to_hex(BytesView(bytes_.data(), bytes_.size()));
}

std::string NodeId::short_hex() const { return to_hex().substr(0, 8); }

NodeId NodeId::add_power_of_two(std::size_t power) const {
  require(power < kIdBits, "NodeId::add_power_of_two: power out of range");
  NodeId out = *this;
  // The bit `power` lives in byte (from the end) power/8, at bit power%8.
  std::size_t byte_index = kIdBytes - 1 - power / 8;
  std::uint16_t carry =
      static_cast<std::uint16_t>(1u << (power % 8));
  // Propagate the addition toward the most significant byte.
  for (std::size_t i = byte_index + 1; i-- > 0;) {
    const std::uint16_t sum =
        static_cast<std::uint16_t>(out.bytes_[i]) + carry;
    out.bytes_[i] = static_cast<std::uint8_t>(sum & 0xff);
    carry = static_cast<std::uint16_t>(sum >> 8);
    if (carry == 0) break;
  }
  return out;  // overflow wraps (mod 2^160)
}

std::uint64_t NodeId::distance_low64(const NodeId& other) const {
  // other - this (mod 2^160), low 64 bits.
  std::array<std::uint8_t, kIdBytes> diff;
  int borrow = 0;
  for (std::size_t i = kIdBytes; i-- > 0;) {
    int d = static_cast<int>(other.bytes_[i]) - static_cast<int>(bytes_[i]) -
            borrow;
    borrow = d < 0 ? 1 : 0;
    if (d < 0) d += 256;
    diff[i] = static_cast<std::uint8_t>(d);
  }
  std::uint64_t low = 0;
  for (std::size_t i = kIdBytes - 8; i < kIdBytes; ++i)
    low = (low << 8) | diff[i];
  return low;
}

std::size_t NodeIdHash::operator()(const NodeId& id) const {
  std::uint64_t v;
  std::memcpy(&v, id.bytes().data(), sizeof(v));
  return static_cast<std::size_t>(v);
}

}  // namespace emergence::dht
