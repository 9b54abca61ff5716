#include "dht/ring_index.hpp"

#include <array>

namespace emergence::dht {

std::optional<NodeId> LiveRingIndex::successor_of(const NodeId& id) const {
  if (ids_.empty()) return std::nullopt;
  auto it = ids_.upper_bound(id);
  if (it == ids_.end()) it = ids_.begin();
  if (*it == id) return std::nullopt;  // `id` is the only member
  return *it;
}

std::optional<NodeId> LiveRingIndex::xor_closest(const NodeId& key) const {
  if (ids_.empty()) return std::nullopt;

  // Walk bits most-significant first, maintaining the [lo, hi] bounds of the
  // ids that share the prefix fixed so far. Preferring key's own bit at
  // every step minimizes the XOR lexicographically (the classic binary-trie
  // argument); when the preferred half is empty the other half cannot be —
  // the current range is non-empty and the two halves partition it.
  std::array<std::uint8_t, kIdBytes> lo{};
  std::array<std::uint8_t, kIdBytes> hi{};
  hi.fill(0xff);
  const auto& kb = key.bytes();

  for (std::size_t bit = 0; bit < kIdBits; ++bit) {
    const std::size_t byte = bit / 8;              // big-endian: byte 0 first
    const std::uint8_t mask =
        static_cast<std::uint8_t>(1u << (7 - bit % 8));
    const bool desired = (kb[byte] & mask) != 0;

    // Candidate range with this bit fixed to `desired`.
    std::array<std::uint8_t, kIdBytes> cand_lo = lo;
    std::array<std::uint8_t, kIdBytes> cand_hi = hi;
    if (desired) {
      cand_lo[byte] |= mask;
    } else {
      cand_hi[byte] = static_cast<std::uint8_t>(cand_hi[byte] & ~mask);
    }

    const NodeId lo_id = NodeId::from_bytes(
        BytesView(cand_lo.data(), cand_lo.size()));
    const NodeId hi_id = NodeId::from_bytes(
        BytesView(cand_hi.data(), cand_hi.size()));
    auto it = ids_.lower_bound(lo_id);
    const bool non_empty = it != ids_.end() && !(hi_id < *it);

    if (non_empty == desired) {
      lo[byte] |= mask;  // bit fixed to 1
    } else {
      hi[byte] = static_cast<std::uint8_t>(hi[byte] & ~mask);  // fixed to 0
    }
  }
  return NodeId::from_bytes(BytesView(lo.data(), lo.size()));
}

}  // namespace emergence::dht
