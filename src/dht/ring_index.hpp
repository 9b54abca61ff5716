// Sorted index over the live node ids of a DHT backend.
//
// NodeNetwork (node_network.hpp) keeps a swap-pop vector (O(1) uniform
// sampling) plus this ordered index so that the queries that used to fall
// back to O(live-set) scans — Chord's ring-successor step when a node's
// successor list is exhausted, Kademlia's closest-live-node-to-a-key — run
// in O(log n). Its register_alive/unregister_alive maintain the index, so
// it mirrors the alive set exactly at every instant.
#pragma once

#include <optional>
#include <set>

#include "dht/node_id.hpp"

namespace emergence::dht {

/// Ordered set of live node ids with ring-successor and XOR-closest queries.
class LiveRingIndex {
 public:
  void insert(const NodeId& id) { ids_.insert(id); }
  void erase(const NodeId& id) { ids_.erase(id); }
  bool contains(const NodeId& id) const { return ids_.count(id) > 0; }
  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// First live id strictly after `id` in ring order (wrapping past the top
  /// of the id space). Returns nullopt when the index is empty or `id` is
  /// its only member — the "genuinely alone" case of Chord's successor walk.
  std::optional<NodeId> successor_of(const NodeId& id) const;

  /// The live id minimizing XOR distance to `key` (Kademlia's ownership
  /// rule). Resolved by a most-significant-bit-first prefix descent: fix
  /// `key`'s bit whenever the matching prefix range is non-empty, else the
  /// flipped bit — O(bits * log n) instead of the old O(n) brute force.
  std::optional<NodeId> xor_closest(const NodeId& key) const;

 private:
  std::set<NodeId> ids_;
};

}  // namespace emergence::dht
