// Run-length-compressed Chord finger table.
//
// A dense finger table stores one entry per identifier bit (160 here), but
// in an n-node ring only ~log2(n) of them are distinct: every power whose
// 2^p span falls short of the next node points at the same successor. The
// dense std::vector<std::optional<NodeId>> representation cost ~3.4 KB per
// node (the dominant memory term of a 100k-node world) and made
// closest_preceding_node scan 160 slots per routing hop. This table stores
// maximal runs of consecutive powers that share a finger instead: ~log2(n)
// runs of 32 bytes (the id inline for interval tests, plus the peer's
// handle), O(#runs) per hop, and bulk construction during bootstrap builds
// each table at exact capacity.
//
// set() keeps exact per-power semantics (fix_fingers updates one power at a
// time), splitting and re-merging runs as needed; powers not covered by any
// run are "unset", matching the optional<NodeId> nullopt of the dense form.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dht/node_id.hpp"

namespace emergence::dht {

class ChordNode;

/// A reference to a Chord peer: its ring id, inline so that interval tests
/// never dereference, and its arena handle, which routing and maintenance
/// follow instead of hashing the id. A network's nodes never move and a
/// rejoining id reuses its slot, so `node` always equals
/// `ChordNetwork::node(id)`.
struct PeerRef {
  NodeId id;
  ChordNode* node = nullptr;
};

/// Compressed map from finger power (0..kIdBits-1) to peer.
class FingerTable {
 public:
  /// One maximal run: powers lo..hi (inclusive) all point at peer
  /// (`id`, `node`). Flat rather than a PeerRef member: 32 bytes, not 40.
  struct Run {
    std::uint8_t lo = 0;
    std::uint8_t hi = 0;
    NodeId id;
    ChordNode* node = nullptr;
  };

  /// The finger id for `power`, nullopt when unset.
  std::optional<NodeId> get(std::size_t power) const;

  /// Points `power` at `peer`, splitting/merging runs as needed.
  void set(std::size_t power, const PeerRef& peer);

  /// Bulk build: appends the run [lo, hi] -> peer. Runs must arrive in
  /// ascending, non-overlapping power order (the bootstrap construction
  /// emits them that way); adjacent equal-peer runs are coalesced.
  void append_run(std::size_t lo, std::size_t hi, const PeerRef& peer);

  /// Replaces the runs with a copy of `other`'s held in an allocation of
  /// exactly their count. Bootstrap builds every table this way: growth by
  /// doubling would leave ~60% more slots than runs in a 100k-node world.
  void assign_compact(const FingerTable& other) {
    runs_ = std::vector<Run>(other.runs_.begin(), other.runs_.end());
  }

  void clear() { runs_.clear(); }
  std::size_t run_count() const { return runs_.size(); }

  /// Runs in ascending power order (closest_preceding_node iterates them
  /// in reverse: farthest fingers first).
  const std::vector<Run>& runs() const { return runs_; }

 private:
  /// Index of the first run with hi >= power (== runs_.size() when none).
  std::size_t first_run_reaching(std::size_t power) const;
  /// Coalesces runs_[i] with its neighbors where ranges touch and peers
  /// match.
  void merge_around(std::size_t i);
  /// Grows capacity to exactly size() + extra when short. Tables start at
  /// exact capacity and change one power at a time, so doubling would give
  /// a ~17-run table ~17 spare slots for its first split.
  void reserve_exact(std::size_t extra);

  std::vector<Run> runs_;  // sorted by lo, pairwise disjoint
};

}  // namespace emergence::dht
