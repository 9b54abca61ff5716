// One Chord node: ring state, finger table, iterative lookup, storage.
//
// Follows Stoica et al., "Chord: A scalable peer-to-peer lookup service for
// internet applications" (SIGCOMM 2001): each node keeps a successor list
// (robustness to failures), a predecessor pointer and a 160-entry finger
// table; lookups walk closest-preceding fingers until the key falls between
// a node and its successor. Maintenance (stabilize / fix-fingers /
// check-predecessor / replica repair) runs as periodic simulator events
// scheduled by ChordNetwork.
//
// Every peer reference (successor list, predecessor, finger runs) is a
// PeerRef: the id, which interval tests read inline, and the peer's arena
// handle, which routing and maintenance follow. No step of a lookup or of
// maintenance hashes a NodeId; only join resolves its bootstrap id.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "dht/finger_table.hpp"
#include "dht/network.hpp"
#include "dht/node_id.hpp"
#include "dht/storage.hpp"

namespace emergence::dht {

class ChordNetwork;

/// Outcome of ChordNode::find_successor: the responsible peer, handle
/// included, so callers act on it without resolving its id.
struct ChordLookup {
  PeerRef peer;    ///< responsible node (the origin itself when !ok)
  int hops = 0;    ///< routing hops taken
  bool ok = true;  ///< false when routing failed

  LookupResult result() const { return LookupResult{peer.id, hops, ok}; }
};

/// A single DHT participant.
class ChordNode {
 public:
  ChordNode(ChordNetwork& network, NodeId id, std::size_t successor_list_size);
  // Peers hold this node's address, so it never moves or copies.
  ChordNode(const ChordNode&) = delete;
  ChordNode& operator=(const ChordNode&) = delete;

  const NodeId& id() const { return self_.id; }
  /// This node as its peers reference it.
  const PeerRef& self() const { return self_; }
  bool alive() const { return alive_; }
  ChordNetwork& network() const { return network_; }

  // -- ring pointers ---------------------------------------------------------

  /// First live successor (self when the node is alone).
  const PeerRef& successor_peer() const;
  NodeId successor() const { return successor_peer().id; }
  const std::vector<PeerRef>& successor_list() const { return successors_; }
  std::optional<NodeId> predecessor() const {
    if (!predecessor_.has_value()) return std::nullopt;
    return predecessor_->id;
  }
  const std::optional<PeerRef>& predecessor_peer() const {
    return predecessor_;
  }

  /// True when this node is responsible for `key`
  /// (key in (predecessor, self]).
  bool responsible_for(const NodeId& key) const;

  // -- protocol --------------------------------------------------------------

  /// Bootstraps a one-node ring.
  void create();

  /// Joins via any live node; acquires successor and pulls keys it now owns.
  void join(const NodeId& bootstrap);

  /// Graceful leave: hands keys to the successor and detaches.
  void leave();

  /// Abrupt death (churn): state is lost, peers discover via timeouts.
  void fail();

  /// Restores freshly-constructed state so a dead instance can serve a
  /// rejoin of the same id (arena slots are reused, never destroyed). The
  /// node stays dead until create() or join() brings it up.
  void reset_for_rejoin();

  /// Bumped by every reset_for_rejoin. Maintenance timers capture it at
  /// scheduling time and abandon themselves when it moved on, so a
  /// kill-then-rejoin that beats a pending timer cannot leave the node
  /// with two concurrent stabilize/repair chains.
  std::uint64_t incarnation() const { return incarnation_; }

  /// Periodic: verify successor, adopt a closer one, refresh successor list.
  void stabilize();

  /// Remote call: `candidate` believes it may be our predecessor.
  void notify(const PeerRef& candidate);

  /// Periodic: refreshes one finger per call, round-robin.
  void fix_fingers();

  /// Refreshes every finger (used after bulk bootstrap).
  void fix_all_fingers();

  /// Periodic: clears the predecessor if it died.
  void check_predecessor();

  /// Periodic: pushes each stored key to the current replica set so that
  /// `replication_factor` copies survive churn.
  void replica_maintenance(std::size_t replication_factor);

  /// Iterative lookup starting at this node.
  ChordLookup find_successor(const NodeId& key) const;

  /// Closest live finger/successor strictly between this node and `key`
  /// (this node when none is).
  const ChordNode* closest_preceding_node(const NodeId& key) const;

  // -- storage ---------------------------------------------------------------

  Storage& storage() { return storage_; }
  const Storage& storage() const { return storage_; }

  /// Stores locally and reports it to the network's store observer. Replication
  /// shares the buffer: no copy per replica.
  void store_local(const NodeId& key, SharedBytes value);
  void store_local(const NodeId& key, Bytes value) {
    store_local(key, shared_bytes(std::move(value)));
  }

  // -- internals exposed for ChordNetwork / tests ----------------------------

  void set_successor_list(std::vector<PeerRef> successors);
  void set_predecessor(std::optional<PeerRef> pred) { predecessor_ = pred; }
  void set_finger(std::size_t i, const PeerRef& peer) { fingers_.set(i, peer); }
  std::optional<NodeId> finger(std::size_t i) const { return fingers_.get(i); }
  FingerTable& finger_table() { return fingers_; }
  const FingerTable& finger_table() const { return fingers_; }
  void mark_alive(bool alive) { alive_ = alive; }

 private:
  void prune_dead_successors();

  ChordNetwork& network_;
  PeerRef self_;

  std::optional<PeerRef> predecessor_;
  std::vector<PeerRef> successors_;  // ordered, nearest first
  std::size_t successor_list_size_;
  FingerTable fingers_;  // run-compressed: ~log2(n) entries, not kIdBits
  std::uint64_t incarnation_ = 0;

  Storage storage_;
  // The small fields share one word at the end of the node.
  std::uint8_t next_finger_ = 0;  // < kIdBits
  bool alive_ = true;
};

}  // namespace emergence::dht
