// Kademlia DHT (Maymounkov & Mazieres, IPTPS 2002) as a second substrate.
//
// Nodes and keys share the 160-bit id space; distance is XOR interpreted as
// an unsigned integer. Each node keeps k-buckets -- one per distance prefix
// length -- of up to `bucket_size` contacts. Lookups are iterative: keep a
// shortlist of the closest known contacts, repeatedly query the closest
// unqueried one for *its* closest contacts, stop when no progress is made.
// A key is owned by the closest live node; puts replicate to the
// `replication_factor` closest.
//
// The paper's evaluation ran on Overlay Weaver, which hosts several DHT
// algorithms behind one runtime; dht::Network plays that runtime here, and
// this class supplies only Kademlia's routing, so the timed-release
// protocol runs unchanged over Chord or Kademlia (see
// tests/test_protocol.cpp).
#pragma once

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "dht/node_id.hpp"
#include "dht/node_network.hpp"
#include "dht/storage.hpp"
#include "sim/simulator.hpp"

namespace emergence::dht {

/// XOR distance comparison: true when |a ^ target| < |b ^ target|.
bool xor_closer(const NodeId& a, const NodeId& b, const NodeId& target);

/// Index of the highest bit set in a ^ b (the k-bucket index); 0 for the
/// lowest-order bit. Requires a != b.
std::size_t bucket_index(const NodeId& a, const NodeId& b);

/// Tuning knobs.
struct KademliaConfig {
  std::size_t bucket_size = 20;       ///< Kademlia's k
  std::size_t lookup_parallelism = 3; ///< Kademlia's alpha (shortlist width)
  std::size_t replication_factor = 3;
  /// Message-level transport (see chord_network.hpp NetworkConfig).
  TransportModel transport;
  double republish_interval = 120.0;  ///< replica repair period
  bool run_maintenance = true;
};

/// One Kademlia participant.
class KademliaNode {
 public:
  KademliaNode(NodeId id, std::size_t buckets) : id_(id), buckets_(buckets) {}

  const NodeId& id() const { return id_; }
  bool alive() const { return alive_; }
  void mark_alive(bool alive) { alive_ = alive; }

  /// Restores freshly-constructed state so a dead instance can serve a
  /// rejoin of the same id (arena slots are reused, never destroyed).
  void reset_for_rejoin() {
    alive_ = true;
    for (auto& bucket : buckets_) bucket.clear();
    storage_.clear();
  }

  /// Inserts a contact into its bucket (drops it when the bucket is full,
  /// the classic least-recently-seen policy simplified to reject-new).
  void observe_contact(const NodeId& contact, std::size_t bucket_size);
  /// Removes a contact (after a failed RPC).
  void drop_contact(const NodeId& contact);

  /// Bulk bucket fill used by bootstrap (bucket membership is a set: every
  /// consumer re-sorts by XOR distance, so internal order is irrelevant).
  void seed_bucket(std::size_t index, std::vector<NodeId> contacts) {
    buckets_[index] = std::move(contacts);
  }

  /// The `count` known contacts closest to `target` (plus self).
  std::vector<NodeId> closest_contacts(const NodeId& target,
                                       std::size_t count) const;

  std::size_t contact_count() const;
  Storage& storage() { return storage_; }
  const Storage& storage() const { return storage_; }

 private:
  NodeId id_;
  bool alive_ = true;
  std::vector<std::vector<NodeId>> buckets_;
  Storage storage_;
};

/// The in-process Kademlia DHT.
class KademliaNetwork final : public NodeNetwork<KademliaNode> {
 public:
  KademliaNetwork(sim::Simulator& simulator, Rng& rng,
                  KademliaConfig config = {});

  /// Creates `count` nodes and wires populated k-buckets in
  /// O(n * bits * (log n + k)) via prefix ranges over the sorted id list.
  void bootstrap(std::size_t count) override;

  /// Joins one node through a random live bootstrap contact.
  NodeId add_node() override;

  /// Rejoins with a specific id (transient churn outages; parity with
  /// ChordNetwork so the churn driver runs over either backend).
  NodeId add_node_with_id(const NodeId& id) override;

  /// Abrupt failure.
  void kill_node(const NodeId& id) override;

  /// True closest live node to `key`, answered by the sorted live index in
  /// O(bits * log n) (replaces the old O(live) brute-force oracle scan).
  NodeId closest_alive(const NodeId& key) const;

  LookupResult lookup(const NodeId& key) override;
  bool put(const NodeId& key, SharedBytes value) override;
  using Network::put;
  SharedBytes get(const NodeId& key) override;
  std::size_t erase(const NodeId& key) override;

  const KademliaConfig& config() const { return config_; }

  /// Republishes every stored key to its current replica set (replica
  /// repair; scheduled periodically when run_maintenance is on).
  void republish_round();

 private:
  std::optional<NodeId> live_owner(const NodeId& ring_point) override;
  NodeId join_node(const NodeId& id);
  void schedule_republish();

  /// Iterative node lookup: the closest live node to `key`, with hop count.
  /// Queried nodes learn the originator (Kademlia's implicit liveness
  /// advertisement), which is what integrates a joining node into the
  /// routing tables around its own id.
  LookupResult iterative_find_from(KademliaNode& origin, const NodeId& key);

  KademliaConfig config_;
};

}  // namespace emergence::dht
