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
// algorithms behind one runtime; this class plays that role for the
// dht::Network interface so the timed-release protocol runs unchanged over
// Chord or Kademlia (see tests/test_protocol.cpp).
#pragma once

#include <deque>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "dht/network.hpp"
#include "dht/node_id.hpp"
#include "dht/ring_index.hpp"
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
class KademliaNetwork final : public Network {
 public:
  KademliaNetwork(sim::Simulator& simulator, Rng& rng,
                  KademliaConfig config = {});

  /// Creates `count` nodes and wires populated k-buckets in
  /// O(n * bits * (log n + k)) via prefix ranges over the sorted id list.
  void bootstrap(std::size_t count);

  /// Joins one node through a random live bootstrap contact.
  NodeId add_node() override;

  /// Rejoins with a specific id (transient churn outages; parity with
  /// ChordNetwork so the churn driver runs over either backend).
  NodeId add_node_with_id(const NodeId& id) override;

  /// Abrupt failure.
  void kill_node(const NodeId& id) override;

  KademliaNode* node(const NodeId& id);
  const KademliaNode* node(const NodeId& id) const;
  KademliaNode* live_node(const NodeId& id);

  /// True closest live node to `key`, answered by the sorted live index in
  /// O(bits * log n) (replaces the old O(live) brute-force oracle scan).
  NodeId closest_alive(const NodeId& key) const;

  // -- Network interface -------------------------------------------------------
  LookupResult lookup(const NodeId& key) override;
  bool put(const NodeId& key, SharedBytes value) override;
  using Network::put;
  SharedBytes get(const NodeId& key) override;
  std::size_t erase(const NodeId& key) override;
  bool is_alive(const NodeId& id) const override;
  bool store_on(const NodeId& id, const NodeId& key,
                SharedBytes value) override;
  using Network::store_on;
  SharedBytes load_from(const NodeId& id, const NodeId& key) override;
  void set_message_handler(const NodeId& node, MessageHandler handler) override;
  void set_default_message_handler(MessageHandler handler) override {
    default_handler_ = std::move(handler);
  }
  const MessageHandler& default_message_handler() const override {
    return default_handler_;
  }
  void send_message(const NodeId& from, const NodeId& to,
                    SharedBytes payload) override;
  using Network::send_message;
  void send_message_routed(const NodeId& from, const NodeId& ring_point,
                           SharedBytes payload) override;
  using Network::send_message_routed;
  void set_store_observer(StoreObserver observer) override {
    store_observer_ = std::move(observer);
  }
  const StoreObserver& store_observer() const override {
    return store_observer_;
  }
  std::size_t alive_count() const override { return alive_ids_.size(); }
  sim::Simulator& simulator() override { return simulator_; }
  Rng& rng() override { return rng_; }
  double max_message_latency() const override {
    return config_.transport.max_single_latency();
  }
  const TransportModel& transport() const override {
    return config_.transport;
  }
  const TransportStats& transport_stats() const override {
    return transport_stats_;
  }
  /// Serial trace shard (null = tracing off). Parallel runs override it
  /// per-domain via ExecutionContext::trace, same as the stats shards.
  void set_trace_shard(obs::TraceShard* shard) { trace_shard_ = shard; }

  const std::vector<NodeId>& alive_ids() const override { return alive_ids_; }
  const LiveRingIndex& live_ring() const { return live_ring_; }
  const KademliaConfig& config() const { return config_; }
  LookupStats& lookup_stats() { return lookup_stats_; }
  std::uint64_t lookup_count() const { return lookup_stats_.lookups; }
  double mean_lookup_hops() const { return lookup_stats_.mean_hops(); }

  /// Republishes every stored key to its current replica set (replica
  /// repair; scheduled periodically when run_maintenance is on).
  void republish_round();

 private:
  NodeId fresh_node_id();
  KademliaNode& allocate_node(const NodeId& id);
  NodeId join_node(const NodeId& id);
  void register_alive(const NodeId& id);
  void unregister_alive(const NodeId& id);
  void schedule_republish();
  void deliver(const NodeId& from, const NodeId& to, BytesView payload);

  /// Iterative node lookup: the closest live node to `key`, with hop count.
  /// Queried nodes learn the originator (Kademlia's implicit liveness
  /// advertisement), which is what integrates a joining node into the
  /// routing tables around its own id.
  LookupResult iterative_find_from(KademliaNode& origin, const NodeId& key);
  LookupResult iterative_find(const NodeId& key);

  sim::Simulator& simulator_;
  Rng& rng_;
  KademliaConfig config_;
  TransportStats transport_stats_;
  obs::TraceShard* trace_shard_ = nullptr;
  /// Node arena (stable addresses, no per-node allocation churn).
  std::deque<KademliaNode> arena_;
  std::unordered_map<NodeId, KademliaNode*, NodeIdHash> nodes_;
  std::vector<NodeId> alive_ids_;
  std::unordered_map<NodeId, std::size_t, NodeIdHash> alive_index_;
  LiveRingIndex live_ring_;
  std::unordered_map<NodeId, MessageHandler, NodeIdHash> handlers_;
  MessageHandler default_handler_;
  StoreObserver store_observer_;
  LookupStats lookup_stats_;
  std::uint64_t node_counter_ = 0;
};

}  // namespace emergence::dht
