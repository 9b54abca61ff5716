// The simulated Chord network: owns nodes, runs maintenance, routes
// application messages, and exposes put/get with replication.
//
// The network plays the role Overlay Weaver played for the paper: a test
// harness that can instantiate thousands of node instances in one process.
// RPCs between nodes are direct calls guarded by liveness checks (a dead
// callee behaves like a timeout); application-level messages travel through
// the discrete-event simulator with a configurable latency model so that
// protocol timing (holding periods, release times) is meaningful.
//
// Scale notes (see docs/architecture.md, "Performance model"): nodes live
// in a stable deque arena (one allocation batch, pointers never move, and a
// rejoining id reuses its slot), so every peer reference carries the peer's
// arena handle and routing, maintenance and routed delivery follow handles
// instead of hashing ids; the id map serves only the entry points addressed
// by id. The live set is indexed both by a swap-pop vector (O(1) sampling)
// and a sorted LiveRingIndex (O(log n) ring-successor queries), bootstrap
// wires exact fingers in O(n log^2 n) without per-power binary searches,
// and all stored/sent payloads are shared buffers (see common/bytes.hpp).
#pragma once

#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "dht/chord_node.hpp"
#include "dht/network.hpp"
#include "dht/node_id.hpp"
#include "dht/ring_index.hpp"
#include "sim/simulator.hpp"

namespace emergence::dht {

/// Tuning knobs for the simulated network.
struct NetworkConfig {
  std::size_t successor_list_size = 8;
  std::size_t replication_factor = 3;
  double stabilize_interval = 30.0;          ///< seconds of virtual time
  double replica_repair_interval = 120.0;    ///< seconds of virtual time
  /// Message-level transport (latency law, loss, bounded retries); the
  /// default is ideal(), uniform over [10 ms, 100 ms].
  TransportModel transport;
  bool run_maintenance = true;  ///< schedule periodic stabilization tasks
  /// When false, a joining node copies its successor's finger table instead
  /// of running kIdBits lookups (fix_all_fingers); periodic fix_fingers
  /// converges the copies. Large churned worlds join in O(log n) this way;
  /// default keeps the historical exact-join behavior (and its sampled
  /// outcomes) for the cross-validation sweeps.
  bool exact_join_fingers = true;
};

/// Counters for the periodic maintenance timers (regression-tested: replica
/// repair must fire at replica_repair_interval, not stabilize_interval).
struct MaintenanceStats {
  std::uint64_t stabilize_rounds = 0;
  std::uint64_t repair_rounds = 0;
};

/// The in-process Chord DHT.
class ChordNetwork final : public Network {
 public:
  ChordNetwork(sim::Simulator& simulator, Rng& rng, NetworkConfig config = {});

  // -- topology --------------------------------------------------------------

  /// Creates `count` nodes with ids hash("node-<i>") and wires a correct ring
  /// (sorted successors, exact fingers). Equivalent to letting join/stabilize
  /// converge, but O(n log^2 n); maintenance keeps it correct afterwards.
  void bootstrap(std::size_t count);

  /// Adds one node via the Chord join protocol. Returns its id.
  NodeId add_node() override;
  NodeId add_node_with_id(const NodeId& id) override;

  /// Abrupt failure (data on the node is lost).
  void kill_node(const NodeId& id) override;

  /// Graceful departure (data handed off first).
  void remove_node(const NodeId& id);

  std::size_t alive_count() const override { return alive_ids_.size(); }
  std::size_t total_count() const { return nodes_.size(); }
  const std::vector<NodeId>& alive_ids() const override { return alive_ids_; }
  const LiveRingIndex& live_ring() const { return live_ring_; }

  ChordNode* node(const NodeId& id);
  const ChordNode* node(const NodeId& id) const;
  /// Node if it exists and is alive, else nullptr (RPC liveness guard).
  ChordNode* live_node(const NodeId& id);

  /// Uniformly random live node (entry point for lookups).
  ChordNode& random_live_node();

  // -- lookup / storage ------------------------------------------------------

  /// Iterative lookup from a random live entry point.
  LookupResult lookup(const NodeId& key) override;

  /// Stores `value` on the responsible node and its replicas (all replicas
  /// share one buffer).
  bool put(const NodeId& key, SharedBytes value) override;
  using Network::put;

  /// Fetches from the responsible node, falling back to replicas.
  SharedBytes get(const NodeId& key) override;
  std::size_t erase(const NodeId& key) override;

  // -- node-addressed storage --------------------------------------------------

  bool is_alive(const NodeId& id) const override {
    const ChordNode* n = node(id);
    return n != nullptr && n->alive();
  }
  bool store_on(const NodeId& id, const NodeId& key,
                SharedBytes value) override;
  using Network::store_on;
  SharedBytes load_from(const NodeId& id, const NodeId& key) override;

  // -- application messaging -------------------------------------------------

  /// Registers the handler invoked when messages arrive at `node_id`.
  void set_message_handler(const NodeId& node_id,
                           MessageHandler handler) override;

  /// Fallback handler for nodes without a specific one; routed messages to
  /// churn replacements land here.
  void set_default_message_handler(MessageHandler handler) override {
    default_handler_ = std::move(handler);
  }
  const MessageHandler& default_message_handler() const override {
    return default_handler_;
  }

  /// Sends an application payload; it is delivered after a sampled latency
  /// if (and only if) the destination is alive at delivery time.
  void send_message(const NodeId& from, const NodeId& to,
                    SharedBytes payload) override;
  using Network::send_message;

  /// Sends a payload to *whichever node is responsible for `ring_point` at
  /// delivery time* (a fresh lookup runs then). This is how the protocol
  /// layer addresses holders: a holder that died re-resolves to its
  /// successor, exactly like a DHT put/get would.
  void send_message_routed(const NodeId& from, const NodeId& ring_point,
                           SharedBytes payload) override;
  using Network::send_message_routed;

  /// Observer for every local store (see StoreObserver).
  void set_store_observer(StoreObserver observer) override {
    store_observer_ = std::move(observer);
  }
  const StoreObserver& store_observer() const override {
    return store_observer_;
  }

  // -- environment -----------------------------------------------------------

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
  const NetworkConfig& config() const { return config_; }
  LookupStats& lookup_stats() { return lookup_stats_; }
  const MaintenanceStats& maintenance_stats() const {
    return maintenance_stats_;
  }

  /// Runs one maintenance round on every live node right now (tests use this
  /// instead of waiting for periodic timers).
  void run_maintenance_round();

 private:
  /// lookup() with the responsible peer's handle: what put, get, erase and
  /// routed delivery act on.
  ChordLookup route(const NodeId& key);
  void schedule_maintenance(ChordNode& node);
  void schedule_stabilize_in(double delay, ChordNode& node);
  void schedule_repair_in(double delay, ChordNode& node);
  NodeId fresh_node_id();
  ChordNode& allocate_node(const NodeId& id);
  void register_alive(ChordNode& node);
  void unregister_alive(const ChordNode& node);
  /// The replica walk's step after live node `t`: its first live
  /// successor, or the true ring successor when its list is exhausted;
  /// null when `t` is alone.
  ChordNode* next_replica_candidate(ChordNode& t);
  /// Hands `payload` to `to`'s handler, else the default handler.
  void deliver(const NodeId& from, const NodeId& to, BytesView payload);

  sim::Simulator& simulator_;
  Rng& rng_;
  NetworkConfig config_;
  TransportStats transport_stats_;
  obs::TraceShard* trace_shard_ = nullptr;

  /// Node arena: stable addresses, no per-node unique_ptr allocation, dead
  /// nodes stay (peers probe their liveness, exactly as before).
  std::deque<ChordNode> arena_;
  /// Id -> arena slot, for the entry points addressed by id only.
  std::unordered_map<NodeId, ChordNode*, NodeIdHash> nodes_;
  std::vector<NodeId> alive_ids_;
  std::vector<ChordNode*> alive_nodes_;  // lockstep with alive_ids_
  std::unordered_map<NodeId, std::size_t, NodeIdHash> alive_index_;
  LiveRingIndex live_ring_;
  std::unordered_map<NodeId, MessageHandler, NodeIdHash> handlers_;
  MessageHandler default_handler_;
  StoreObserver store_observer_;
  LookupStats lookup_stats_;
  MaintenanceStats maintenance_stats_;
  /// The simulator lanes the two maintenance timers re-arm on.
  sim::Simulator::Lane stabilize_lane_{};
  sim::Simulator::Lane repair_lane_{};
  std::uint64_t node_counter_ = 0;
};

}  // namespace emergence::dht
