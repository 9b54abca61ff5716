// The simulated Chord network: Chord's routing over the shared substrate
// shell (network.hpp): bootstrap, join and departure, lookup, put/get/erase
// with replication, periodic maintenance, and the ring-point owner that
// routed messages resolve to.
//
// The network plays the role Overlay Weaver played for the paper: a test
// harness that can instantiate thousands of node instances in one process.
// RPCs between nodes are direct calls guarded by liveness checks (a dead
// callee behaves like a timeout); application-level messages travel through
// the discrete-event simulator with a configurable latency model so that
// protocol timing (holding periods, release times) is meaningful.
//
// Scale notes (see docs/architecture.md, "Performance model"): nodes live
// in NodeNetwork's stable arena, so every peer reference carries the peer's
// arena handle and routing, maintenance and routed delivery follow handles
// instead of hashing ids; the id map serves only the entry points addressed
// by id. Bootstrap wires exact fingers in O(n log^2 n) without per-power
// binary searches, and all stored/sent payloads are shared buffers (see
// common/bytes.hpp).
#pragma once

#include <optional>

#include "common/rng.hpp"
#include "dht/chord_node.hpp"
#include "dht/node_id.hpp"
#include "dht/node_network.hpp"
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
  /// converges the copies. Large churned worlds join in O(log n) this way,
  /// and SessionFleet (service loads and the crossval matrix alike) sets
  /// it false; the default keeps the historical exact join for direct
  /// users of the network.
  bool exact_join_fingers = true;
};

/// Counters for the periodic maintenance timers (regression-tested: replica
/// repair must fire at replica_repair_interval, not stabilize_interval).
struct MaintenanceStats {
  std::uint64_t stabilize_rounds = 0;
  std::uint64_t repair_rounds = 0;
};

/// The in-process Chord DHT.
class ChordNetwork final : public NodeNetwork<ChordNode> {
 public:
  ChordNetwork(sim::Simulator& simulator, Rng& rng, NetworkConfig config = {});

  // -- topology --------------------------------------------------------------

  /// Creates `count` nodes with ids hash("node-<i>") and wires a correct ring
  /// (sorted successors, exact fingers). Equivalent to letting join/stabilize
  /// converge, but O(n log^2 n); maintenance keeps it correct afterwards.
  void bootstrap(std::size_t count) override;

  /// Adds one node via the Chord join protocol. Returns its id.
  NodeId add_node() override;
  NodeId add_node_with_id(const NodeId& id) override;

  /// Abrupt failure (data on the node is lost).
  void kill_node(const NodeId& id) override;

  /// Graceful departure (data handed off first).
  void remove_node(const NodeId& id);

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

  // -- maintenance -----------------------------------------------------------

  const NetworkConfig& config() const { return config_; }
  const MaintenanceStats& maintenance_stats() const {
    return maintenance_stats_;
  }

  /// Runs one maintenance round on every live node right now (tests use this
  /// instead of waiting for periodic timers).
  void run_maintenance_round();

 private:
  std::optional<NodeId> live_owner(const NodeId& ring_point) override;
  /// lookup() with the responsible peer's handle: what put, get, erase and
  /// routed delivery act on.
  ChordLookup route(const NodeId& key);
  void schedule_maintenance(ChordNode& node);
  void schedule_stabilize_in(double delay, ChordNode& node);
  void schedule_repair_in(double delay, ChordNode& node);
  /// The replica walk's step after live node `t`: its first live
  /// successor, or the true ring successor when its list is exhausted;
  /// null when `t` is alone.
  ChordNode* next_replica_candidate(ChordNode& t);

  NetworkConfig config_;
  MaintenanceStats maintenance_stats_;
  /// The simulator lanes the two maintenance timers re-arm on.
  sim::Simulator::Lane stabilize_lane_{};
  sim::Simulator::Lane repair_lane_{};
};

}  // namespace emergence::dht
