// Abstract DHT network interface.
//
// The self-emerging protocol needs only a small contract from its substrate:
// key-based lookup, routed application messages, per-node blob storage with
// an exposure observer, and access to the simulation environment. Both the
// Chord implementation (chord_network.hpp) and the Kademlia implementation
// (kademlia.hpp) satisfy it, mirroring how the paper's Overlay Weaver
// toolkit hosts multiple DHT algorithms behind one runtime.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "dht/node_id.hpp"
#include "dht/transport.hpp"
#include "sim/simulator.hpp"

namespace emergence::dht {

/// Outcome of an iterative lookup (shared by all DHT implementations).
struct LookupResult {
  NodeId node;     ///< node responsible for the key
  int hops = 0;    ///< routing hops taken
  bool ok = true;  ///< false when routing failed
};

/// Aggregate lookup statistics, kept by both backends (hop counts feed the
/// micro benchmarks and the perf suite).
struct LookupStats {
  std::uint64_t lookups = 0;
  std::uint64_t total_hops = 0;
  std::uint64_t failures = 0;

  double mean_hops() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(total_hops) /
                              static_cast<double>(lookups);
  }

  void record(const LookupResult& result) {
    ++lookups;
    total_hops += static_cast<std::uint64_t>(result.hops);
    if (!result.ok) ++failures;
  }

  /// Exact merge (integer sums): associative and commutative, so the
  /// executor's per-domain shards fold back in any order bit-identically.
  void merge(const LookupStats& other) {
    lookups += other.lookups;
    total_hops += other.total_hops;
    failures += other.failures;
  }
};

/// Handler for application messages delivered to a node.
using MessageHandler =
    std::function<void(const NodeId& from, const NodeId& to, BytesView payload)>;

/// Observer fired whenever any node stores a value (primary or replica);
/// the experiment layer uses it to track which nodes ever held key material.
using StoreObserver =
    std::function<void(const NodeId& node, const NodeId& key, BytesView value)>;

/// The substrate contract used by the emerge layer.
class Network {
 public:
  virtual ~Network() = default;

  // -- lookup / storage -------------------------------------------------------
  // Payloads travel as SharedBytes so that replication and message fan-out
  // copy reference counts, not buffers; the owning-Bytes overloads below
  // wrap once at the boundary for callers that build a fresh buffer.
  virtual LookupResult lookup(const NodeId& key) = 0;
  virtual bool put(const NodeId& key, SharedBytes value) = 0;
  /// The stored value (possibly a replica), or nullptr when unreachable.
  virtual SharedBytes get(const NodeId& key) = 0;
  /// Removes the key from the responsible node and its reachable replica
  /// set (the same walk get() reads from); returns how many copies were
  /// erased. Copies stranded on nodes the walk cannot reach (e.g. stale
  /// replicas past a partition of joins) may survive until their holder
  /// dies — callers use this for storage hygiene (retiring finished
  /// sessions), not for security guarantees.
  virtual std::size_t erase(const NodeId& key) = 0;

  // -- node-addressed storage (protocol key assignment / retrieval) -----------
  /// True when `node` exists and is alive.
  virtual bool is_alive(const NodeId& node) const = 0;
  /// Stores directly on a specific live node (fires the store observer);
  /// returns false when the node is dead.
  virtual bool store_on(const NodeId& node, const NodeId& key,
                        SharedBytes value) = 0;
  /// Reads a blob from a specific live node's local storage (nullptr when
  /// the node is dead or does not hold the key).
  virtual SharedBytes load_from(const NodeId& node, const NodeId& key) = 0;

  // -- application messaging ---------------------------------------------------
  virtual void set_message_handler(const NodeId& node,
                                   MessageHandler handler) = 0;
  virtual void set_default_message_handler(MessageHandler handler) = 0;
  /// The currently registered default handler (empty when none); a new
  /// registrant can capture it to chain deliveries.
  virtual const MessageHandler& default_message_handler() const = 0;
  /// Point-to-point: lost if the destination is dead at delivery time.
  virtual void send_message(const NodeId& from, const NodeId& to,
                            SharedBytes payload) = 0;
  /// Routed: delivered to whichever node is responsible for `ring_point`
  /// at delivery time.
  virtual void send_message_routed(const NodeId& from, const NodeId& ring_point,
                                   SharedBytes payload) = 0;

  // -- owning-buffer conveniences (wrap once, then share) ----------------------
  bool put(const NodeId& key, Bytes value) {
    return put(key, shared_bytes(std::move(value)));
  }
  bool store_on(const NodeId& node, const NodeId& key, Bytes value) {
    return store_on(node, key, shared_bytes(std::move(value)));
  }
  void send_message(const NodeId& from, const NodeId& to, Bytes payload) {
    send_message(from, to, shared_bytes(std::move(payload)));
  }
  void send_message_routed(const NodeId& from, const NodeId& ring_point,
                           Bytes payload) {
    send_message_routed(from, ring_point, shared_bytes(std::move(payload)));
  }

  // -- exposure tracking --------------------------------------------------------
  virtual void set_store_observer(StoreObserver observer) = 0;
  virtual const StoreObserver& store_observer() const = 0;

  // -- topology mutation (churn driving) ----------------------------------------
  /// Current live members, in backend-defined deterministic order.
  virtual const std::vector<NodeId>& alive_ids() const = 0;
  /// Abrupt failure: local state (storage, in-RAM packages) is lost.
  virtual void kill_node(const NodeId& id) = 0;
  /// Joins a fresh node through a random live bootstrap contact.
  virtual NodeId add_node() = 0;
  /// Rejoins with a specific id (transient outages re-use the old identity).
  virtual NodeId add_node_with_id(const NodeId& id) = 0;

  // -- environment ---------------------------------------------------------------
  virtual std::size_t alive_count() const = 0;
  virtual sim::Simulator& simulator() = 0;
  virtual Rng& rng() = 0;
  /// Worst-case latency of one successful message attempt (the transport's
  /// single-attempt bound L; the protocol's timing contract th > assembly +
  /// 4*L is stated against this, not the retry-inclusive worst case).
  virtual double max_message_latency() const = 0;
  /// The transport model every application message travels through.
  virtual const TransportModel& transport() const = 0;
  /// Exact counters of everything the transport did on this network.
  virtual const TransportStats& transport_stats() const = 0;
};

}  // namespace emergence::dht
