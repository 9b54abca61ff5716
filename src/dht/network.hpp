// The DHT substrate shell both backends share.
//
// The self-emerging protocol needs only a small contract from its substrate:
// key-based lookup, routed application messages, per-node blob storage with
// an exposure observer, and access to the simulation environment. Network
// is that contract and, like the paper's Overlay Weaver runtime, the one
// runtime that hosts several DHT algorithms: it owns the simulator, the
// rng, the transport model and its counters, and it implements messaging
// and the store observer once. A backend (ChordNetwork in
// chord_network.hpp, KademliaNetwork in kademlia.hpp) supplies only its
// routing: bootstrap, join and kill, lookup, replica placement and
// maintenance, plus one hook that resolves a ring point to its live owner.
// The node arena and live set the backends share are NodeNetwork
// (node_network.hpp).
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

/// Aggregate lookup statistics, kept by both backends. Fleets sum them
/// into FleetTally::lookups, which the fleet goldens and CI pin.
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
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // -- lookup / storage (the backend's routing) -------------------------------
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
  /// The handler every delivered message reaches (the session dispatcher in
  /// production); replaces the previous one.
  void set_message_handler(MessageHandler handler) {
    handler_ = std::move(handler);
  }
  /// Point-to-point: delivered after a sampled transport latency if (and
  /// only if) the destination is alive at delivery time.
  void send_message(const NodeId& from, const NodeId& to, SharedBytes payload);
  /// Routed: delivered to whichever node is responsible for `ring_point`
  /// at delivery time (a fresh lookup runs then). This is how the protocol
  /// layer addresses holders: a holder that died re-resolves to its heir,
  /// exactly like a DHT put/get would.
  void send_message_routed(const NodeId& from, const NodeId& ring_point,
                           SharedBytes payload);

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
  void set_store_observer(StoreObserver observer) {
    store_observer_ = std::move(observer);
  }
  /// Reports a local store on `node` to the observer; every storage path of
  /// a backend calls this after the write.
  void notify_store(const NodeId& node, const NodeId& key,
                    BytesView value) const {
    if (store_observer_) store_observer_(node, key, value);
  }

  // -- topology mutation (churn driving) ----------------------------------------
  /// Creates `count` nodes and wires converged routing state directly
  /// (cheaper than letting joins and maintenance converge).
  virtual void bootstrap(std::size_t count) = 0;
  /// Current live members, in backend-defined deterministic order.
  virtual const std::vector<NodeId>& alive_ids() const = 0;
  virtual std::size_t alive_count() const = 0;
  /// Abrupt failure: local state (storage, in-RAM packages) is lost.
  virtual void kill_node(const NodeId& id) = 0;
  /// Joins a fresh node through a random live bootstrap contact.
  virtual NodeId add_node() = 0;
  /// Rejoins with a specific id (transient outages re-use the old identity).
  virtual NodeId add_node_with_id(const NodeId& id) = 0;

  // -- environment ---------------------------------------------------------------
  sim::Simulator& simulator() { return simulator_; }
  /// The shared network stream: serial code (bootstrap, joins, churn)
  /// draws from it; session code draws from its own (see seams()).
  Rng& rng() { return rng_; }
  /// Worst-case latency of one successful message attempt (the transport's
  /// single-attempt bound L; the protocol's timing contract th > assembly +
  /// 4*L is stated against this, not the retry-inclusive worst case).
  double max_message_latency() const {
    return transport_.max_single_latency();
  }
  /// The transport model every application message travels through, with
  /// every live node's zone primed.
  const TransportModel& transport() const { return transport_; }
  /// Exact counters of everything the transport did on this network
  /// outside session contexts (sessions count into their domain's shard).
  const TransportStats& transport_stats() const { return transport_stats_; }
  /// Lookups run outside session contexts, likewise.
  const LookupStats& lookup_stats() const { return lookup_stats_; }
  /// Serial trace shard (null = tracing off). Parallel runs override it
  /// per-domain via ExecutionContext::trace, same as the stats shards.
  void set_trace_shard(obs::TraceShard* shard) { trace_shard_ = shard; }

 protected:
  /// Validates `transport` and keeps a copy the backends prime.
  Network(sim::Simulator& simulator, Rng& rng, TransportModel transport);

  /// Where the calling code's draws, counts and spans go. Under an
  /// ExecutionContext active on this network's simulator (a session's
  /// setup or window event), each seam the context sets replaces the
  /// network's own: the session's draw stream, the executing domain's
  /// stats and trace shards. Serial code (maintenance, churn, a bare
  /// network) gets the network's own.
  struct Seams {
    Rng& rng;
    TransportStats& transport_stats;
    LookupStats& lookup_stats;
    obs::TraceShard* trace;
    /// A session context is active. Kademlia's lookups then run read-only:
    /// bucket adaptation would race across domains and make routing tables
    /// depend on the domain count.
    bool in_session;
  };
  Seams seams();

  /// Registers `id` with the transport's zone cache; the backends call it
  /// whenever a node goes live, from serial code only.
  void prime_zone(const NodeId& id) { transport_.prime_zone(id); }

 private:
  /// Routed delivery's one backend hook: the live node responsible for
  /// `ring_point` now, found by a fresh lookup (which draws and counts
  /// like any other); nullopt when routing fails or the owner is dead.
  virtual std::optional<NodeId> live_owner(const NodeId& ring_point) = 0;

  sim::Simulator& simulator_;
  Rng& rng_;
  TransportModel transport_;
  TransportStats transport_stats_;
  LookupStats lookup_stats_;
  obs::TraceShard* trace_shard_ = nullptr;
  MessageHandler handler_;
  StoreObserver store_observer_;
};

}  // namespace emergence::dht
