// The emerged node daemon: one Chord node + holder engine per process.
//
// NodeDaemon is the wire-world counterpart of the simulator stack. It is
// written against exactly two seams — sim::Clock for time and
// DatagramSocket for I/O — so the SAME class runs
//
//   * in-process on a Simulator + MemoryDatagramHub (deterministic
//     loopback clusters, tests/test_service_loopback.cpp), and
//   * as a real process on a WallClock + UdpSocket (tools/emerged.cpp,
//     the 16-node localhost cluster harness).
//
// What it implements:
//   * a Chord ring over the wire: join via a seed endpoint, periodic
//     stabilize/notify, successor-list maintenance, recursive greedy
//     routing with a hop cap, periodic replica repair of stored keys;
//   * DHT storage (Put/Get/StoreReplica) for pre-assigned layer keys;
//   * the substrate for the protocol core in emerge/protocol.hpp, which
//     TimedReleaseSession runs over the simulated DHT. As a sender, a
//     Submit runs core::plan_sender over directly drawn ring points, Puts
//     the plan's layer keys (acked, with bounded retries), then routes
//     core::launch_packages. As a holder, arriving packages go through
//     core::HolderSlot::assemble; after the assembly delay core::peel
//     reads a pre-assigned key from this node's store, and at
//     core::hold_until (ts + c*th, or tr) the holder routes
//     core::forward_packages or sends the secret to the receiver. What
//     stays here is only the substrate: routing, storage, the clock,
//     counters and traces;
//   * bounded holder state: a session's slots are erased one holding
//     period after its tr (one timer per session), later packages for it
//     are dropped and counted, and a submit job is forgotten once its
//     column-1 packages have launched.
//
// Single-threaded by construction: every entry point runs from the owning
// event pump (clock events or socket handler), so there are no locks.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "api/api.hpp"
#include "common/options.hpp"
#include "crypto/drbg.hpp"
#include "service/datagram.hpp"
#include "service/wire.hpp"
#include "sim/clock.hpp"

namespace emergence::obs {
class MetricsRegistry;
class TraceShard;
}  // namespace emergence::obs

namespace emergence::service {

struct DaemonConfig {
  Endpoint listen;               ///< required
  std::optional<Endpoint> seed;  ///< join via this daemon; nullopt = create
  /// Ring identity = hash of `name`, or of listen's "ip:port" when empty —
  /// deterministic, so a cluster script can predict the ring layout.
  std::string name;
  std::size_t successor_list = 8;
  std::size_t replicas = 3;           ///< copies of every stored key
  double stabilize_interval = 1.0;    ///< seconds
  double repair_interval = 4.0;       ///< seconds
  double request_timeout = 0.25;      ///< per attempt
  std::size_t request_retries = 4;    ///< attempts - 1
  std::uint8_t max_hops = 32;         ///< routed-message hop cap
  std::uint64_t rng_seed = 1;         ///< request tokens + submit DRBG forks
};

/// Registers every DaemonConfig knob on `table` — the daemon's --help and
/// flag parsing both come from this one surface (shared OptionTable
/// machinery with the scenario override grammar).
void add_daemon_options(OptionTable& table, DaemonConfig& config);

/// Counters beyond WireStats, exposed for tests and the status tool.
struct DaemonReport {
  std::uint64_t packages_sent = 0;
  std::uint64_t packages_received = 0;
  std::uint64_t holders_stuck = 0;   ///< key lost / shares short / bad crypto
  std::uint64_t deliveries = 0;      ///< Deliver frames sent at tr
  std::uint64_t submits_accepted = 0;
  std::uint64_t submits_rejected = 0;
  std::uint64_t keys_put = 0;        ///< layer-key puts acknowledged
  std::uint64_t put_failures = 0;    ///< puts that exhausted their retries
  /// Packages dropped because their session was already one holding
  /// period past tr (late or replayed copies; no slot is recreated).
  std::uint64_t packages_expired = 0;
};

class NodeDaemon {
 public:
  /// `clock` and `socket` must outlive the daemon. Construction installs
  /// the receive handler; call start() to create/join the ring.
  NodeDaemon(sim::Clock& clock, DatagramSocket& socket, DaemonConfig config);

  void start();

  // -- observation ------------------------------------------------------------
  const Peer& self() const { return self_; }
  bool joined() const { return joined_; }
  bool has_predecessor() const { return predecessor_.has_value(); }
  const std::optional<Peer>& predecessor() const { return predecessor_; }
  const std::vector<Peer>& successors() const { return successors_; }
  const WireStats& stats() const { return stats_; }
  const DaemonReport& report() const { return report_; }
  std::size_t store_size() const { return store_.size(); }
  std::size_t holder_slot_count() const { return slots_.size(); }
  /// The same snapshot a StatusReply carries, for in-process assertions.
  StatusReply local_status() const;
  /// EmergeEvents delivered TO this daemon (when it is a receiver).
  const std::vector<api::EmergeEvent>& received_events() const {
    return received_events_;
  }

  // -- observability ----------------------------------------------------------
  /// Publishes every daemon counter (wire stats, report, store/ring gauges)
  /// onto `registry` — the one snapshot both the MetricsRequest wire answer
  /// and the periodic Prometheus text dump are built from.
  void publish_metrics(obs::MetricsRegistry& registry) const;
  /// Installs a trace shard (null = tracing off) receiving wall-clock
  /// package/slot/deliver/submit events, sampled per session nonce.
  void set_trace(obs::TraceShard* trace) { trace_ = trace; }

 private:
  using SlotKey = std::tuple<std::uint64_t, std::uint16_t, std::uint16_t>;

  struct PendingRequest {
    WireMessage message;
    Endpoint to;
    std::size_t retries_left = 0;
    sim::EventId timer = 0;
    std::function<void(const WireMessage&)> on_reply;
    std::function<void()> on_fail;
    /// Recomputes the target before a resend (routed requests re-resolve
    /// the next hop; direct requests keep their endpoint). May be null.
    std::function<Endpoint()> retarget;
  };

  /// A holder slot on this node: the core's assembly state plus what the
  /// wire needs to act on it (the session travels with its packages).
  struct WireSlot {
    SessionMeta meta;  ///< from the slot's first package
    dht::NodeId ring_point;
    core::HolderSlot assembly;
  };

  /// One in-flight Submit this daemon is executing as the sender, until
  /// its layer-key puts settle and column 1 launches.
  struct SubmitJob {
    SessionMeta meta;
    Bytes onion;
    std::vector<dht::NodeId> launch_points;  ///< column-1 ring points
    std::size_t pending_puts = 0;
  };

  // -- pump -------------------------------------------------------------------
  void handle_datagram(BytesView datagram);
  void send_message(const Endpoint& to, const WireMessage& message);

  // -- request/response -------------------------------------------------------
  std::uint64_t next_token();
  void send_request(WireMessage message, Endpoint to,
                    std::function<void(const WireMessage&)> on_reply,
                    std::function<void()> on_fail,
                    std::function<Endpoint()> retarget = nullptr);
  void arm_request_timer(std::uint64_t token);
  bool complete_request(std::uint64_t token, const WireMessage& reply);

  // -- chord ------------------------------------------------------------------
  bool alone() const;
  bool responsible_for(const dht::NodeId& key) const;
  /// The peer a routed message for `key` should go to next; nullopt when
  /// this node is responsible (or knows no one else yet).
  std::optional<Peer> route_next_hop(const dht::NodeId& key) const;
  void stabilize();
  void schedule_stabilize();
  void drop_successor_head();
  void adopt_successors(const Peer& head, const std::vector<Peer>& rest);
  void repair_replicas();
  void schedule_repair();

  // -- storage ----------------------------------------------------------------
  void store_local(const dht::NodeId& key, Bytes value);
  void replicate(const dht::NodeId& key, const Bytes& value);

  // -- holder engine ----------------------------------------------------------
  void accept_package(Package&& pkg);
  void route_package(Package&& pkg);
  /// Routes protocol packages of the session `meta` describes.
  void send_packages(const SessionMeta& meta,
                     std::vector<core::OutgoingPackage> packages);
  void process_slot(const SlotKey& key);
  void expire_slots(std::uint64_t nonce);
  void deliver(const SessionMeta& meta, const Bytes& secret);

  // -- sender engine ----------------------------------------------------------
  void handle_submit(Submit&& msg);
  void put_layer_key(std::uint64_t nonce, const dht::NodeId& storage_key,
                     Bytes value);
  void put_settled(std::uint64_t nonce);

  // -- message handlers -------------------------------------------------------
  void on_ping(const Ping& m);
  void on_find_successor(FindSuccessor&& m);
  void on_get_predecessor(const GetPredecessor& m);
  void on_notify(const Notify& m);
  void on_put(Put&& m);
  void on_get(Get&& m);
  void on_store_replica(StoreReplica&& m);
  void on_deliver(const Deliver& m);
  void on_status(const Status& m);
  void on_metrics(const MetricsRequest& m);

  /// Records one instant event onto the trace shard when the session nonce
  /// is sampled (no-op with tracing off).
  void trace_session_event(const char* name, std::uint64_t nonce,
                           std::vector<std::pair<std::string, std::string>>
                               args = {});

  sim::Clock& clock_;
  DatagramSocket& socket_;
  DaemonConfig config_;
  Peer self_;
  crypto::Drbg drbg_;

  bool joined_ = false;
  std::optional<Peer> predecessor_;
  /// successors_[0] == self_ means "alone" (Chord's create() state).
  std::vector<Peer> successors_;

  std::map<std::uint64_t, PendingRequest> pending_;
  std::map<dht::NodeId, Bytes> store_;
  std::map<SlotKey, WireSlot> slots_;
  /// Sessions with slots here, each with its one expiry timer armed.
  std::set<std::uint64_t> slot_sessions_;
  std::map<std::uint64_t, SubmitJob> jobs_;
  std::vector<api::EmergeEvent> received_events_;

  WireStats stats_;
  DaemonReport report_;
  obs::TraceShard* trace_ = nullptr;
};

}  // namespace emergence::service
