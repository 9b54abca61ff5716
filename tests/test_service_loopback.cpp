// The service stack without processes or real sockets: NodeDaemon +
// WireClient on a Simulator clock and a MemoryDatagramHub transport. The
// SAME classes tools/emerged.cpp runs on a WallClock + UdpSocket execute
// here deterministically — ring bootstrap, timed release over the wire,
// and the garbage-tolerance contract are all asserted in virtual time.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/datagram.hpp"
#include "sim/simulator.hpp"

namespace emergence::service {
namespace {

constexpr std::uint32_t kLoopbackIp = 0x7F000001;

Endpoint node_endpoint(std::size_t index) {
  return Endpoint{kLoopbackIp, static_cast<std::uint16_t>(9000 + index)};
}

/// N daemons on one in-process hub: node 0 creates the ring, the rest join
/// through it — the exact bootstrap tools/cluster.sh performs over UDP.
struct Cluster {
  sim::Simulator sim;
  MemoryDatagramHub hub{sim, 0.0005};
  struct Node {
    std::unique_ptr<DatagramSocket> socket;
    std::unique_ptr<NodeDaemon> daemon;
  };
  std::vector<Node> nodes;

  explicit Cluster(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      DaemonConfig config;
      config.listen = node_endpoint(i);
      if (i != 0) config.seed = node_endpoint(0);
      config.name = "node-" + std::to_string(i);
      config.rng_seed = 1000 + i;
      config.stabilize_interval = 0.25;
      config.repair_interval = 1.0;
      Node node;
      node.socket = hub.bind(config.listen);
      node.daemon =
          std::make_unique<NodeDaemon>(sim, *node.socket, config);
      nodes.push_back(std::move(node));
    }
    for (Node& node : nodes) node.daemon->start();
  }

  NodeDaemon* at(const Endpoint& endpoint) {
    for (Node& node : nodes) {
      if (node.daemon->self().addr == endpoint) return node.daemon.get();
    }
    return nullptr;
  }

  /// Follows successor links from node 0; the ring is converged when the
  /// walk closes after visiting every daemon exactly once.
  std::size_t ring_walk_size() {
    std::set<std::string> seen;
    Endpoint cursor = node_endpoint(0);
    for (std::size_t i = 0; i <= nodes.size(); ++i) {
      NodeDaemon* daemon = at(cursor);
      if (daemon == nullptr) break;
      if (!seen.insert(daemon->self().id.to_hex()).second) break;
      if (daemon->successors().empty()) break;
      cursor = daemon->successors().front().addr;
    }
    return seen.size();
  }

  std::uint64_t total_malformed() const {
    std::uint64_t total = 0;
    for (const Node& node : nodes)
      total += node.daemon->stats().malformed_frames();
    return total;
  }
};

TEST(ServiceLoopback, SixteenNodesConvergeIntoOneRing) {
  Cluster cluster(16);
  cluster.sim.run_until(30.0);

  for (const auto& node : cluster.nodes) {
    EXPECT_TRUE(node.daemon->joined());
    EXPECT_TRUE(node.daemon->has_predecessor());
    ASSERT_FALSE(node.daemon->successors().empty());
    // Nobody is its own successor in a converged multi-node ring.
    EXPECT_NE(node.daemon->successors().front().id, node.daemon->self().id);
  }
  EXPECT_EQ(cluster.ring_walk_size(), 16u);
  EXPECT_EQ(cluster.total_malformed(), 0u);
}

struct LoopbackClient {
  std::unique_ptr<DatagramSocket> socket;
  std::unique_ptr<WireClient> client;

  LoopbackClient(Cluster& cluster, const Endpoint& bind,
                 const Endpoint& daemon = node_endpoint(0)) {
    socket = cluster.hub.bind(bind);
    WireClient::Options options;
    options.daemon = daemon;
    options.resend_interval = 0.5;
    options.submit_timeout = 20.0;
    client = std::make_unique<WireClient>(
        cluster.sim, *socket, options,
        [&cluster]() { return cluster.sim.step(64) > 0; });
  }
};

TEST(ServiceLoopback, SubmitHoldsForwardAndEmergesOnTheWire) {
  Cluster cluster(16);
  cluster.sim.run_until(30.0);
  ASSERT_EQ(cluster.ring_walk_size(), 16u);

  LoopbackClient lc(cluster, Endpoint{kLoopbackIp, 8999});
  api::SubmitRequest request;
  request.message = bytes_of("the loopback secret");
  request.scheme = core::SchemeKind::kJoint;
  request.shape = core::PathShape{2, 3};
  request.emerging_time = 60.0;  // th = 20s per column
  request.assembly_delay = 1.0;

  const api::SubmitReceipt receipt = lc.client->submit(request);
  EXPECT_NE(receipt.session_nonce, 0u);
  EXPECT_DOUBLE_EQ(receipt.release_time, receipt.start_time + 60.0);

  // Nothing may emerge before tr.
  cluster.sim.run_until(receipt.release_time - 1.0);
  EXPECT_FALSE(lc.client->poll(receipt.session_nonce).has_value());

  const auto event = lc.client->await_event(receipt.session_nonce, 30.0);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->session_nonce, receipt.session_nonce);
  EXPECT_EQ(Bytes(event->secret), bytes_of("the loopback secret"));
  EXPECT_GE(event->delivery_time, receipt.release_time);
  EXPECT_LE(event->delivery_time, receipt.release_time + 1.0);

  // The emergence came through real package hops, and nothing was mangled.
  std::uint64_t deliveries = 0, packages = 0, stuck = 0;
  for (const auto& node : cluster.nodes) {
    deliveries += node.daemon->report().deliveries;
    packages += node.daemon->report().packages_received;
    stuck += node.daemon->report().holders_stuck;
  }
  EXPECT_GE(deliveries, 1u);
  // k x l = 6 holder slots, columns 2..3 arrive as k packages each.
  EXPECT_GE(packages, 6u);
  EXPECT_EQ(stuck, 0u);
  EXPECT_EQ(cluster.total_malformed(), 0u);
}

TEST(ServiceLoopback, ShareSchemeEmergesViaShamirReassembly) {
  Cluster cluster(16);
  cluster.sim.run_until(30.0);
  ASSERT_EQ(cluster.ring_walk_size(), 16u);

  LoopbackClient lc(cluster, Endpoint{kLoopbackIp, 8998});
  api::SubmitRequest request;
  request.message = bytes_of("shared loopback secret");
  request.scheme = core::SchemeKind::kShare;
  request.shape = core::PathShape{2, 3};
  request.carriers_n = 3;
  request.threshold_m = 2;
  request.emerging_time = 60.0;
  request.assembly_delay = 1.0;

  const api::SubmitReceipt receipt = lc.client->submit(request);
  const auto event = lc.client->await_event(receipt.session_nonce, 100.0);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(Bytes(event->secret), bytes_of("shared loopback secret"));
  EXPECT_GE(event->delivery_time, receipt.release_time);
  EXPECT_EQ(cluster.total_malformed(), 0u);
}

TEST(ServiceLoopback, RejectsImpossibleSubmitWithDiagnostic) {
  Cluster cluster(4);
  cluster.sim.run_until(15.0);

  LoopbackClient lc(cluster, Endpoint{kLoopbackIp, 8997});
  api::SubmitRequest request;
  request.message = bytes_of("x");
  request.emerging_time = 1.0;  // th = 1/3 s < assembly delay
  request.assembly_delay = 1.0;
  EXPECT_THROW(
      {
        try {
          lc.client->submit(request);
        } catch (const ProtocolError& e) {
          EXPECT_NE(std::string(e.what()).find("holding period"),
                    std::string::npos);
          throw;
        }
      },
      ProtocolError);
}

TEST(ServiceLoopback, DaemonRejectsNonPositiveOrNonFiniteIntervals) {
  // Each of these re-arms a timer at now + value. Zero (or a negative or
  // NaN value) used to be accepted, and the re-arm then landed at or before
  // now, so one instant fired forever: a simulator never advanced, and a
  // WallClock's fire_due() never returned to poll the socket.
  sim::Simulator sim;
  MemoryDatagramHub hub{sim, 0.0005};
  auto socket = hub.bind(node_endpoint(0));
  const double bad_values[] = {0.0, -1.0,
                               std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()};
  for (double DaemonConfig::*field :
       {&DaemonConfig::stabilize_interval, &DaemonConfig::repair_interval,
        &DaemonConfig::request_timeout}) {
    for (const double bad : bad_values) {
      DaemonConfig config;
      config.listen = node_endpoint(0);
      config.*field = bad;
      EXPECT_THROW((NodeDaemon{sim, *socket, config}), PreconditionError)
          << "value " << bad;
    }
  }
  // The defaults stay valid.
  DaemonConfig config;
  config.listen = node_endpoint(0);
  EXPECT_NO_THROW((NodeDaemon{sim, *socket, config}));
}

TEST(ServiceLoopback, DaemonSurvivesGarbageAndCountsEveryClass) {
  Cluster cluster(2);
  cluster.sim.run_until(10.0);

  // A raw hub endpoint lobbing malformed datagrams straight at node 0.
  auto attacker = cluster.hub.bind(Endpoint{kLoopbackIp, 8996});
  const Endpoint target = node_endpoint(0);

  attacker->send_to(target, Bytes{0x00, 0x01, 0x02});            // bad magic
  attacker->send_to(target, Bytes{kWireMagic});                  // truncated
  attacker->send_to(target, Bytes{kWireMagic, kWireVersion + 1,  // bad version
                                  1, 0, 0, 0, 0});
  attacker->send_to(target, Bytes{kWireMagic, kWireVersion,      // bad type
                                  0xEE, 0, 0, 0, 0});
  attacker->send_to(target, Bytes{kWireMagic, kWireVersion,      // bad payload
                                  2, 1, 0, 0, 0, 0xFF});
  cluster.sim.run_until(11.0);

  const WireStats& stats = cluster.nodes[0].daemon->stats();
  EXPECT_EQ(stats.bad_magic, 1u);
  EXPECT_EQ(stats.truncated_frames, 1u);
  EXPECT_EQ(stats.version_mismatch, 1u);
  EXPECT_EQ(stats.unknown_type, 1u);
  EXPECT_EQ(stats.malformed_payload, 1u);
  EXPECT_EQ(stats.malformed_frames(), 5u);

  // The daemon keeps serving: the ring still stabilizes and answers.
  cluster.sim.run_until(20.0);
  EXPECT_EQ(cluster.ring_walk_size(), 2u);
}

TEST(ServiceLoopback, StatusWalkMatchesInProcessState) {
  Cluster cluster(8);
  cluster.sim.run_until(30.0);
  ASSERT_EQ(cluster.ring_walk_size(), 8u);

  LoopbackClient lc(cluster, Endpoint{kLoopbackIp, 8995});
  std::set<std::string> walked;
  Endpoint cursor = node_endpoint(0);
  for (std::size_t i = 0; i < 8; ++i) {
    const StatusReply reply = lc.client->status_of(cursor, 10.0);
    EXPECT_TRUE(reply.has_predecessor);
    EXPECT_EQ(reply.malformed_frames, 0u);
    ASSERT_FALSE(reply.successors.empty());
    walked.insert(reply.self.id.to_hex());
    cursor = reply.successors.front().addr;
  }
  EXPECT_EQ(walked.size(), 8u);
}

TEST(ServiceLoopback, MetricsQueryMatchesInProcessRegistry) {
  Cluster cluster(4);
  cluster.sim.run_until(20.0);
  ASSERT_EQ(cluster.ring_walk_size(), 4u);

  LoopbackClient lc(cluster, Endpoint{kLoopbackIp, 8994});
  for (std::size_t i = 0; i < cluster.nodes.size(); ++i) {
    const Endpoint target = node_endpoint(i);
    const MetricsResponse reply = lc.client->metrics_of(target, 10.0);
    ASSERT_FALSE(reply.entries.empty());

    // The wire snapshot is exactly the in-process registry, flattened —
    // modulo the counters the query itself bumped between the daemon's
    // snapshot and ours, so compare the stable daemon-engine series.
    obs::MetricsRegistry local;
    cluster.at(target)->publish_metrics(local);
    auto value_of = [&reply](const std::string& key) {
      for (const auto& [name, value] : reply.entries) {
        if (name == key) return value;
      }
      ADD_FAILURE() << "missing series " << key;
      return -1.0;
    };
    for (const auto& [key, value] : local.counters()) {
      if (key.rfind("emergence_daemon_", 0) == 0) {
        EXPECT_EQ(value_of(key), static_cast<double>(value)) << key;
      }
    }
    EXPECT_EQ(value_of("emergence_joined"), 1.0);
    EXPECT_GE(value_of("emergence_successors"), 1.0);
  }
}

/// The wire engine pinned counter for counter: a fixed disjoint/joint/share
/// mix submitted through several daemons must keep producing exactly these
/// reports, frame counts, nonces and delivery instants. (The simulator
/// engine is pinned by the fleet fingerprints.)
TEST(ServiceLoopback, WireEngineGoldenMix) {
  Cluster cluster(16);
  cluster.sim.run_until(30.0);
  ASSERT_EQ(cluster.ring_walk_size(), 16u);

  struct Spec {
    core::SchemeKind scheme;
    core::PathShape shape;
    std::size_t carriers_n;
    std::size_t threshold_m;
    std::size_t daemon;
    std::uint64_t nonce;
    double delivery_time;
  };
  const std::vector<Spec> mix = {
      {core::SchemeKind::kDisjoint, {2, 3}, 0, 0, 0, 6634971291707179101ull,
       0x1.680083126e979p+6},
      {core::SchemeKind::kJoint, {2, 3}, 0, 0, 3, 6892802400713117944ull,
       0x1.6e020c49ba5e3p+6},
      {core::SchemeKind::kShare, {2, 3}, 3, 2, 7, 16016386269412679701ull,
       0x1.75010624dd2f2p+6},
      {core::SchemeKind::kShare, {2, 3}, 0, 0, 11, 10111109428685929370ull,
       0x1.7c0083126e979p+6},
      {core::SchemeKind::kJoint, {3, 4}, 0, 0, 0, 3470881784404533690ull,
       0x1.820189374bc6bp+6},
      {core::SchemeKind::kDisjoint, {3, 2}, 0, 0, 5, 15438775547490832549ull,
       0x1.8804189374bc8p+6},
      {core::SchemeKind::kShare, {3, 2}, 5, 3, 14, 5409103279885473270ull,
       0x1.8f010624dd2f2p+6},
  };

  std::vector<std::unique_ptr<LoopbackClient>> clients;
  std::vector<api::SubmitReceipt> receipts;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    clients.push_back(std::make_unique<LoopbackClient>(
        cluster, Endpoint{kLoopbackIp, static_cast<std::uint16_t>(8900 + i)},
        node_endpoint(mix[i].daemon)));
    api::SubmitRequest request;
    request.message = bytes_of("golden secret " + std::to_string(i));
    request.scheme = mix[i].scheme;
    request.shape = mix[i].shape;
    request.carriers_n = mix[i].carriers_n;
    request.threshold_m = mix[i].threshold_m;
    request.emerging_time = 60.0;
    request.assembly_delay = 1.0;
    receipts.push_back(clients[i]->client->submit(request));
    cluster.sim.run_until(cluster.sim.now() + 1.5);
  }
  cluster.sim.run_until(receipts.back().release_time + 30.0);

  for (std::size_t i = 0; i < mix.size(); ++i) {
    EXPECT_EQ(receipts[i].session_nonce, mix[i].nonce) << "session " << i;
    const auto event = clients[i]->client->poll(receipts[i].session_nonce);
    ASSERT_TRUE(event.has_value()) << "session " << i;
    EXPECT_EQ(Bytes(event->secret),
              bytes_of("golden secret " + std::to_string(i)));
    EXPECT_EQ(event->delivery_time, mix[i].delivery_time) << "session " << i;
    EXPECT_EQ(event->delivery_time, receipts[i].release_time);
  }

  DaemonReport sum;
  std::uint64_t frames_sent = 0;
  for (const auto& node : cluster.nodes) {
    const DaemonReport& r = node.daemon->report();
    sum.packages_sent += r.packages_sent;
    sum.packages_received += r.packages_received;
    sum.holders_stuck += r.holders_stuck;
    sum.deliveries += r.deliveries;
    sum.submits_accepted += r.submits_accepted;
    sum.submits_rejected += r.submits_rejected;
    sum.keys_put += r.keys_put;
    sum.put_failures += r.put_failures;
    sum.packages_expired += r.packages_expired;
    frames_sent += node.daemon->stats().frames_sent;
  }
  EXPECT_EQ(sum.packages_sent, 108u);
  EXPECT_EQ(sum.packages_received, 108u);
  EXPECT_EQ(sum.holders_stuck, 0u);
  EXPECT_EQ(sum.deliveries, 17u);
  EXPECT_EQ(sum.submits_accepted, 7u);
  EXPECT_EQ(sum.submits_rejected, 0u);
  EXPECT_EQ(sum.keys_put, 41u);
  EXPECT_EQ(sum.put_failures, 0u);
  EXPECT_EQ(sum.packages_expired, 0u);
  EXPECT_EQ(frames_sent, 33148u);
  EXPECT_EQ(cluster.total_malformed(), 0u);
}

/// Holder state is bounded: one holding period past a session's tr its
/// slots are gone from every daemon, and a replayed package is counted and
/// dropped instead of recreating a slot.
TEST(ServiceLoopback, HolderSlotsExpireAndReplaysAreDropped) {
  Cluster cluster(16);
  cluster.sim.run_until(30.0);
  ASSERT_EQ(cluster.ring_walk_size(), 16u);

  // Capture the first protocol package any daemon sends, for the replay.
  std::optional<std::pair<Endpoint, Bytes>> captured;
  cluster.hub.set_drop_hook(
      [&captured](const Endpoint&, const Endpoint& to, BytesView datagram) {
        WireStats scratch;
        const auto message = decode_frame(datagram, scratch);
        if (!captured.has_value() && message.has_value() &&
            std::holds_alternative<Package>(*message)) {
          captured.emplace(to, Bytes(datagram.begin(), datagram.end()));
        }
        return false;
      });

  LoopbackClient lc(cluster, Endpoint{kLoopbackIp, 8993});
  const core::SchemeKind schemes[] = {core::SchemeKind::kDisjoint,
                                      core::SchemeKind::kJoint,
                                      core::SchemeKind::kShare};
  std::vector<api::SubmitReceipt> receipts;
  for (const core::SchemeKind scheme : schemes) {
    api::SubmitRequest request;
    request.message = bytes_of("bounded secret");
    request.scheme = scheme;
    request.shape = core::PathShape{2, 3};
    request.emerging_time = 60.0;  // th = 20 s
    request.assembly_delay = 1.0;
    receipts.push_back(lc.client->submit(request));
  }

  // Slots exist while the sessions are in flight.
  cluster.sim.run_until(receipts.back().start_time + 30.0);
  std::size_t slots = 0;
  for (const auto& node : cluster.nodes)
    slots += node.daemon->holder_slot_count();
  EXPECT_GT(slots, 0u);

  // One holding period past the last tr, every session emerged and no
  // daemon holds a slot.
  cluster.sim.run_until(receipts.back().release_time + 20.0 + 1.0);
  for (const api::SubmitReceipt& receipt : receipts) {
    const auto event = lc.client->poll(receipt.session_nonce);
    ASSERT_TRUE(event.has_value());
    EXPECT_EQ(Bytes(event->secret), bytes_of("bounded secret"));
  }
  for (const auto& node : cluster.nodes)
    EXPECT_EQ(node.daemon->holder_slot_count(), 0u);

  ASSERT_TRUE(captured.has_value());
  auto attacker = cluster.hub.bind(Endpoint{kLoopbackIp, 8992});
  attacker->send_to(captured->first, captured->second);
  cluster.sim.run_until(cluster.sim.now() + 1.0);
  std::uint64_t expired = 0;
  for (const auto& node : cluster.nodes) {
    expired += node.daemon->report().packages_expired;
    EXPECT_EQ(node.daemon->holder_slot_count(), 0u);
  }
  EXPECT_EQ(expired, 1u);
  EXPECT_EQ(cluster.total_malformed(), 0u);

  // A session that could never expire (non-finite ts) is malformed.
  WireStats scratch;
  auto forged = decode_frame(captured->second, scratch);
  ASSERT_TRUE(forged.has_value());
  std::get<Package>(*forged).meta.start_time =
      std::numeric_limits<double>::quiet_NaN();
  attacker->send_to(captured->first, encode_frame(*forged));
  cluster.sim.run_until(cluster.sim.now() + 1.0);
  for (const auto& node : cluster.nodes)
    EXPECT_EQ(node.daemon->holder_slot_count(), 0u);
  EXPECT_EQ(cluster.total_malformed(), 1u);
}

}  // namespace
}  // namespace emergence::service
