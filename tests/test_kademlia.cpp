// Tests for the Kademlia DHT substrate: XOR metric, k-buckets, iterative
// lookup correctness against a brute-force oracle, storage replication and
// the dht::Network interface contract.
#include <gtest/gtest.h>

#include <memory>

#include "common/error.hpp"
#include "dht/kademlia.hpp"
#include "sim/simulator.hpp"

namespace emergence::dht {
namespace {

NodeId id_from_byte(std::uint8_t msb, std::uint8_t lsb = 0) {
  Bytes raw(kIdBytes, 0);
  raw[0] = msb;
  raw[kIdBytes - 1] = lsb;
  return NodeId::from_bytes(raw);
}

// -- XOR metric ---------------------------------------------------------------

TEST(XorMetric, CloserMeansSmallerXor) {
  const NodeId target = id_from_byte(0x10);
  EXPECT_TRUE(xor_closer(id_from_byte(0x11), id_from_byte(0x30), target));
  EXPECT_FALSE(xor_closer(id_from_byte(0x30), id_from_byte(0x11), target));
}

TEST(XorMetric, SelfIsClosest) {
  const NodeId target = id_from_byte(0x42, 7);
  EXPECT_TRUE(xor_closer(target, id_from_byte(0x42, 8), target));
}

TEST(XorMetric, EqualDistanceIsNotCloser) {
  const NodeId a = id_from_byte(1);
  EXPECT_FALSE(xor_closer(a, a, id_from_byte(9)));
}

TEST(XorMetric, BucketIndexFindsHighestDifferingBit) {
  const NodeId zero = id_from_byte(0);
  EXPECT_EQ(bucket_index(zero, id_from_byte(0, 1)), 0u);
  EXPECT_EQ(bucket_index(zero, id_from_byte(0, 2)), 1u);
  EXPECT_EQ(bucket_index(zero, id_from_byte(0x80)), kIdBits - 1);
}

TEST(XorMetric, BucketIndexIdenticalThrows) {
  const NodeId a = id_from_byte(5);
  EXPECT_THROW(bucket_index(a, a), PreconditionError);
}

// -- node-level k-buckets -------------------------------------------------------

TEST(KademliaNode, ObserveContactFillsBucket) {
  KademliaNode n(id_from_byte(0), kIdBits);
  n.observe_contact(id_from_byte(0, 1), 20);
  n.observe_contact(id_from_byte(0, 1), 20);  // duplicate ignored
  EXPECT_EQ(n.contact_count(), 1u);
}

TEST(KademliaNode, BucketCapacityEnforced) {
  KademliaNode n(id_from_byte(0), kIdBits);
  // All of these land in the same bucket (top bit differs).
  for (std::uint8_t i = 0; i < 10; ++i)
    n.observe_contact(id_from_byte(0x80, i), /*bucket_size=*/4);
  EXPECT_EQ(n.contact_count(), 4u);
}

TEST(KademliaNode, ClosestContactsSortedByXor) {
  KademliaNode n(id_from_byte(0), kIdBits);
  for (std::uint8_t i = 1; i <= 20; ++i) n.observe_contact(id_from_byte(i), 20);
  const auto closest = n.closest_contacts(id_from_byte(7), 3);
  ASSERT_EQ(closest.size(), 3u);
  EXPECT_EQ(closest[0], id_from_byte(7));
  // Every later entry is no closer than the one before.
  for (std::size_t i = 0; i + 1 < closest.size(); ++i)
    EXPECT_FALSE(xor_closer(closest[i + 1], closest[i], id_from_byte(7)));
}

TEST(KademliaNode, DropContactRemoves) {
  KademliaNode n(id_from_byte(0), kIdBits);
  n.observe_contact(id_from_byte(3), 20);
  n.drop_contact(id_from_byte(3));
  EXPECT_EQ(n.contact_count(), 0u);
}

// -- network fixtures --------------------------------------------------------------

/// Independent O(n) oracle: the tests must not validate the iterative
/// lookup against the production LiveRingIndex (a shared bit-convention
/// bug would cancel out), so the expected side stays a plain scan here.
/// The index itself is property-checked against the same kind of scan in
/// tests/test_perf_scale.cpp.
NodeId closest_alive_brute_force(const KademliaNetwork& net,
                                 const NodeId& key) {
  const std::vector<NodeId>& live = net.alive_ids();
  NodeId best = live.front();
  for (const NodeId& id : live) {
    if (xor_closer(id, best, key)) best = id;
  }
  return best;
}

struct KadNet {
  sim::Simulator sim;
  Rng rng{99};
  std::unique_ptr<KademliaNetwork> net;

  explicit KadNet(std::size_t nodes, bool maintenance = false) {
    KademliaConfig config;
    config.run_maintenance = maintenance;
    net = std::make_unique<KademliaNetwork>(sim, rng, config);
    if (nodes > 0) net->bootstrap(nodes);
  }
};

TEST(KademliaLookup, AgreesWithBruteForceOracle) {
  KadNet t(128);
  for (int i = 0; i < 60; ++i) {
    const NodeId key = NodeId::hash_of_text("kk-" + std::to_string(i));
    const LookupResult result = t.net->lookup(key);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.node, closest_alive_brute_force(*t.net, key))
        << "key " << key.short_hex();
  }
}

TEST(KademliaLookup, HopCountIsLogarithmic) {
  KadNet t(512);
  for (int i = 0; i < 80; ++i)
    t.net->lookup(NodeId::hash_of_text("h" + std::to_string(i)));
  EXPECT_LT(t.net->lookup_stats().mean_hops(), 12.0);
}

TEST(KademliaLookup, SingleNodeNetwork) {
  KadNet t(1);
  const LookupResult r = t.net->lookup(NodeId::hash_of_text("x"));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.node, t.net->alive_ids().front());
}

TEST(KademliaLookup, RoutesAroundFailures) {
  KadNet t(128);
  Rng pick(5);
  for (int i = 0; i < 30; ++i) {
    const auto& ids = t.net->alive_ids();
    t.net->kill_node(ids[pick.index(ids.size())]);
  }
  for (int i = 0; i < 40; ++i) {
    const NodeId key = NodeId::hash_of_text("f-" + std::to_string(i));
    const LookupResult result = t.net->lookup(key);
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.node, closest_alive_brute_force(*t.net, key));
  }
}

TEST(KademliaJoin, JoinedNodeBecomesRoutable) {
  KadNet t(64);
  const NodeId fresh = t.net->add_node();
  // A lookup for the new node's own id must find it.
  const LookupResult result = t.net->lookup(fresh);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.node, fresh);
}

TEST(KademliaStorage, PutGetRoundTrip) {
  KadNet t(64);
  const NodeId key = NodeId::hash_of_text("stored");
  ASSERT_TRUE(t.net->put(key, bytes_of("payload")));
  const auto value = t.net->get(key);
  ASSERT_TRUE(value != nullptr);
  EXPECT_EQ(*value, bytes_of("payload"));
}

TEST(KademliaStorage, ReplicatesToClosestNodes) {
  KadNet t(64);
  const NodeId key = NodeId::hash_of_text("replicated");
  ASSERT_TRUE(t.net->put(key, bytes_of("v")));
  std::size_t copies = 0;
  for (const NodeId& id : t.net->alive_ids())
    copies += t.net->node(id)->storage().contains(key) ? 1 : 0;
  EXPECT_EQ(copies, t.net->config().replication_factor);
}

TEST(KademliaStorage, SurvivesOwnerDeathViaReplicas) {
  KadNet t(64);
  const NodeId key = NodeId::hash_of_text("hardy");
  ASSERT_TRUE(t.net->put(key, bytes_of("v")));
  t.net->kill_node(closest_alive_brute_force(*t.net, key));
  const auto value = t.net->get(key);
  ASSERT_TRUE(value != nullptr);
  EXPECT_EQ(*value, bytes_of("v"));
}

TEST(KademliaStorage, RepublishRestoresReplicationFactor) {
  KadNet t(64);
  const NodeId key = NodeId::hash_of_text("repub");
  ASSERT_TRUE(t.net->put(key, bytes_of("v")));
  t.net->kill_node(closest_alive_brute_force(*t.net, key));
  t.net->republish_round();
  std::size_t copies = 0;
  for (const NodeId& id : t.net->alive_ids())
    copies += t.net->node(id)->storage().contains(key) ? 1 : 0;
  EXPECT_GE(copies, t.net->config().replication_factor);
}

TEST(KademliaStorage, StoreObserverFires) {
  KadNet t(32);
  std::size_t observed = 0;
  t.net->set_store_observer(
      [&](const NodeId&, const NodeId&, BytesView) { ++observed; });
  t.net->put(NodeId::hash_of_text("watched"), bytes_of("v"));
  EXPECT_EQ(observed, t.net->config().replication_factor);
}

// -- Network interface contract -----------------------------------------------------

TEST(KademliaInterface, NodeAddressedStorage) {
  KadNet t(16);
  Network& net = *t.net;
  const NodeId node = t.net->alive_ids().front();
  const NodeId key = NodeId::hash_of_text("direct");
  EXPECT_TRUE(net.is_alive(node));
  EXPECT_TRUE(net.store_on(node, key, bytes_of("x")));
  const auto loaded = net.load_from(node, key);
  ASSERT_TRUE(loaded != nullptr);
  EXPECT_EQ(*loaded, bytes_of("x"));

  t.net->kill_node(node);
  EXPECT_FALSE(net.is_alive(node));
  EXPECT_FALSE(net.store_on(node, key, bytes_of("x")));
  EXPECT_EQ(net.load_from(node, key), nullptr);
}

TEST(KademliaInterface, PointToPointMessage) {
  KadNet t(8);
  const NodeId from = t.net->alive_ids()[0];
  const NodeId to = t.net->alive_ids()[1];
  bool delivered = false;
  t.net->set_message_handler([&](const NodeId&, const NodeId& target,
                                 BytesView payload) {
    EXPECT_EQ(target, to);
    EXPECT_EQ(string_of(payload), "hello");
    delivered = true;
  });
  t.net->send_message(from, to, bytes_of("hello"));
  t.sim.run();
  EXPECT_TRUE(delivered);
}

TEST(KademliaInterface, RoutedMessageFollowsResponsibility) {
  KadNet t(64);
  const NodeId ring_point = NodeId::hash_of_text("slot-position");
  const NodeId owner = closest_alive_brute_force(*t.net, ring_point);

  NodeId received_at;
  t.net->set_message_handler(
      [&](const NodeId&, const NodeId& to, BytesView) { received_at = to; });

  // First delivery goes to the current owner.
  t.net->send_message_routed(ring_point, ring_point, bytes_of("p1"));
  t.sim.run();
  EXPECT_EQ(received_at, owner);

  // Kill the owner: the next routed message lands on the new closest node.
  t.net->kill_node(owner);
  const NodeId heir = closest_alive_brute_force(*t.net, ring_point);
  t.net->send_message_routed(ring_point, ring_point, bytes_of("p2"));
  t.sim.run();
  EXPECT_EQ(received_at, heir);
  EXPECT_NE(received_at, owner);
}

}  // namespace
}  // namespace emergence::dht
