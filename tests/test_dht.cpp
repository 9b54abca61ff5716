// Tests for the Chord DHT substrate: identifier arithmetic, ring
// construction, iterative lookup, maintenance under joins/failures,
// replicated storage and the churn driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dht/chord_network.hpp"
#include "dht/churn_driver.hpp"
#include "dht/node_id.hpp"
#include "sim/simulator.hpp"

namespace emergence::dht {
namespace {

NodeId id_from_byte(std::uint8_t msb) {
  Bytes raw(kIdBytes, 0);
  raw[0] = msb;
  return NodeId::from_bytes(raw);
}

// -- NodeId ---------------------------------------------------------------------

TEST(NodeId, HashIsDeterministicAndSized) {
  const NodeId a = NodeId::hash_of_text("node-1");
  const NodeId b = NodeId::hash_of_text("node-1");
  const NodeId c = NodeId::hash_of_text("node-2");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.to_hex().size(), 2 * kIdBytes);
}

TEST(NodeId, HexRoundTrip) {
  const NodeId a = NodeId::hash_of_text("x");
  EXPECT_EQ(NodeId::from_hex(a.to_hex()), a);
}

TEST(NodeId, FromBytesValidatesLength) {
  EXPECT_THROW(NodeId::from_bytes(Bytes(19, 0)), PreconditionError);
  EXPECT_THROW(NodeId::from_bytes(Bytes(21, 0)), PreconditionError);
}

TEST(NodeId, AddPowerOfTwoSmall) {
  const NodeId zero = id_from_byte(0);
  const NodeId one = zero.add_power_of_two(0);
  Bytes expected(kIdBytes, 0);
  expected[kIdBytes - 1] = 1;
  EXPECT_EQ(one, NodeId::from_bytes(expected));
}

TEST(NodeId, AddPowerOfTwoCarryPropagates) {
  Bytes raw(kIdBytes, 0);
  raw[kIdBytes - 1] = 0xff;
  const NodeId id = NodeId::from_bytes(raw);
  const NodeId sum = id.add_power_of_two(0);  // 0xff + 1 = 0x100
  Bytes expected(kIdBytes, 0);
  expected[kIdBytes - 2] = 0x01;
  EXPECT_EQ(sum, NodeId::from_bytes(expected));
}

TEST(NodeId, AddPowerOfTwoWrapsAround) {
  Bytes raw(kIdBytes, 0xff);
  const NodeId max = NodeId::from_bytes(raw);
  const NodeId wrapped = max.add_power_of_two(0);
  EXPECT_EQ(wrapped, id_from_byte(0));
}

TEST(NodeId, AddHighestPower) {
  const NodeId zero = id_from_byte(0);
  const NodeId half = zero.add_power_of_two(kIdBits - 1);
  EXPECT_EQ(half, id_from_byte(0x80));
}

TEST(NodeId, AddPowerOutOfRangeThrows) {
  EXPECT_THROW(id_from_byte(0).add_power_of_two(kIdBits), PreconditionError);
}

TEST(NodeId, DistanceLow64) {
  const NodeId a = id_from_byte(0);
  const NodeId b = a.add_power_of_two(10);
  EXPECT_EQ(a.distance_low64(b), 1024u);
  EXPECT_EQ(b.distance_low64(b), 0u);
}

TEST(NodeId, OpenIntervalNoWrap) {
  const NodeId a = id_from_byte(10), b = id_from_byte(20);
  EXPECT_TRUE(in_open_interval(id_from_byte(15), a, b));
  EXPECT_FALSE(in_open_interval(a, a, b));
  EXPECT_FALSE(in_open_interval(b, a, b));
  EXPECT_FALSE(in_open_interval(id_from_byte(25), a, b));
}

TEST(NodeId, OpenIntervalWraps) {
  const NodeId a = id_from_byte(200), b = id_from_byte(10);
  EXPECT_TRUE(in_open_interval(id_from_byte(250), a, b));
  EXPECT_TRUE(in_open_interval(id_from_byte(5), a, b));
  EXPECT_FALSE(in_open_interval(id_from_byte(100), a, b));
}

TEST(NodeId, OpenIntervalEmptyWhenEqualEndpoints) {
  const NodeId a = id_from_byte(7);
  EXPECT_FALSE(in_open_interval(id_from_byte(7), a, a));
  EXPECT_FALSE(in_open_interval(id_from_byte(8), a, a));
}

TEST(NodeId, HalfOpenIntervalIncludesUpperBound) {
  const NodeId a = id_from_byte(10), b = id_from_byte(20);
  EXPECT_TRUE(in_half_open_interval(b, a, b));
  EXPECT_FALSE(in_half_open_interval(a, a, b));
  EXPECT_TRUE(in_half_open_interval(id_from_byte(20), a, b));
}

TEST(NodeId, HalfOpenIntervalFullRing) {
  // (a, a] is the whole ring: a single node owns every key.
  const NodeId a = id_from_byte(50);
  EXPECT_TRUE(in_half_open_interval(id_from_byte(0), a, a));
  EXPECT_TRUE(in_half_open_interval(id_from_byte(200), a, a));
  EXPECT_TRUE(in_half_open_interval(a, a, a));
}

// The ring order by definition: big-endian bytes, compared one by one.
int byte_order(const NodeId& x, const NodeId& y) {
  const auto& p = x.bytes();
  const auto& q = y.bytes();
  if (std::lexicographical_compare(p.begin(), p.end(), q.begin(), q.end()))
    return -1;
  if (std::lexicographical_compare(q.begin(), q.end(), p.begin(), p.end()))
    return 1;
  return 0;
}

bool byte_open_interval(const NodeId& x, const NodeId& a, const NodeId& b) {
  const int ab = byte_order(a, b);
  if (ab < 0) return byte_order(a, x) < 0 && byte_order(x, b) < 0;
  if (ab > 0) return byte_order(x, a) > 0 || byte_order(x, b) < 0;
  return false;
}

bool byte_half_open_interval(const NodeId& x, const NodeId& a,
                             const NodeId& b) {
  if (byte_order(x, b) == 0) return true;
  if (byte_order(a, b) == 0) return byte_order(x, a) != 0;
  return byte_open_interval(x, a, b);
}

TEST(NodeId, WordOrderMatchesByteOrder) {
  // NodeId compares three big-endian words (bytes 0-7, 8-15, 12-19). Ids
  // that share a random 0-19 byte prefix first differ inside each word in
  // turn, and every ordered triple of three such ids covers a wrapping
  // interval, a == b, x == a and x == b.
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    Rng rng(seed);
    const std::size_t prefix = rng.uniform(0, kIdBytes - 1);
    const Bytes shared = rng.bytes(prefix);
    std::vector<NodeId> ids;
    for (int i = 0; i < 3; ++i) {
      Bytes raw = shared;
      append(raw, rng.bytes(kIdBytes - prefix));
      ids.push_back(NodeId::from_bytes(raw));
    }
    for (const NodeId& x : ids) {
      for (const NodeId& y : ids) {
        const auto order = x <=> y;
        const int sign = order < 0 ? -1 : order > 0 ? 1 : 0;
        ASSERT_EQ(sign, byte_order(x, y)) << "seed " << seed;
        ASSERT_EQ(x == y, byte_order(x, y) == 0) << "seed " << seed;
        for (const NodeId& z : ids) {
          ASSERT_EQ(in_open_interval(x, y, z), byte_open_interval(x, y, z))
              << "seed " << seed;
          ASSERT_EQ(in_half_open_interval(x, y, z),
                    byte_half_open_interval(x, y, z))
              << "seed " << seed;
        }
      }
    }
  }
}

// -- network fixtures --------------------------------------------------------------

struct TestNet {
  sim::Simulator sim;
  Rng rng{12345};
  NetworkConfig config;
  std::unique_ptr<ChordNetwork> net;

  explicit TestNet(std::size_t nodes, bool maintenance = false) {
    config.run_maintenance = maintenance;
    net = std::make_unique<ChordNetwork>(sim, rng, config);
    if (nodes > 0) net->bootstrap(nodes);
  }
};

/// Collects the ring order by walking successors from the lowest id.
std::vector<NodeId> walk_ring(ChordNetwork& net) {
  std::vector<NodeId> ids = net.alive_ids();
  std::sort(ids.begin(), ids.end());
  std::vector<NodeId> walked;
  NodeId cur = ids.front();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    walked.push_back(cur);
    cur = net.node(cur)->successor();
  }
  return walked;
}

TEST(ChordBootstrap, RingIsSortedAndClosed) {
  TestNet t(32);
  std::vector<NodeId> ids = t.net->alive_ids();
  std::sort(ids.begin(), ids.end());
  const std::vector<NodeId> walked = walk_ring(*t.net);
  EXPECT_EQ(walked, ids);
  // Walking n successors returns to the start.
  EXPECT_EQ(t.net->node(walked.back())->successor(), ids.front());
}

TEST(ChordBootstrap, PredecessorsMatchSuccessors) {
  TestNet t(16);
  for (const NodeId& id : t.net->alive_ids()) {
    const NodeId succ = t.net->node(id)->successor();
    ASSERT_TRUE(t.net->node(succ)->predecessor().has_value());
    EXPECT_EQ(*t.net->node(succ)->predecessor(), id);
  }
}

TEST(ChordBootstrap, FingersPointToFirstNodeAtOrAfterStart) {
  TestNet t(24);
  std::vector<NodeId> ids = t.net->alive_ids();
  std::sort(ids.begin(), ids.end());
  const ChordNode* n = t.net->node(ids[3]);
  for (std::size_t p = 0; p < kIdBits; p += 31) {
    const NodeId start = n->id().add_power_of_two(p);
    auto it = std::lower_bound(ids.begin(), ids.end(), start);
    const NodeId expected = it == ids.end() ? ids.front() : *it;
    ASSERT_TRUE(n->finger(p).has_value());
    EXPECT_EQ(*n->finger(p), expected);
  }
}

TEST(ChordLookup, FindsResponsibleNode) {
  TestNet t(64);
  std::vector<NodeId> ids = t.net->alive_ids();
  std::sort(ids.begin(), ids.end());
  for (int i = 0; i < 50; ++i) {
    const NodeId key = NodeId::hash_of_text("key-" + std::to_string(i));
    const LookupResult result = t.net->lookup(key);
    ASSERT_TRUE(result.ok);
    auto it = std::lower_bound(ids.begin(), ids.end(), key);
    const NodeId expected = it == ids.end() ? ids.front() : *it;
    EXPECT_EQ(result.node, expected) << "key " << key.short_hex();
  }
}

TEST(ChordLookup, HopCountIsLogarithmic) {
  TestNet t(256);
  for (int i = 0; i < 100; ++i)
    t.net->lookup(NodeId::hash_of_text("k" + std::to_string(i)));
  // log2(256) = 8; allow headroom but reject linear scans.
  EXPECT_LT(t.net->lookup_stats().mean_hops(), 12.0);
  EXPECT_EQ(t.net->lookup_stats().failures, 0u);
}

TEST(ChordLookup, SingleNodeOwnsEverything) {
  TestNet t(1);
  const LookupResult result = t.net->lookup(NodeId::hash_of_text("any"));
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.node, t.net->alive_ids().front());
}

TEST(ChordJoin, JoinedNodeEntersRing) {
  TestNet t(16);
  const NodeId fresh = t.net->add_node();
  t.net->run_maintenance_round();
  t.net->run_maintenance_round();
  std::vector<NodeId> ids = t.net->alive_ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids.size(), 17u);
  EXPECT_EQ(walk_ring(*t.net), ids);
  EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), fresh));
}

TEST(ChordJoin, JoinTransfersResponsibleKeys) {
  TestNet t(8);
  // Store 50 keys, add a node, check it received what it now owns.
  for (int i = 0; i < 50; ++i) {
    const NodeId key = NodeId::hash_of_text("kv-" + std::to_string(i));
    ASSERT_TRUE(t.net->put(key, bytes_of("v" + std::to_string(i))));
  }
  const NodeId fresh = t.net->add_node();
  t.net->run_maintenance_round();
  const ChordNode* n = t.net->node(fresh);
  for (int i = 0; i < 50; ++i) {
    const NodeId key = NodeId::hash_of_text("kv-" + std::to_string(i));
    if (n->responsible_for(key)) {
      EXPECT_TRUE(n->storage().contains(key))
          << "joined node missing key it owns";
    }
  }
}

TEST(ChordLeave, GracefulLeaveHandsKeysOver) {
  TestNet t(8);
  const NodeId key = NodeId::hash_of_text("precious");
  ASSERT_TRUE(t.net->put(key, bytes_of("data")));
  const LookupResult owner = t.net->lookup(key);
  t.net->remove_node(owner.node);
  t.net->run_maintenance_round();
  const auto value = t.net->get(key);
  ASSERT_TRUE(value != nullptr);
  EXPECT_EQ(*value, bytes_of("data"));
}

TEST(ChordFail, LookupsRouteAroundDeadNodes) {
  TestNet t(64);
  Rng pick(99);
  // Kill 10 random nodes abruptly.
  for (int i = 0; i < 10; ++i) {
    const auto& ids = t.net->alive_ids();
    t.net->kill_node(ids[pick.index(ids.size())]);
  }
  t.net->run_maintenance_round();
  t.net->run_maintenance_round();
  for (int i = 0; i < 30; ++i) {
    const LookupResult r =
        t.net->lookup(NodeId::hash_of_text("q" + std::to_string(i)));
    EXPECT_TRUE(r.ok);
    EXPECT_NE(t.net->live_node(r.node), nullptr);
  }
}

TEST(ChordFail, ReplicationSurvivesPrimaryDeath) {
  TestNet t(32);
  const NodeId key = NodeId::hash_of_text("replicated-key");
  ASSERT_TRUE(t.net->put(key, bytes_of("payload")));
  const LookupResult owner = t.net->lookup(key);
  t.net->kill_node(owner.node);
  t.net->run_maintenance_round();
  const auto value = t.net->get(key);
  ASSERT_TRUE(value != nullptr);
  EXPECT_EQ(*value, bytes_of("payload"));
}

TEST(ChordFail, ReplicaMaintenanceRestoresReplicationFactor) {
  TestNet t(32);
  const NodeId key = NodeId::hash_of_text("refreshed-key");
  ASSERT_TRUE(t.net->put(key, bytes_of("x")));
  const LookupResult owner = t.net->lookup(key);
  t.net->kill_node(owner.node);
  t.net->run_maintenance_round();
  t.net->run_maintenance_round();
  // Count copies across live nodes: should be back to replication_factor.
  std::size_t copies = 0;
  for (const NodeId& id : t.net->alive_ids())
    copies += t.net->node(id)->storage().contains(key) ? 1 : 0;
  EXPECT_GE(copies, t.config.replication_factor);
}

TEST(ChordStorage, PutGetRoundTrip) {
  TestNet t(16);
  const NodeId key = NodeId::hash_of_text("k");
  EXPECT_EQ(t.net->get(key), nullptr);
  ASSERT_TRUE(t.net->put(key, bytes_of("value")));
  const auto v = t.net->get(key);
  ASSERT_TRUE(v != nullptr);
  EXPECT_EQ(*v, bytes_of("value"));
}

TEST(ChordStorage, PutReplicatesToSuccessors) {
  TestNet t(16);
  const NodeId key = NodeId::hash_of_text("fan-out");
  ASSERT_TRUE(t.net->put(key, bytes_of("v")));
  std::size_t copies = 0;
  for (const NodeId& id : t.net->alive_ids())
    copies += t.net->node(id)->storage().contains(key) ? 1 : 0;
  EXPECT_EQ(copies, t.config.replication_factor);
}

TEST(ChordStorage, GetFindsReplicasAfterResponsibilityMigrates) {
  // Regression (ISSUE 3 satellite): put -> kill the primary -> three fresh
  // nodes join between the dead primary's ring position and the surviving
  // replicas. After stabilization the joiners are the first live successors
  // of the key but hold no copy (their join pull ranges exclude it), and
  // the old get() walk of exactly replication_factor nodes ended on them —
  // reporting a miss while both replicas were alive and reachable.
  TestNet t(32);
  const NodeId key = NodeId::hash_of_text("migrating-key");
  ASSERT_TRUE(t.net->put(key, bytes_of("survivor")));

  const LookupResult primary = t.net->lookup(key);
  ASSERT_TRUE(primary.ok);
  const NodeId s1 = t.net->node(primary.node)->successor();
  t.net->kill_node(primary.node);

  // Squeeze three empty nodes into (primary, s1), each strictly after the
  // previous, so no join pull range wraps around to cover the key.
  NodeId lower = primary.node;
  int joined = 0;
  for (int probe = 0; joined < 3 && probe < 200000; ++probe) {
    const NodeId candidate =
        NodeId::hash_of_text("interloper-" + std::to_string(probe));
    if (!in_open_interval(candidate, lower, s1)) continue;
    t.net->add_node_with_id(candidate);
    lower = candidate;
    ++joined;
  }
  ASSERT_EQ(joined, 3);

  // Converge ring pointers WITHOUT replica repair (repair would recopy the
  // value onto the joiners and mask the walk bug).
  for (int round = 0; round < 8; ++round) {
    const std::vector<NodeId> ids = t.net->alive_ids();
    for (const NodeId& id : ids) {
      ChordNode* n = t.net->live_node(id);
      if (n == nullptr) continue;
      n->stabilize();
      n->check_predecessor();
    }
  }
  for (const NodeId& id : t.net->alive_ids()) {
    ChordNode* n = t.net->live_node(id);
    if (n != nullptr) n->fix_all_fingers();
  }

  // The responsible node is now an empty interloper...
  const LookupResult migrated = t.net->lookup(key);
  ASSERT_TRUE(migrated.ok);
  EXPECT_NE(migrated.node, primary.node);
  EXPECT_FALSE(t.net->node(migrated.node)->storage().contains(key));
  // ...while the original replicas survive downstream.
  std::size_t copies = 0;
  for (const NodeId& id : t.net->alive_ids())
    copies += t.net->node(id)->storage().contains(key) ? 1 : 0;
  ASSERT_GE(copies, 2u);

  const auto value = t.net->get(key);
  ASSERT_TRUE(value != nullptr);
  EXPECT_EQ(*value, bytes_of("survivor"));
}

TEST(ChordStorage, GetRoutesPastAnExhaustedSuccessorList) {
  // Corner of the same walk: a fresh joiner J becomes responsible for the
  // key, but its only successor-list entry (the first replica holder) dies
  // before J re-stabilizes, so J's successor() degenerates to J itself.
  // The walk must route one step past J instead of giving up while the
  // second replica is alive one hop further down the ring.
  TestNet t(32);
  const NodeId key = NodeId::hash_of_text("exhausted-list-key");
  ASSERT_TRUE(t.net->put(key, bytes_of("still-here")));

  const LookupResult primary = t.net->lookup(key);
  ASSERT_TRUE(primary.ok);
  ChordNode* p = t.net->node(primary.node);
  const NodeId s1 = p->successor();
  const NodeId x = *p->predecessor();
  t.net->kill_node(primary.node);

  // J joins in (primary, s1): its successor list is exactly [s1].
  NodeId j{};
  bool joined = false;
  for (int probe = 0; !joined && probe < 200000; ++probe) {
    const NodeId candidate =
        NodeId::hash_of_text("lonely-" + std::to_string(probe));
    if (!in_open_interval(candidate, primary.node, s1)) continue;
    j = t.net->add_node_with_id(candidate);
    joined = true;
  }
  ASSERT_TRUE(joined);

  // The key's live predecessor adopts J (one stabilize round), then J's
  // only successor dies before J ever stabilizes.
  t.net->live_node(x)->stabilize();
  t.net->kill_node(s1);

  const LookupResult migrated = t.net->lookup(key);
  ASSERT_TRUE(migrated.ok);
  ASSERT_EQ(migrated.node, j);
  EXPECT_FALSE(t.net->node(j)->storage().contains(key));
  EXPECT_EQ(t.net->node(j)->successor(), j);  // list exhausted

  const auto value = t.net->get(key);
  ASSERT_TRUE(value != nullptr);
  EXPECT_EQ(*value, bytes_of("still-here"));
}

TEST(ChordStorage, StoreObserverFires) {
  TestNet t(8);
  std::size_t observed = 0;
  t.net->set_store_observer(
      [&](const NodeId&, const NodeId&, BytesView) { ++observed; });
  t.net->put(NodeId::hash_of_text("watched"), bytes_of("v"));
  EXPECT_EQ(observed, t.config.replication_factor);
}

TEST(ChordMessaging, MessageDeliveredWithLatency) {
  TestNet t(4);
  const NodeId from = t.net->alive_ids()[0];
  const NodeId to = t.net->alive_ids()[1];
  bool delivered = false;
  t.net->set_message_handler([&](const NodeId& f, const NodeId& target,
                                 BytesView payload) {
    EXPECT_EQ(f, from);
    EXPECT_EQ(target, to);
    EXPECT_EQ(string_of(payload), "ping");
    delivered = true;
  });
  t.net->send_message(from, to, bytes_of("ping"));
  EXPECT_FALSE(delivered);  // in flight
  t.sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_GT(t.sim.now(), 0.0);
  EXPECT_LE(t.sim.now(), t.net->max_message_latency());
}

TEST(ChordMessaging, RoutedMessageFollowsResponsibility) {
  TestNet t(64);
  const NodeId ring_point = NodeId::hash_of_text("slot-position");
  const LookupResult initial = t.net->lookup(ring_point);
  ASSERT_TRUE(initial.ok);

  NodeId received_at;
  t.net->set_message_handler(
      [&](const NodeId&, const NodeId& to, BytesView) { received_at = to; });

  t.net->send_message_routed(ring_point, ring_point, bytes_of("p1"));
  t.sim.run();
  EXPECT_EQ(received_at, initial.node);

  // Kill the owner: the routed message re-resolves to the successor.
  t.net->kill_node(initial.node);
  t.net->run_maintenance_round();
  t.net->send_message_routed(ring_point, ring_point, bytes_of("p2"));
  t.sim.run();
  EXPECT_NE(received_at, initial.node);
  EXPECT_NE(t.net->live_node(received_at), nullptr);
}

TEST(ChordMessaging, MessageToDeadNodeIsLost) {
  TestNet t(4);
  const NodeId from = t.net->alive_ids()[0];
  const NodeId to = t.net->alive_ids()[1];
  bool delivered = false;
  t.net->set_message_handler(
      [&](const NodeId&, const NodeId&, BytesView) { delivered = true; });
  t.net->send_message(from, to, bytes_of("ping"));
  t.net->kill_node(to);  // dies while the message is in flight
  t.sim.run();
  EXPECT_FALSE(delivered);
}

TEST(ChordMaintenance, PeriodicTasksKeepRingCorrectUnderJoins) {
  TestNet t(16, /*maintenance=*/true);
  // Let periodic maintenance run, add nodes mid-flight.
  t.sim.run_until(50.0);
  t.net->add_node();
  t.net->add_node();
  t.sim.run_until(300.0);
  std::vector<NodeId> ids = t.net->alive_ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(walk_ring(*t.net), ids);
}

// -- churn driver -------------------------------------------------------------------

TEST(ChurnDriver, DeathsFollowConfiguredRate) {
  TestNet t(200);
  ChurnConfig config;
  config.mean_lifetime = 100.0;
  config.replace_dead_nodes = true;
  ChurnDriver churn(*t.net, config);
  churn.start();
  t.sim.run_until(100.0);  // one mean lifetime
  churn.stop();
  // Expected deaths ~ population * (1 - e^-1) renewed ~ population * t/λ;
  // with replacement the death process is ~Poisson(n*t/λ) = 200.
  EXPECT_GT(churn.deaths(), 120u);
  EXPECT_LT(churn.deaths(), 300u);
  EXPECT_EQ(churn.replacements(), churn.deaths());
  EXPECT_EQ(t.net->alive_count(), 200u);
}

TEST(ChurnDriver, WithoutReplacementPopulationShrinks) {
  TestNet t(100);
  ChurnConfig config;
  config.mean_lifetime = 50.0;
  config.replace_dead_nodes = false;
  ChurnDriver churn(*t.net, config);
  churn.start();
  t.sim.run_until(25.0);  // half a lifetime: ~39% die
  churn.stop();
  EXPECT_LT(t.net->alive_count(), 90u);
  EXPECT_GT(t.net->alive_count(), 30u);
  EXPECT_EQ(churn.replacements(), 0u);
}

TEST(ChurnDriver, OnDeathObserverSeesReplacement) {
  TestNet t(50);
  ChurnConfig config;
  config.mean_lifetime = 10.0;
  ChurnDriver churn(*t.net, config);
  std::size_t observed = 0;
  churn.on_death = [&](const NodeId& dead, const NodeId* replacement) {
    EXPECT_EQ(t.net->live_node(dead), nullptr);
    EXPECT_NE(replacement, nullptr);
    ++observed;
  };
  churn.start();
  t.sim.run_until(5.0);
  churn.stop();
  EXPECT_EQ(observed, churn.deaths());
  EXPECT_GT(observed, 0u);
}

TEST(ChurnDriver, TransientOutagesComeBack) {
  TestNet t(50);
  ChurnConfig config;
  config.mean_lifetime = 5.0;
  config.transient_fraction = 1.0;  // every outage is transient
  config.mean_downtime = 1.0;
  ChurnDriver churn(*t.net, config);
  churn.start();
  t.sim.run_until(20.0);
  churn.stop();
  t.sim.run();  // drain pending rejoins
  EXPECT_GT(churn.transient_outages(), 0u);
  EXPECT_EQ(churn.deaths(), 0u);
  // Population recovers to (almost) full strength after rejoin events drain.
  EXPECT_GE(t.net->alive_count(), 45u);
}

TEST(ChurnDriver, LookupsStillSucceedUnderChurn) {
  TestNet t(128, /*maintenance=*/true);
  ChurnConfig config;
  config.mean_lifetime = 500.0;
  ChurnDriver churn(*t.net, config);
  churn.start();
  for (int epoch = 1; epoch <= 10; ++epoch) {
    t.sim.run_until(static_cast<double>(epoch) * 20.0);
    t.net->run_maintenance_round();
    const LookupResult r =
        t.net->lookup(NodeId::hash_of_text("live-" + std::to_string(epoch)));
    EXPECT_TRUE(r.ok);
  }
  churn.stop();
}

}  // namespace
}  // namespace emergence::dht
