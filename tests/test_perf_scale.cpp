// Tests for the large-N machinery of the simulation core: the sorted
// live-ring index (vs brute-force oracles, under interleaved churn), the
// run-compressed finger table (vs a dense reference model and the naive
// per-power bootstrap construction), the peer handles routing follows
// (consistent with their ids under churn and across a same-id rejoin) and
// the ring they form once transient churn stops,
// O(log n) lookup-hop growth on 1k vs 10k rings, replica-repair timer
// cadence, the simulator lanes maintenance timers fire from, the
// zero-copy payload guarantees of the SharedBytes refactor, and the exact
// work counts of four pinned 1k and 10k worlds on both backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "cloud/cloud_store.hpp"
#include "common/rng.hpp"
#include "dht/chord_network.hpp"
#include "dht/churn_driver.hpp"
#include "dht/finger_table.hpp"
#include "dht/kademlia.hpp"
#include "dht/ring_index.hpp"
#include "emerge/protocol.hpp"
#include "emerge/session_dispatcher.hpp"
#include "sim/simulator.hpp"

namespace emergence::dht {
namespace {

// -- LiveRingIndex vs brute force under interleaved add/kill/remove churn ------

std::optional<NodeId> brute_successor_of(const std::vector<NodeId>& live,
                                         const NodeId& id) {
  bool have_next = false, have_wrap = false;
  NodeId next{}, wrap{};
  for (const NodeId& x : live) {
    if (x == id) continue;
    if (id < x && (!have_next || x < next)) {
      next = x;
      have_next = true;
    }
    if (!have_wrap || x < wrap) {
      wrap = x;
      have_wrap = true;
    }
  }
  if (have_next) return next;
  if (have_wrap) return wrap;
  return std::nullopt;
}

std::optional<NodeId> brute_xor_closest(const std::vector<NodeId>& live,
                                        const NodeId& key) {
  if (live.empty()) return std::nullopt;
  NodeId best = live.front();
  for (const NodeId& x : live) {
    if (xor_closer(x, best, key)) best = x;
  }
  return best;
}

TEST(LiveRingIndex, MatchesBruteForceOraclesUnderChurn) {
  Rng rng(20260731);
  LiveRingIndex index;
  std::vector<NodeId> live;

  for (int op = 0; op < 4000; ++op) {
    const double action = rng.real();
    if (live.empty() || action < 0.45) {
      const NodeId fresh =
          NodeId::hash_of_text("ring-" + std::to_string(op));
      live.push_back(fresh);
      index.insert(fresh);
    } else if (action < 0.75) {
      const std::size_t victim = rng.index(live.size());
      index.erase(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    ASSERT_EQ(index.size(), live.size());

    const NodeId probe =
        rng.chance(0.5) && !live.empty()
            ? live[rng.index(live.size())]
            : NodeId::hash_of_text("probe-" + std::to_string(op));
    EXPECT_EQ(index.successor_of(probe), brute_successor_of(live, probe));
    EXPECT_EQ(index.xor_closest(probe), brute_xor_closest(live, probe));
  }
}

// -- FingerTable vs a dense reference model ------------------------------------

TEST(FingerTable, MatchesDenseReferenceUnderRandomSets) {
  Rng rng(7);
  FingerTable table;
  std::vector<std::optional<NodeId>> dense(kIdBits);
  // Small id pool: forces long shared runs, splits and re-merges. Each id
  // is a real node so that it carries its arena handle.
  sim::Simulator sim;
  Rng net_rng(8);
  NetworkConfig config;
  config.run_maintenance = false;
  ChordNetwork net(sim, net_rng, config);
  std::vector<PeerRef> pool;
  for (int i = 0; i < 5; ++i) {
    const NodeId id = net.add_node_with_id(
        NodeId::hash_of_text("finger-" + std::to_string(i)));
    pool.push_back(net.node(id)->self());
  }

  for (int op = 0; op < 5000; ++op) {
    const std::size_t power = rng.index(kIdBits);
    const PeerRef& peer = pool[rng.index(pool.size())];
    table.set(power, peer);
    dense[power] = peer.id;
    if (op % 97 == 0) {
      for (std::size_t p = 0; p < kIdBits; ++p) {
        ASSERT_EQ(table.get(p), dense[p]) << "power " << p << " op " << op;
      }
      // Overwrites, splits and merges keep each run's handle with its id.
      const auto& runs = table.runs();
      for (const FingerTable::Run& run : runs) {
        ASSERT_EQ(run.node, net.node(run.id)) << "op " << op;
      }
      // Compression invariant: adjacent runs never mergeable.
      for (std::size_t i = 0; i + 1 < runs.size(); ++i) {
        ASSERT_LT(static_cast<int>(runs[i].hi), static_cast<int>(runs[i + 1].lo));
        if (runs[i].hi + 1 == runs[i + 1].lo) {
          ASSERT_NE(runs[i].id, runs[i + 1].id);
        }
      }
    }
  }
}

TEST(FingerTable, RunCountStaysLogarithmicOnBootstrappedRing) {
  sim::Simulator sim;
  Rng rng(11);
  NetworkConfig config;
  config.run_maintenance = false;
  ChordNetwork net(sim, rng, config);
  net.bootstrap(512);
  for (const NodeId& id : net.alive_ids()) {
    // A 512-node ring needs ~log2(512) = 9 distinct fingers; the dense
    // representation stored 160 slots.
    EXPECT_LE(net.node(id)->finger_table().run_count(), 16u);
    EXPECT_GE(net.node(id)->finger_table().run_count(), 2u);
  }
}

// -- bootstrap finger construction vs the naive per-power lower_bound ----------

TEST(ChordBootstrap, FingerRunsMatchNaivePerPowerConstruction) {
  for (std::size_t count : {1u, 2u, 3u, 5u, 17u, 64u, 101u}) {
    sim::Simulator sim;
    Rng rng(3);
    NetworkConfig config;
    config.run_maintenance = false;
    ChordNetwork net(sim, rng, config);
    net.bootstrap(count);

    std::vector<NodeId> ids = net.alive_ids();
    std::sort(ids.begin(), ids.end());
    for (const NodeId& id : ids) {
      const ChordNode* n = net.node(id);
      for (std::size_t p = 0; p < kIdBits; ++p) {
        const NodeId start = id.add_power_of_two(p);
        auto it = std::lower_bound(ids.begin(), ids.end(), start);
        const NodeId expected = it == ids.end() ? ids.front() : *it;
        ASSERT_EQ(n->finger(p), std::optional<NodeId>(expected))
            << "n=" << count << " node " << id.short_hex() << " power " << p;
      }
    }
  }
}

// -- peer handles: each one is the arena slot of the id stored beside it -------

void expect_handles_match_ids(ChordNetwork& net, const char* stage) {
  for (const NodeId& id : net.alive_ids()) {
    const ChordNode* n = net.node(id);
    ASSERT_EQ(n->self().node, n) << stage;
    for (const PeerRef& s : n->successor_list()) {
      ASSERT_EQ(s.node, net.node(s.id))
          << stage << ": successor of " << id.short_hex();
    }
    const std::optional<PeerRef>& pred = n->predecessor_peer();
    if (pred.has_value()) {
      ASSERT_EQ(pred->node, net.node(pred->id))
          << stage << ": predecessor of " << id.short_hex();
    }
    for (const FingerTable::Run& run : n->finger_table().runs()) {
      ASSERT_EQ(run.node, net.node(run.id))
          << stage << ": finger of " << id.short_hex() << " at powers "
          << int(run.lo) << ".." << int(run.hi);
    }
  }
}

TEST(ChordHandles, MatchIdsUnderChurnAndSurviveRejoin) {
  sim::Simulator sim;
  Rng rng(31);
  NetworkConfig config;
  config.stabilize_interval = 10.0;
  config.replica_repair_interval = 40.0;
  config.exact_join_fingers = false;  // joiners copy a neighbour's handles
  ChordNetwork net(sim, rng, config);
  net.bootstrap(128);
  ASSERT_NO_FATAL_FAILURE(expect_handles_match_ids(net, "bootstrap"));

  // A few hundred deaths, each replaced by a fresh join. Lifetimes stay
  // long against the stabilize interval, so the ring keeps up.
  ChurnConfig deaths;
  deaths.mean_lifetime = 2000.0;
  ChurnDriver churn(net, deaths);
  churn.start();
  sim.run_until(5000.0);
  churn.stop();
  EXPECT_GE(churn.deaths(), 250u);
  ASSERT_NO_FATAL_FAILURE(expect_handles_match_ids(net, "churn"));

  net.run_maintenance_round();
  ASSERT_NO_FATAL_FAILURE(expect_handles_match_ids(net, "maintenance"));

  // Kill and rejoin one id before any stabilize runs: the rejoin reuses
  // the same object, so every handle peers still hold is valid again.
  const NodeId victim = net.alive_ids()[17];
  const ChordNode* before = net.node(victim);
  net.kill_node(victim);
  EXPECT_FALSE(before->alive());
  net.add_node_with_id(victim);
  EXPECT_EQ(net.node(victim), before);
  EXPECT_TRUE(before->alive());
  const LookupResult found = net.lookup(victim);
  ASSERT_TRUE(found.ok);
  EXPECT_EQ(found.node, victim);
  ASSERT_NO_FATAL_FAILURE(expect_handles_match_ids(net, "rejoin"));

  // Transient outages: every rejoin reuses its slot while peers still
  // reference it, so its join lookup must route around that dead slot
  // rather than back to the joiner.
  ChurnConfig outages;
  outages.mean_lifetime = 2000.0;
  outages.transient_fraction = 1.0;
  outages.mean_downtime = 30.0;
  ChurnDriver transients(net, outages);
  transients.start();
  sim.run_until(6000.0);
  transients.stop();
  EXPECT_GE(transients.transient_outages(), 30u);
  ASSERT_NO_FATAL_FAILURE(expect_handles_match_ids(net, "transients"));

  // Once the churn stops, stabilization restores the ring: every live
  // node's successor is the next live id, and a lookup of a live id finds
  // that node.
  sim.run_until(6000.0 + 20 * config.stabilize_interval);
  std::vector<NodeId> live = net.alive_ids();
  std::sort(live.begin(), live.end());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(net.node(live[i])->successor(), live[(i + 1) % live.size()])
        << "successor of " << live[i].short_hex();
    const LookupResult hit = net.lookup(live[i]);
    EXPECT_TRUE(hit.ok) << "lookup of " << live[i].short_hex();
    EXPECT_EQ(hit.node, live[i]) << "lookup of " << live[i].short_hex();
  }
}

// -- O(log n) lookup-hop growth ------------------------------------------------

double mean_hops_at(std::size_t population, std::size_t lookups) {
  sim::Simulator sim;
  Rng rng(5);
  NetworkConfig config;
  config.run_maintenance = false;
  ChordNetwork net(sim, rng, config);
  net.bootstrap(population);
  for (std::size_t i = 0; i < lookups; ++i) {
    net.lookup(NodeId::hash_of_text("scale-" + std::to_string(i)));
  }
  EXPECT_EQ(net.lookup_stats().failures, 0u);
  return net.lookup_stats().mean_hops();
}

TEST(ChordScale, MeanLookupHopsGrowLogarithmically) {
  // log2(10000)/log2(1000) = 1.333: hops should grow by roughly that
  // factor, and certainly not by the 10x of a linear scan.
  const double hops_1k = mean_hops_at(1000, 400);
  const double hops_10k = mean_hops_at(10000, 400);
  EXPECT_GT(hops_1k, 3.0);
  EXPECT_GT(hops_10k, hops_1k);  // larger ring, more hops
  EXPECT_LT(hops_10k, hops_1k * 1.333 * 1.25);  // ~O(log n), with slack
}

// -- replica-repair timer cadence ---------------------------------------------

TEST(ChordMaintenance, ReplicaRepairFiresAtItsOwnInterval) {
  // Regression: the repair timer used to be re-armed from the stabilize
  // callback, so repair fired at stabilize_interval cadence (~4x too often
  // under the default 30s/120s intervals). With phases drawn uniformly in
  // [0, interval) and each timer re-arming at its own fixed interval, a
  // node fires repair floor((H - phase)/120) + 1 times by horizon H.
  const std::size_t population = 16;
  const double horizon = 1230.0;
  sim::Simulator sim;
  Rng rng(99);
  NetworkConfig config;
  config.run_maintenance = true;
  config.stabilize_interval = 30.0;
  config.replica_repair_interval = 120.0;
  ChordNetwork net(sim, rng, config);
  net.bootstrap(population);
  sim.run_until(horizon);

  // Per node: repair count is 10 or 11, stabilize count 41 or 42.
  const MaintenanceStats& stats = net.maintenance_stats();
  EXPECT_GE(stats.repair_rounds, population * 10);
  EXPECT_LE(stats.repair_rounds, population * 11);
  EXPECT_GE(stats.stabilize_rounds, population * 41);
  EXPECT_LE(stats.stabilize_rounds, population * 42);
  // The old bug would have produced ~stabilize-rate repairs (>= 39/node).
  EXPECT_LT(stats.repair_rounds, stats.stabilize_rounds / 2);
}

TEST(ChordMaintenance, FastRejoinDoesNotDuplicateMaintenanceChains) {
  // A kill-then-rejoin of the same id that beats the node's pending timers
  // must not leave two concurrent stabilize/repair chains: the rejoin arms
  // fresh timers, and the stale ones see a bumped incarnation and stop.
  const std::size_t population = 8;
  sim::Simulator sim;
  Rng rng(123);
  NetworkConfig config;
  config.run_maintenance = true;
  config.stabilize_interval = 30.0;
  config.replica_repair_interval = 120.0;
  ChordNetwork net(sim, rng, config);
  net.bootstrap(population);

  // Rejoin before virtual time advances: every bootstrap timer is still
  // pending, so without the incarnation guard the victim would end up with
  // doubled chains (~2x stabilize cadence for the whole horizon).
  const NodeId victim = net.alive_ids().front();
  net.kill_node(victim);
  net.add_node_with_id(victim);

  const double horizon = 630.0;
  sim.run_until(horizon);
  // Per live chain: 21 or 22 stabilize firings over 630s. One extra chain
  // would add ~21 more, far past the upper bound.
  const MaintenanceStats& stats = net.maintenance_stats();
  EXPECT_GE(stats.stabilize_rounds, population * 21);
  EXPECT_LE(stats.stabilize_rounds, population * 22);
  EXPECT_GE(stats.repair_rounds, population * 5);
  EXPECT_LE(stats.repair_rounds, population * 6);
}

// -- the event layer: maintenance rides the simulator's lanes -----------------

TEST(ChordMaintenance, EveryRoundFiresFromALaneAndOnlyOtherEventsTakeTheHeap) {
  // Exact counters, not a stopwatch. Bootstrap arms each timer kind in
  // phase order and every re-arm lands at now plus its fixed interval, so
  // in a churn-free world every stabilize and repair round after bootstrap
  // fires from a lane, and the heap holds only the other events.
  const std::size_t population = 10000;
  sim::Simulator sim;
  Rng rng(7);
  NetworkConfig config;
  config.run_maintenance = true;
  config.stabilize_interval = 30.0;
  config.replica_repair_interval = 120.0;
  ChordNetwork net(sim, rng, config);
  net.bootstrap(population);

  constexpr std::size_t kOneShots = 64;
  std::size_t one_shots_fired = 0;
  for (std::size_t i = 0; i < kOneShots; ++i) {
    sim.schedule_at(rng.real() * 120.0, [&one_shots_fired] {
      ++one_shots_fired;
    });
  }
  sim.run_until(135.0);

  const MaintenanceStats& stats = net.maintenance_stats();
  EXPECT_EQ(one_shots_fired, kOneShots);
  EXPECT_GE(stats.stabilize_rounds, population * 4);
  EXPECT_LE(stats.stabilize_rounds, population * 5);
  EXPECT_GE(stats.repair_rounds, population);
  EXPECT_LE(stats.repair_rounds, population * 2);
  EXPECT_EQ(sim.lane_fires(), stats.stabilize_rounds + stats.repair_rounds);
  EXPECT_EQ(sim.executed_events(), sim.lane_fires() + kOneShots);
  EXPECT_LE(sim.max_heap_depth(), kOneShots);
  // Every node still keeps its two timers pending, all of them in lanes.
  EXPECT_EQ(sim.pending(), 2 * population);
  EXPECT_GE(sim.max_queue_depth(), 2 * population);
}

// -- zero-copy payload plumbing ------------------------------------------------

TEST(ZeroCopy, ReplicasShareOneBufferAcrossPutAndRepair) {
  sim::Simulator sim;
  Rng rng(21);
  NetworkConfig config;
  config.run_maintenance = false;
  ChordNetwork net(sim, rng, config);
  net.bootstrap(32);

  const NodeId key = NodeId::hash_of_text("shared-buffer-key");
  SharedBytes value = shared_bytes(bytes_of("zero-copy-payload"));
  const std::uint8_t* raw = value->data();
  ASSERT_TRUE(net.put(key, value));

  std::size_t copies = 0;
  for (const NodeId& id : net.alive_ids()) {
    const SharedBytes stored = net.node(id)->storage().get(key);
    if (stored == nullptr) continue;
    ++copies;
    EXPECT_EQ(stored->data(), raw) << "replica copied instead of sharing";
  }
  EXPECT_EQ(copies, net.config().replication_factor);

  // Repair after the primary dies must still share the original buffer.
  const LookupResult owner = net.lookup(key);
  net.kill_node(owner.node);
  net.run_maintenance_round();
  const SharedBytes after = net.get(key);
  ASSERT_TRUE(after != nullptr);
  EXPECT_EQ(after->data(), raw);
}

TEST(ZeroCopy, MessageDeliveryViewsTheSenderBuffer) {
  sim::Simulator sim;
  Rng rng(22);
  NetworkConfig config;
  config.run_maintenance = false;
  ChordNetwork net(sim, rng, config);
  net.bootstrap(4);

  const NodeId from = net.alive_ids()[0];
  const NodeId to = net.alive_ids()[1];
  SharedBytes payload = shared_bytes(bytes_of("view-not-copy"));
  const std::uint8_t* raw = payload->data();
  bool delivered = false;
  net.set_message_handler([&](const NodeId&, const NodeId& target,
                              BytesView view) {
    EXPECT_EQ(target, to);
    EXPECT_EQ(view.data(), raw);
    delivered = true;
  });
  net.send_message(from, to, payload);
  sim.run();
  EXPECT_TRUE(delivered);
}

TEST(ZeroCopy, StoredHandleSurvivesNodeDeath) {
  sim::Simulator sim;
  Rng rng(23);
  NetworkConfig config;
  config.run_maintenance = false;
  ChordNetwork net(sim, rng, config);
  net.bootstrap(8);

  const NodeId key = NodeId::hash_of_text("survivor-handle");
  ASSERT_TRUE(net.put(key, bytes_of("still-readable")));
  const SharedBytes handle = net.get(key);
  ASSERT_TRUE(handle != nullptr);
  // Kill every node: all storage is cleared, but the handle keeps the
  // buffer alive (immutable sharing, no dangling views).
  const std::vector<NodeId> ids = net.alive_ids();
  for (const NodeId& id : ids) net.kill_node(id);
  EXPECT_EQ(string_of(*handle), "still-readable");
}

// -- four pinned worlds: exact work counts, phase by phase ----------------------

struct PinnedWorld {
  const char* name;
  bool chord;  ///< else Kademlia
  std::size_t population;
  std::uint64_t lookup_hops;  ///< LookupStats::total_hops of the 2000 lookups
  std::uint64_t delivered;    ///< of the 4 sessions
  std::uint64_t churn_deaths;
  std::uint64_t events;       ///< Simulator::executed_events() at the end
};

// gtest prints the parameter into each test's listed name; the name keeps
// it stable (the default byte dump shows the name pointer).
void PrintTo(const PinnedWorld& w, std::ostream* os) { *os << w.name; }

class PinnedWorldCounts : public ::testing::TestWithParam<PinnedWorld> {};

TEST_P(PinnedWorldCounts, MatchTheirPins) {
  // One deterministic world per case through four phases: bootstrap, 2000
  // lookups, 500 puts then gets, and a live phase of maintenance, churn
  // and 4 joint 2x3 sessions through tr. Every count is exact at the
  // pinned seed, so a change to routing, storage, churn or the event
  // schedule of either backend moves one of them.
  const PinnedWorld& w = GetParam();
  constexpr double kHorizon = 600.0;
  sim::Simulator sim;
  Rng rng(0x9e3779b97f4a7c15ULL ^ w.population);

  std::unique_ptr<ChordNetwork> chord;
  std::unique_ptr<KademliaNetwork> kademlia;
  Network* net = nullptr;
  if (w.chord) {
    NetworkConfig config;
    config.run_maintenance = true;
    config.stabilize_interval = 60.0;
    config.replica_repair_interval = 240.0;
    config.exact_join_fingers = false;  // O(log n) joins; fix_fingers converges
    chord = std::make_unique<ChordNetwork>(sim, rng, config);
    chord->bootstrap(w.population);
    net = chord.get();
  } else {
    KademliaConfig config;
    config.run_maintenance = true;
    config.republish_interval = 240.0;
    kademlia = std::make_unique<KademliaNetwork>(sim, rng, config);
    kademlia->bootstrap(w.population);
    net = kademlia.get();
  }

  for (std::size_t i = 0; i < 2000; ++i) {
    net->lookup(NodeId::hash_of_text("perf-lookup-" + std::to_string(i)));
  }
  const LookupStats stats =
      w.chord ? chord->lookup_stats() : kademlia->lookup_stats();
  EXPECT_EQ(stats.lookups, 2000u);
  EXPECT_EQ(stats.total_hops, w.lookup_hops);
  EXPECT_EQ(stats.failures, 0u);

  const SharedBytes value =
      shared_bytes(Bytes(64, static_cast<std::uint8_t>(0xAB)));
  for (std::size_t i = 0; i < 500; ++i) {
    net->put(NodeId::hash_of_text("perf-kv-" + std::to_string(i)), value);
  }
  std::size_t misses = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    if (net->get(NodeId::hash_of_text("perf-kv-" + std::to_string(i))) ==
        nullptr) {
      ++misses;
    }
  }
  EXPECT_EQ(misses, 0u);

  cloud::CloudStore cloud;
  core::SessionDispatcher dispatcher(*net);
  std::vector<std::unique_ptr<core::TimedReleaseSession>> sessions;
  core::SessionConfig config;
  config.kind = core::SchemeKind::kJoint;
  config.shape = core::PathShape{2, 3};
  config.emerging_time = kHorizon;
  for (std::size_t i = 0; i < 4; ++i) {
    sessions.push_back(std::make_unique<core::TimedReleaseSession>(
        core::SessionArgs{net, &cloud, nullptr, config, 0xF00D + i,
                          &dispatcher}));
    sessions[i]->send(bytes_of("perf-suite-payload"),
                      "receiver-" + std::to_string(i));
  }
  ChurnConfig churn_config;
  churn_config.mean_lifetime = 6.0 * kHorizon;
  churn_config.replace_dead_nodes = true;
  ChurnDriver churn(*net, churn_config);
  churn.start();
  sim.run_until(kHorizon + 5.0);
  churn.stop();

  std::uint64_t delivered = 0;
  for (const auto& session : sessions) {
    if (session->secret_released()) ++delivered;
  }
  EXPECT_EQ(delivered, w.delivered);
  EXPECT_EQ(churn.deaths(), w.churn_deaths);
  EXPECT_EQ(sim.executed_events(), w.events);
}

INSTANTIATE_TEST_SUITE_P(
    PerfScale, PinnedWorldCounts,
    ::testing::Values(
        PinnedWorld{"chord_1000", true, 1000, 9702, 4, 192, 13209},
        PinnedWorld{"kademlia_1000", false, 1000, 3750, 4, 163, 247},
        PinnedWorld{"chord_10000", true, 10000, 13039, 4, 1660, 130568},
        PinnedWorld{"kademlia_10000", false, 10000, 4880, 3, 1615, 1691}),
    [](const ::testing::TestParamInfo<PinnedWorld>& info) {
      return std::string(info.param.name);
    });

// -- Kademlia closest_alive is the indexed query, not a scan -------------------

TEST(KademliaScale, ClosestAliveMatchesBruteForceUnderChurn) {
  sim::Simulator sim;
  Rng rng(31);
  KademliaConfig config;
  config.run_maintenance = false;
  KademliaNetwork net(sim, rng, config);
  net.bootstrap(128);

  Rng churn(77);
  for (int round = 0; round < 200; ++round) {
    if (churn.chance(0.5)) {
      const auto& ids = net.alive_ids();
      net.kill_node(ids[churn.index(ids.size())]);
    } else {
      net.add_node();
    }
    const NodeId key =
        NodeId::hash_of_text("kad-probe-" + std::to_string(round));
    std::vector<NodeId> live = net.alive_ids();
    EXPECT_EQ(net.closest_alive(key), *brute_xor_closest(live, key));
  }
}

}  // namespace
}  // namespace emergence::dht
