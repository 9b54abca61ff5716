// Property tests over the full protocol stack: SessionReport counter
// invariants that must hold for every scheme, backend, attack mode and
// coalition, and the release-timing contract (first delivery exactly at tr
// regardless of path length).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud_store.hpp"
#include "dht/chord_network.hpp"
#include "dht/churn_driver.hpp"
#include "dht/kademlia.hpp"
#include "emerge/protocol.hpp"
#include "emerge/session_dispatcher.hpp"
#include "sim/simulator.hpp"

namespace emergence::core {
namespace {

enum class Backend { kChord, kKademlia };

/// A world over either DHT backend (maintenance off unless churn drives it).
struct AnyWorld {
  sim::Simulator sim;
  Rng rng;
  std::unique_ptr<dht::ChordNetwork> chord;
  std::unique_ptr<dht::KademliaNetwork> kademlia;
  dht::Network* net = nullptr;
  std::unique_ptr<SessionDispatcher> dispatcher;
  cloud::CloudStore cloud;

  AnyWorld(Backend backend, std::uint64_t seed, std::size_t nodes = 64,
           bool maintenance = false, dht::TransportModel transport = {})
      : rng(seed) {
    if (backend == Backend::kChord) {
      dht::NetworkConfig config;
      config.run_maintenance = maintenance;
      config.replica_repair_interval = 30.0;
      config.stabilize_interval = 15.0;
      config.transport = transport;
      chord = std::make_unique<dht::ChordNetwork>(sim, rng, config);
      chord->bootstrap(nodes);
      net = chord.get();
    } else {
      dht::KademliaConfig config;
      config.run_maintenance = maintenance;
      config.republish_interval = 30.0;
      config.transport = transport;
      kademlia = std::make_unique<dht::KademliaNetwork>(sim, rng, config);
      kademlia->bootstrap(nodes);
      net = kademlia.get();
    }
    dispatcher = std::make_unique<SessionDispatcher>(*net);
  }

  SessionArgs args(Adversary* adversary, const SessionConfig& config,
                   std::uint64_t seed) {
    return SessionArgs{net, &cloud, adversary, config, seed, dispatcher.get()};
  }
};

struct SchemeSpec {
  const char* label;
  SessionConfig config;
};

std::vector<SchemeSpec> all_schemes() {
  std::vector<SchemeSpec> specs;
  {
    SessionConfig c;  // centralized: the 1x1 degenerate joint layout
    c.kind = SchemeKind::kJoint;
    c.shape = PathShape{1, 1};
    c.emerging_time = 900.0;
    specs.push_back({"centralized", c});
  }
  {
    SessionConfig c;
    c.kind = SchemeKind::kDisjoint;
    c.shape = PathShape{2, 3};
    c.emerging_time = 900.0;
    specs.push_back({"disjoint", c});
  }
  {
    SessionConfig c;
    c.kind = SchemeKind::kJoint;
    c.shape = PathShape{2, 3};
    c.emerging_time = 900.0;
    specs.push_back({"joint", c});
  }
  {
    SessionConfig c;
    c.kind = SchemeKind::kShare;
    c.shape = PathShape{2, 3};
    c.carriers_n = 3;
    c.threshold_m = 2;
    c.emerging_time = 900.0;
    specs.push_back({"share", c});
  }
  return specs;
}

/// The invariants every finished session must satisfy, adversary or not.
void expect_report_invariants(const TimedReleaseSession& session,
                              const std::string& context) {
  const SessionReport& r = session.report();
  // Conservation: every package accounted as delivered, maliciously
  // dropped, or discarded as malformed was sent by someone; losses (dead
  // destinations, failed lookups) explain the slack.
  EXPECT_GE(r.packages_sent, r.packages_delivered +
                                 r.packages_dropped_malicious +
                                 r.malformed_packages)
      << context;
  // The secret is released iff some terminal holder delivered.
  EXPECT_EQ(r.deliveries > 0, session.secret_released()) << context;
  // At most one delivery per terminal slot.
  EXPECT_LE(r.deliveries, session.config().shape.k) << context;
  // Deliveries happen exactly at tr, never before or after.
  if (session.secret_released()) {
    EXPECT_DOUBLE_EQ(*session.first_delivery_time(), session.release_time())
        << context;
  }
}

TEST(ProtocolProperties, ReportInvariantsAcrossSchemesBackendsAndModes) {
  for (Backend backend : {Backend::kChord, Backend::kKademlia}) {
    for (const SchemeSpec& spec : all_schemes()) {
      for (AttackMode mode : {AttackMode::kCovert, AttackMode::kDropping}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          AnyWorld w(backend, 9000 + seed);
          Adversary::Config acfg;
          acfg.mode = mode;
          acfg.onion_slots_k =
              spec.config.kind == SchemeKind::kShare ? 0 : spec.config.shape.k;
          acfg.share_threshold_m = spec.config.kind == SchemeKind::kShare
                                       ? spec.config.threshold_m
                                       : 1;
          Adversary adversary(acfg);
          // A random quarter of the network is malicious.
          Rng coalition_rng(seed * 131 + 7);
          for (const dht::NodeId& id : w.net->alive_ids()) {
            if (coalition_rng.chance(0.25)) adversary.mark_malicious(id);
          }

          TimedReleaseSession session(
              w.args(&adversary, spec.config, seed * 17 + 3));
          session.send(bytes_of("property-payload"), "token");
          w.sim.run();

          const std::string context =
              std::string(spec.label) + "/" +
              (backend == Backend::kChord ? "chord" : "kademlia") + "/" +
              (mode == AttackMode::kCovert ? "covert" : "dropping") +
              "/seed=" + std::to_string(seed);
          expect_report_invariants(session, context);
          if (mode == AttackMode::kCovert) {
            // Covert holders forward everything; nothing is dropped and the
            // secret always emerges in a static network.
            EXPECT_EQ(session.report().packages_dropped_malicious, 0u)
                << context;
            EXPECT_TRUE(session.secret_released()) << context;
          }
        }
      }
    }
  }
}

TEST(ProtocolProperties, ReportInvariantsHoldUnderChurn) {
  for (Backend backend : {Backend::kChord, Backend::kKademlia}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      AnyWorld w(backend, 7700 + seed, 64, /*maintenance=*/true);
      SessionConfig config;
      config.kind = SchemeKind::kJoint;
      config.shape = PathShape{2, 3};
      config.emerging_time = 900.0;
      TimedReleaseSession session(w.args(nullptr, config, seed));
      session.send(bytes_of("churny"), "token");

      dht::ChurnConfig churn_config;
      churn_config.mean_lifetime = 900.0;
      dht::ChurnDriver churn(*w.net, churn_config);
      churn.start();
      w.sim.run_until(session.release_time() + 5.0);
      churn.stop();

      expect_report_invariants(
          session, std::string("churn/") +
                       (backend == Backend::kChord ? "chord" : "kademlia") +
                       "/seed=" + std::to_string(seed));
      EXPECT_GT(churn.deaths(), 0u);
    }
  }
}

// -- release timing (the satellite audit of ISSUE 3) --------------------------

TEST(ReleaseTiming, FirstDeliveryExactlyAtTrForEveryPathLength) {
  // The drift audit: if each column waited th *plus* its local overheads,
  // first delivery would land up to l * (assembly_delay + latency) after
  // tr. Hop schedules are anchored to absolute times instead (column c
  // forwards at ts + c*th, terminal delivery fires at tr), so the offset is
  // exactly zero — including for T/l values with no exact binary
  // representation.
  for (std::size_t l : {std::size_t{1}, std::size_t{3}, std::size_t{6}}) {
    AnyWorld w(Backend::kChord, 40 + l);
    SessionConfig config;
    config.kind = SchemeKind::kJoint;
    config.shape = PathShape{2, l};
    config.emerging_time = 1000.0;  // th = 1000/l: inexact for l = 3 and 6
    TimedReleaseSession session(w.args(nullptr, config, 77 + l));
    session.send(bytes_of("timing"), "token");
    w.sim.run();

    ASSERT_TRUE(session.secret_released()) << "l=" << l;
    const double offset =
        *session.first_delivery_time() - session.release_time();
    EXPECT_DOUBLE_EQ(offset, 0.0) << "l=" << l;
    // The documented tolerance: never early, never later than 1ns.
    EXPECT_GE(offset, 0.0) << "l=" << l;
    EXPECT_LE(offset, 1e-9) << "l=" << l;
  }
}

TEST(ReleaseTiming, ShareSchemeDeliversExactlyAtTrToo) {
  AnyWorld w(Backend::kChord, 51);
  SessionConfig config;
  config.kind = SchemeKind::kShare;
  config.shape = PathShape{2, 3};
  config.carriers_n = 4;
  config.threshold_m = 2;
  config.emerging_time = 700.0;  // th = 233.33..
  TimedReleaseSession session(w.args(nullptr, config, 52));
  session.send(bytes_of("timing"), "token");
  w.sim.run();
  ASSERT_TRUE(session.secret_released());
  EXPECT_DOUBLE_EQ(*session.first_delivery_time(), session.release_time());
}

// -- release timing under non-ideal transports (PR 6) -------------------------

TEST(ReleaseTiming, ExactAtTrUnderWanTransportForEveryPathLength) {
  // The transport tolerance contract (protocol.hpp holding_period()): a
  // transport that guarantees_exact_delivery — wan() does for these th
  // values (retry ladder 3.5s + L 0.2s + assembly 1s << th) — must keep
  // first delivery bit-equal to tr on both backends, exactly like ideal().
  const dht::TransportModel wan = dht::TransportModel::wan();
  for (Backend backend : {Backend::kChord, Backend::kKademlia}) {
    for (std::size_t l : {std::size_t{1}, std::size_t{3}, std::size_t{6}}) {
      AnyWorld w(backend, 400 + l, 64, /*maintenance=*/false, wan);
      SessionConfig config;
      config.kind = SchemeKind::kJoint;
      config.shape = PathShape{2, l};
      config.emerging_time = 1000.0;  // th = 1000/l: inexact for l = 3 and 6
      ASSERT_TRUE(wan.guarantees_exact_delivery(
          config.emerging_time / static_cast<double>(l),
          config.assembly_delay));
      TimedReleaseSession session(w.args(nullptr, config, 177 + l));
      session.send(bytes_of("wan-timing"), "token");
      w.sim.run();

      const std::string context =
          std::string(backend == Backend::kChord ? "chord" : "kademlia") +
          "/l=" + std::to_string(l);
      ASSERT_TRUE(session.secret_released()) << context;
      EXPECT_DOUBLE_EQ(*session.first_delivery_time(), session.release_time())
          << context;
    }
  }
}

TEST(ReleaseTiming, IdealTransportStaysExactAtTr) {
  // The explicit ideal() spelling must behave identically to the default
  // (it resolves to the same uniform law), pinning the resolved() path.
  const dht::TransportModel ideal = dht::TransportModel::ideal();
  AnyWorld w(Backend::kChord, 61, 64, /*maintenance=*/false, ideal);
  SessionConfig config;
  config.kind = SchemeKind::kJoint;
  config.shape = PathShape{2, 3};
  config.emerging_time = 900.0;
  TimedReleaseSession session(w.args(nullptr, config, 62));
  session.send(bytes_of("ideal-timing"), "token");
  w.sim.run();
  ASSERT_TRUE(session.secret_released());
  EXPECT_DOUBLE_EQ(*session.first_delivery_time(), session.release_time());
}

TEST(ReleaseTiming, PartitionOutageDeliversLateButWithinReapSlack) {
  // A global outage window (zone_count = 1 partition: every attempt in
  // [start, end) is deterministically dropped) straddling a column
  // deadline. The retry ladder must carry the forward across the heal, the
  // protocol clamps the late hop to now, and delivery lands at or after tr
  // but within reap_slack — never crashing on the "time in the past"
  // precondition the pre-PR scheduler would have hit.
  dht::TransportModel outage;  // kIdeal latency law, explicit loss model
  outage.max_retries = 8;
  outage.retry_timeout = 2.0;
  outage.retry_backoff = 2.0;
  // th = 300: the column-2 -> column-3 forward fires at t = 600, inside the
  // window. Ladder attempts land at 600 + 2*(2^n - 1) = 602, 606, ...,
  // 854 — all still inside — until the 8th retry at t = 1110 clears the
  // heal AND tr (900), forcing a genuinely late terminal delivery.
  outage.partition_start = 590.0;
  outage.partition_end = 1000.0;
  const std::size_t l = 3;
  AnyWorld w(Backend::kChord, 71, 64, /*maintenance=*/false, outage);
  SessionConfig config;
  config.kind = SchemeKind::kJoint;
  config.shape = PathShape{2, l};
  config.emerging_time = 900.0;
  ASSERT_FALSE(w.net->transport().guarantees_exact_delivery(
      config.emerging_time / static_cast<double>(l), config.assembly_delay));
  TimedReleaseSession session(w.args(nullptr, config, 72));
  session.send(bytes_of("partition-timing"), "token");
  w.sim.run();

  ASSERT_TRUE(session.secret_released());
  const double offset =
      *session.first_delivery_time() - session.release_time();
  EXPECT_GT(offset, 0.0);  // the outage genuinely delayed delivery past tr
  EXPECT_LE(offset, w.net->transport().reap_slack(l));
  // The outage left real marks in the transport counters.
  EXPECT_GT(w.net->transport_stats().dropped, 0u);
  EXPECT_GT(w.net->transport_stats().retried, 0u);
}

}  // namespace
}  // namespace emergence::core
