// End-to-end integration tests: the full protocol stack (Chord DHT + real
// crypto + simulator) for all schemes, including the attack walkthroughs of
// the paper's Figs. 2-5.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "cloud/cloud_store.hpp"
#include "common/error.hpp"
#include "common/serial.hpp"
#include "dht/chord_network.hpp"
#include "dht/kademlia.hpp"
#include "emerge/protocol.hpp"
#include "emerge/session_dispatcher.hpp"
#include "sim/simulator.hpp"

namespace emergence::core {
namespace {

struct World {
  sim::Simulator sim;
  Rng rng{2024};
  dht::NetworkConfig net_config;
  std::unique_ptr<dht::ChordNetwork> net;
  std::unique_ptr<SessionDispatcher> dispatcher;
  cloud::CloudStore cloud;

  explicit World(std::size_t nodes = 64) {
    net_config.run_maintenance = false;  // deterministic tests
    net = std::make_unique<dht::ChordNetwork>(sim, rng, net_config);
    net->bootstrap(nodes);
    dispatcher = std::make_unique<SessionDispatcher>(*net);
  }

  SessionArgs args(Adversary* adversary, const SessionConfig& config,
                   std::uint64_t seed) {
    return SessionArgs{net.get(), &cloud, adversary, config, seed,
                       dispatcher.get()};
  }
};

// Both configs start from `SessionConfig()`, a value-initialization that
// zeroes the struct's padding (see kAllSchemes).
SessionConfig joint_config() {
  SessionConfig c = SessionConfig();
  c.kind = SchemeKind::kJoint;
  c.shape = PathShape{2, 3};
  c.emerging_time = 3600.0;
  return c;
}

SessionConfig disjoint_config() {
  SessionConfig c = joint_config();
  c.kind = SchemeKind::kDisjoint;
  return c;
}

SessionConfig share_config() {
  // The Fig. 5 example: k = 2 onion paths, l = 3 columns, n = 3 carriers
  // per column, m = 2-of-3 shares.
  SessionConfig c = SessionConfig();
  c.kind = SchemeKind::kShare;
  c.shape = PathShape{2, 3};
  c.carriers_n = 3;
  c.threshold_m = 2;
  c.emerging_time = 3600.0;
  return c;
}

// gtest names the value-parameterized tests below after the raw bytes of
// their SessionConfig, padding included. A static array is zero-initialized
// before its elements are built, and ValuesIn copies it bytewise, so the
// names are the same on every run instead of embedding stack garbage.
const SessionConfig kAllSchemes[] = {joint_config(), disjoint_config(),
                                     share_config()};

class SchemeEndToEnd : public ::testing::TestWithParam<SessionConfig> {};

TEST_P(SchemeEndToEnd, SecretEmergesExactlyAtReleaseTime) {
  World w;
  TimedReleaseSession session(w.args(nullptr, GetParam(), 7));
  session.send(bytes_of("meet me at the bridge"), "bob-token");

  // Not released before tr.
  w.sim.run_until(session.release_time() - 1.0);
  EXPECT_FALSE(session.secret_released());
  EXPECT_FALSE(session.receiver_decrypt("bob-token").has_value());

  w.sim.run_until(session.release_time() + 1.0);
  ASSERT_TRUE(session.secret_released());
  EXPECT_DOUBLE_EQ(*session.first_delivery_time(), session.release_time());

  const auto plaintext = session.receiver_decrypt("bob-token");
  ASSERT_TRUE(plaintext.has_value());
  EXPECT_EQ(*plaintext, bytes_of("meet me at the bridge"));
}

TEST_P(SchemeEndToEnd, WrongReceiverTokenRejectedByCloud) {
  World w;
  TimedReleaseSession session(w.args(nullptr, GetParam(), 8));
  session.send(bytes_of("msg"), "bob-token");
  w.sim.run();
  ASSERT_TRUE(session.secret_released());
  EXPECT_FALSE(session.receiver_decrypt("eve-token").has_value());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeEndToEnd,
                         ::testing::ValuesIn(kAllSchemes),
                         [](const auto& info) {
                           return to_string(info.param.kind);
                         });

// -- substrate independence: the same protocol over Kademlia -----------------

struct KademliaWorld {
  sim::Simulator sim;
  Rng rng{2024};
  std::unique_ptr<dht::KademliaNetwork> net;
  std::unique_ptr<SessionDispatcher> dispatcher;
  cloud::CloudStore cloud;

  explicit KademliaWorld(std::size_t nodes = 64) {
    dht::KademliaConfig config;
    config.run_maintenance = false;
    net = std::make_unique<dht::KademliaNetwork>(sim, rng, config);
    net->bootstrap(nodes);
    dispatcher = std::make_unique<SessionDispatcher>(*net);
  }
};

class SchemeOnKademlia : public ::testing::TestWithParam<SessionConfig> {};

TEST_P(SchemeOnKademlia, EndToEndOverXorMetricDht) {
  KademliaWorld w;
  TimedReleaseSession session(SessionArgs{w.net.get(), &w.cloud, nullptr,
                                          GetParam(), 7, w.dispatcher.get()});
  session.send(bytes_of("substrate-independent"), "bob");
  w.sim.run_until(session.release_time() - 1.0);
  EXPECT_FALSE(session.secret_released());
  w.sim.run();
  ASSERT_TRUE(session.secret_released());
  const auto plaintext = session.receiver_decrypt("bob");
  ASSERT_TRUE(plaintext.has_value());
  EXPECT_EQ(*plaintext, bytes_of("substrate-independent"));
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeOnKademlia,
                         ::testing::ValuesIn(kAllSchemes),
                         [](const auto& info) {
                           return to_string(info.param.kind);
                         });

TEST(Protocol, CentralizedStyleSingleHop) {
  World w;
  SessionConfig c;
  c.kind = SchemeKind::kJoint;  // 1x1 joint == centralized storage
  c.shape = PathShape{1, 1};
  c.emerging_time = 600.0;
  TimedReleaseSession session(w.args(nullptr, c, 9));
  session.send(bytes_of("short"), "t");
  w.sim.run();
  ASSERT_TRUE(session.secret_released());
  EXPECT_DOUBLE_EQ(*session.first_delivery_time(), session.release_time());
}

TEST(Protocol, HoldersAreDistinctNodes) {
  World w;
  TimedReleaseSession session(w.args(nullptr, share_config(), 10));
  session.send(bytes_of("m"), "t");
  const PathLayout& layout = session.layout();
  std::set<dht::NodeId> seen;
  std::size_t total = 0;
  for (const auto& column : layout.columns) {
    for (const dht::NodeId& id : column) {
      seen.insert(id);
      ++total;
    }
  }
  EXPECT_EQ(seen.size(), total);
  // Fig. 5 geometry: 3 + 3 + 2 holders.
  EXPECT_EQ(total, 8u);
  w.sim.run();
}

TEST(Protocol, ReportCountsPlausible) {
  World w;
  TimedReleaseSession session(w.args(nullptr, joint_config(), 11));
  session.send(bytes_of("m"), "t");
  w.sim.run();
  const SessionReport& report = session.report();
  // Column 1: 2 sends from the sender; columns 2..3: 2 holders x 2 hops.
  EXPECT_EQ(report.packages_sent, 2u + 4u + 4u);
  EXPECT_EQ(report.key_assignments, 6u);  // all 2x3 holders pre-assigned
  EXPECT_EQ(report.deliveries, 2u);       // both terminal holders deliver
  EXPECT_EQ(report.holders_stuck, 0u);
}

TEST(Protocol, ShareSchemeKeyAssignmentsOnlyColumnOne) {
  World w;
  TimedReleaseSession session(w.args(nullptr, share_config(), 12));
  session.send(bytes_of("m"), "t");
  w.sim.run();
  EXPECT_EQ(session.report().key_assignments, 3u);  // n carriers of column 1
  EXPECT_TRUE(session.secret_released());
}

// -- drop attacks (Figs. 2(c), 3, 4) ---------------------------------------------

TEST(DropAttack, JointSurvivesOneMaliciousHolderPerColumn) {
  // Fig. 4's point: (H1,1 H2,2 H1,3) malicious cannot cut the node-joint
  // hop graph -- the path through the other holders stays alive.
  World w;
  Adversary adv(Adversary::Config{AttackMode::kDropping, 2, 1,
                                  crypto::CipherBackend::kChaCha20});
  TimedReleaseSession session(w.args(&adv, joint_config(), 13));
  session.send(bytes_of("m"), "t");
  const PathLayout& layout = session.layout();
  adv.mark_malicious(layout.columns[0][0]);  // H1,1
  adv.mark_malicious(layout.columns[1][1]);  // H2,2
  adv.mark_malicious(layout.columns[2][0]);  // H1,3
  w.sim.run();
  EXPECT_TRUE(session.secret_released());
}

TEST(DropAttack, DisjointDiesWithOneMaliciousHolderPerPath) {
  // Same malicious pattern kills the node-disjoint scheme (Fig. 3 vs 4).
  World w;
  Adversary adv(Adversary::Config{AttackMode::kDropping, 2, 1,
                                  crypto::CipherBackend::kChaCha20});
  TimedReleaseSession session(w.args(&adv, disjoint_config(), 13));
  session.send(bytes_of("m"), "t");
  const PathLayout& layout = session.layout();
  adv.mark_malicious(layout.columns[0][0]);  // path 1 cut at column 1
  adv.mark_malicious(layout.columns[1][1]);  // path 2 cut at column 2
  w.sim.run();
  EXPECT_FALSE(session.secret_released());
  EXPECT_GT(session.report().packages_dropped_malicious, 0u);
}

TEST(DropAttack, JointDiesWhenAFullColumnIsMalicious) {
  World w;
  Adversary adv(Adversary::Config{AttackMode::kDropping, 2, 1,
                                  crypto::CipherBackend::kChaCha20});
  TimedReleaseSession session(w.args(&adv, joint_config(), 14));
  session.send(bytes_of("m"), "t");
  adv.mark_malicious(session.layout().columns[1][0]);
  adv.mark_malicious(session.layout().columns[1][1]);
  w.sim.run();
  EXPECT_FALSE(session.secret_released());
}

TEST(DropAttack, ShareSchemeToleratesMinorityCarrierDrop) {
  // One dropped carrier per column leaves m = 2 of n = 3 shares: enough.
  // Share-scheme holders carry individual keys, so onion_slots_k = 0.
  World w;
  Adversary adv(Adversary::Config{AttackMode::kDropping, 0, 2,
                                  crypto::CipherBackend::kChaCha20});
  TimedReleaseSession session(w.args(&adv, share_config(), 15));
  session.send(bytes_of("m"), "t");
  adv.mark_malicious(session.layout().columns[0][2]);  // extra carrier H3,1
  adv.mark_malicious(session.layout().columns[1][2]);  // extra carrier H3,2
  w.sim.run();
  EXPECT_TRUE(session.secret_released());
}

TEST(DropAttack, ShareSchemeDiesWhenMajorityDrops) {
  World w;
  Adversary adv(Adversary::Config{AttackMode::kDropping, 0, 2,
                                  crypto::CipherBackend::kChaCha20});
  TimedReleaseSession session(w.args(&adv, share_config(), 16));
  session.send(bytes_of("m"), "t");
  adv.mark_malicious(session.layout().columns[0][0]);
  adv.mark_malicious(session.layout().columns[0][1]);  // 2 of 3 carriers drop
  w.sim.run();
  EXPECT_FALSE(session.secret_released());
}

// -- release-ahead attacks (Fig. 2(b)) -----------------------------------------

TEST(ReleaseAhead, AllColumnsCompromisedRestoresAtStart) {
  // The K4 case: a malicious holder in every column (keys pre-assigned at
  // ts) plus the captured package restores the secret before tr.
  World w;
  Adversary adv(Adversary::Config{AttackMode::kCovert, 2, 1,
                                  crypto::CipherBackend::kChaCha20});
  TimedReleaseSession session(w.args(&adv, joint_config(), 17));
  session.send(bytes_of("exam questions"), "t");
  const PathLayout& layout = session.layout();
  adv.mark_malicious(layout.columns[0][0]);
  adv.mark_malicious(layout.columns[1][0]);
  adv.mark_malicious(layout.columns[2][1]);
  session.refresh_adversary_exposure();  // coalition held the keys since ts

  // Give the column-1 package time to reach the malicious holder.
  w.sim.run_until(session.start_time() + 10.0);
  const auto stolen = adv.attempt_restore(w.sim.now());
  ASSERT_TRUE(stolen.has_value());
  EXPECT_LT(w.sim.now(), session.release_time());

  // The stolen key decrypts the cloud blob: confidentiality is fully broken.
  w.sim.run();
  ASSERT_TRUE(session.secret_released());
  EXPECT_EQ(*stolen, *session.released_secret());
}

TEST(ReleaseAhead, GapInColumnsBlocksEarlyRestore) {
  // The K3 case of Fig. 2(b): head and tail compromised, middle intact.
  World w;
  Adversary adv(Adversary::Config{AttackMode::kCovert, 2, 1,
                                  crypto::CipherBackend::kChaCha20});
  TimedReleaseSession session(w.args(&adv, joint_config(), 18));
  session.send(bytes_of("m"), "t");
  const PathLayout& layout = session.layout();
  adv.mark_malicious(layout.columns[0][0]);
  adv.mark_malicious(layout.columns[2][0]);  // column 2 stays clean
  session.refresh_adversary_exposure();

  w.sim.run_until(session.start_time() + 10.0);
  EXPECT_FALSE(adv.attempt_restore(w.sim.now()).has_value());

  // Even at the end of the run the adversary only ever saw the terminal
  // secret via its terminal holder -- one holding period early, never at ts.
  w.sim.run();
  EXPECT_TRUE(session.secret_released());
  ASSERT_TRUE(adv.earliest_secret_time().has_value());
  const double leak_margin =
      session.release_time() - *adv.earliest_secret_time();
  EXPECT_LE(leak_margin, session.holding_period() + 1.0);
  EXPECT_GT(leak_margin, 0.0);
}

TEST(ReleaseAhead, CleanPathsLeakNothing) {
  // The K1 case: no malicious holder anywhere.
  World w;
  Adversary adv(Adversary::Config{AttackMode::kCovert, 2, 1,
                                  crypto::CipherBackend::kChaCha20});
  TimedReleaseSession session(w.args(&adv, joint_config(), 19));
  session.send(bytes_of("m"), "t");
  w.sim.run();
  EXPECT_TRUE(session.secret_released());
  EXPECT_FALSE(adv.earliest_secret_time().has_value());
  EXPECT_EQ(adv.captured_packages(), 0u);
}

TEST(ReleaseAhead, ShareSchemeNeedsThresholdPerColumn) {
  // One malicious carrier per column captures one share per key: below the
  // m = 2 threshold, so no early restore; the protocol still completes.
  World w;
  Adversary adv(Adversary::Config{AttackMode::kCovert, 0, 2,
                                  crypto::CipherBackend::kChaCha20});
  TimedReleaseSession session(w.args(&adv, share_config(), 20));
  session.send(bytes_of("m"), "t");
  const PathLayout& layout = session.layout();
  adv.mark_malicious(layout.columns[0][2]);
  adv.mark_malicious(layout.columns[1][2]);
  session.refresh_adversary_exposure();
  w.sim.run_until(session.release_time() - 1.0);
  EXPECT_FALSE(adv.attempt_restore(w.sim.now()).has_value());
  w.sim.run();
  EXPECT_TRUE(session.secret_released());
}

TEST(ReleaseAhead, ShareSchemeThresholdInOneColumnCascades) {
  // m = 2 of n = 3 carriers malicious in column 1 *alone*: their
  // pre-assigned keys open their envelopes of the captured onion, each of
  // which carries one share of every column-2 key — threshold reached, all
  // column-2 keys reconstruct, and the unwrapped inner onion then yields
  // every later column's shares in turn (the fixpoint cascade). The
  // coalition holds the secret right after ts, two full holding periods
  // before tr. Algorithm 1's per-column release tails model exactly this
  // any-column event; the stat engine's share release semantics were fixed
  // to match (stat_engine.cpp) after the e2e cross-validation sweep
  // flagged the divergence.
  World w;
  Adversary adv(Adversary::Config{AttackMode::kCovert, 0, 2,
                                  crypto::CipherBackend::kChaCha20});
  TimedReleaseSession session(w.args(&adv, share_config(), 21));
  session.send(bytes_of("m"), "t");
  const PathLayout& layout = session.layout();
  adv.mark_malicious(layout.columns[0][0]);
  adv.mark_malicious(layout.columns[0][1]);
  session.refresh_adversary_exposure();
  w.sim.run_until(session.start_time() + 10.0);
  const auto stolen = adv.attempt_restore(w.sim.now());
  ASSERT_TRUE(stolen.has_value());
  EXPECT_LT(w.sim.now(), session.release_time());

  // The stolen secret is the real message key.
  w.sim.run();
  ASSERT_TRUE(session.secret_released());
  EXPECT_EQ(*stolen, *session.released_secret());
}

// -- churn at the protocol level ------------------------------------------------

TEST(ProtocolChurn, JointSurvivesHolderDeathMidHold) {
  World w;
  TimedReleaseSession session(w.args(nullptr, joint_config(), 22));
  session.send(bytes_of("m"), "t");
  const dht::NodeId victim = session.layout().columns[1][0];
  // Kill one column-2 holder while it is holding the package.
  w.sim.schedule_at(session.start_time() + 1.5 * session.holding_period(),
                    [&] { w.net->kill_node(victim); });
  w.sim.run();
  EXPECT_TRUE(session.secret_released());  // the replica column survives
}

TEST(ProtocolChurn, DisjointLosesPathOnHolderDeath) {
  World w;
  TimedReleaseSession session(w.args(nullptr, disjoint_config(), 23));
  session.send(bytes_of("m"), "t");
  // Kill one holder per path mid-hold: both paths die, nothing emerges.
  const dht::NodeId victim1 = session.layout().columns[1][0];
  const dht::NodeId victim2 = session.layout().columns[0][1];
  w.sim.schedule_at(session.start_time() + 0.5 * session.holding_period(),
                    [&] { w.net->kill_node(victim2); });
  w.sim.schedule_at(session.start_time() + 1.5 * session.holding_period(),
                    [&] { w.net->kill_node(victim1); });
  w.sim.run();
  EXPECT_FALSE(session.secret_released());
}

TEST(ProtocolChurn, TerminalHolderDeathBeforeReleaseLosesItsCopy) {
  World w;
  TimedReleaseSession session(w.args(nullptr, joint_config(), 24));
  session.send(bytes_of("m"), "t");
  // Kill one terminal holder after it peeled but before tr: the other
  // terminal holder still delivers.
  const dht::NodeId victim = session.layout().columns[2][0];
  w.sim.schedule_at(session.release_time() - 10.0,
                    [&] { w.net->kill_node(victim); });
  w.sim.run();
  EXPECT_TRUE(session.secret_released());
  EXPECT_EQ(session.report().deliveries, 1u);
}

TEST(Protocol, ConfigValidation) {
  World w;
  SessionConfig bad = share_config();
  bad.threshold_m = 5;  // > carriers_n
  EXPECT_THROW(TimedReleaseSession(w.args(nullptr, bad, 1)),
               PreconditionError);
  SessionConfig tiny = joint_config();
  tiny.emerging_time = 0.5;  // holding period shorter than assembly delay
  EXPECT_THROW(TimedReleaseSession(w.args(nullptr, tiny, 1)),
               PreconditionError);
}

TEST(Protocol, MalformedPackagesAreDiscarded) {
  // A hostile node spams holders with garbage; the protocol must neither
  // crash nor stall.
  World w;
  TimedReleaseSession session(w.args(nullptr, joint_config(), 26));
  session.send(bytes_of("m"), "t");
  const dht::NodeId target = session.layout().columns[0][0];
  const dht::NodeId attacker = w.net->alive_ids().front();
  w.net->send_message(attacker, target, bytes_of("complete garbage"));
  w.net->send_message(attacker, target, Bytes{0x01});  // truncated header
  w.sim.run();
  // Neither payload carries a session nonce, so the dispatcher counts them.
  EXPECT_EQ(w.dispatcher->malformed_packages(), 2u);
  EXPECT_EQ(session.report().malformed_packages, 0u);
  EXPECT_TRUE(session.secret_released());
}

TEST(Protocol, ForgedSessionPackagesCannotHijackHolderSlots) {
  // An attacker forges a syntactically valid package (wrong session nonce)
  // and races it to a column-2 holder before the real one arrives. The
  // session must ignore it: the slot is not claimed, the genuine package
  // processes normally, and the secret emerges on time.
  World w;
  TimedReleaseSession session(w.args(nullptr, disjoint_config(), 27));
  session.send(bytes_of("m"), "t");
  const dht::NodeId victim = session.layout().columns[1][1];
  Bytes fake;
  {
    BinaryWriter wtr;
    wtr.u8(1);                            // kMsgPackage
    wtr.u64(0xdeadbeefdeadbeefULL);       // forged session nonce
    wtr.u16(2);                           // column
    wtr.u16(1);                           // holder index
    wtr.u16(0);                           // no shares
    wtr.blob(bytes_of("not a column onion"));
    fake = wtr.take();
  }
  w.net->send_message(victim, victim, fake);
  w.sim.run();
  EXPECT_EQ(w.dispatcher->stray_packages(), 1u);  // no session claims it
  EXPECT_EQ(session.report().holders_stuck, 0u);
  EXPECT_TRUE(session.secret_released());
}

TEST(Protocol, TwoConcurrentSessionsCoexist) {
  // The dispatcher routes by session nonce: two messages with different
  // release times travel the same DHT independently.
  World w(96);
  TimedReleaseSession early(w.args(nullptr, joint_config(), 28));
  SessionConfig late_config = joint_config();
  late_config.emerging_time = 7200.0;
  TimedReleaseSession late(w.args(nullptr, late_config, 29));

  early.send(bytes_of("first"), "t1");
  late.send(bytes_of("second"), "t2");
  EXPECT_EQ(w.dispatcher->live_sessions(), 2u);
  EXPECT_EQ(w.dispatcher->tracked_storage_keys(), 12u);  // 2x3 keys each

  w.sim.run_until(early.release_time() + 1.0);
  EXPECT_TRUE(early.secret_released());
  EXPECT_FALSE(late.secret_released());

  w.sim.run();
  ASSERT_TRUE(late.secret_released());
  EXPECT_EQ(*early.receiver_decrypt("t1"), bytes_of("first"));
  EXPECT_EQ(*late.receiver_decrypt("t2"), bytes_of("second"));
  EXPECT_EQ(early.report().holders_stuck, 0u);
  EXPECT_EQ(late.report().holders_stuck, 0u);
  EXPECT_EQ(w.dispatcher->stray_packages(), 0u);
}

TEST(Protocol, SendTwiceRejected) {
  World w;
  TimedReleaseSession session(w.args(nullptr, joint_config(), 25));
  session.send(bytes_of("m"), "t");
  EXPECT_THROW(session.send(bytes_of("again"), "t"), PreconditionError);
  w.sim.run();
}

// -- retiring sessions --------------------------------------------------------

TEST(Protocol, RetireErasesStoredKeysAndDeregisters) {
  World w;
  SessionDispatcher& dispatcher = *w.dispatcher;
  auto session = std::make_unique<TimedReleaseSession>(
      w.args(nullptr, joint_config(), 93));
  session->send(bytes_of("m"), "t");
  w.sim.run();
  ASSERT_TRUE(session->secret_released());

  // The pre-assigned layer keys live under the slots' ring points.
  const PathLayout& layout = session->layout();
  const dht::NodeId stored_key = layout.ring_points[0][0];
  EXPECT_NE(w.net->get(stored_key), nullptr);

  session->retire();
  EXPECT_EQ(dispatcher.live_sessions(), 0u);
  EXPECT_EQ(dispatcher.tracked_storage_keys(), 0u);
  EXPECT_EQ(w.net->get(stored_key), nullptr);
  session->retire();  // idempotent
  // Destroying the retired session must not disturb the dispatcher.
  session.reset();
  EXPECT_EQ(dispatcher.live_sessions(), 0u);
}

TEST(Protocol, StrayPackagesForRetiredSessionsAreCountedNotDelivered) {
  World w;
  auto session = std::make_unique<TimedReleaseSession>(
      w.args(nullptr, joint_config(), 94));
  session->send(bytes_of("m"), "t");
  // Capture a genuine column-1 package off the wire by replaying what the
  // sender emitted: simplest is to let the world run, retire, then poke a
  // fabricated package at the (now unregistered) nonce via a copy of the
  // default handler path — a foreign well-formed package with an unknown
  // nonce exercises the same branch.
  w.sim.run();
  session->retire();
  session.reset();

  BinaryWriter forged;
  forged.u8(1);                 // kMsgPackage
  forged.u64(0xDEADBEEF);       // no such session
  forged.u16(1);
  forged.u16(0);
  forged.u16(0);                // zero shares
  forged.blob(bytes_of("xx"));  // onion bytes (never decoded)
  const std::vector<dht::NodeId>& alive = w.net->alive_ids();
  w.net->send_message(alive[0], alive[1], forged.take());
  w.sim.run();
  EXPECT_EQ(w.dispatcher->stray_packages(), 1u);
}

}  // namespace
}  // namespace emergence::core
