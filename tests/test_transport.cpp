// Property-test suite pinning the message-level transport model (PR 6):
// latency samples match their configured distributions (KS / chi-square
// style goodness-of-fit at pinned seeds, same harness idiom as
// test_workload.cpp), retry counts stay within the configured budget with
// exact counter accounting, the net= mini-grammar parses and validates,
// and two fleet goldens pin the default ideal() fleet and a lossy share
// fleet, while a lossy WAN fleet stays bit-identical at 1/2/8 threads with
// nonzero drop/retry counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dht/node_id.hpp"
#include "dht/transport.hpp"
#include "emerge/sweep.hpp"
#include "sim/simulator.hpp"
#include "workload/scenario.hpp"
#include "workload/session_fleet.hpp"

namespace emergence::dht {
namespace {

// -- goodness-of-fit harness (test_workload.cpp idiom) ------------------------

/// Kolmogorov-Smirnov statistic of `samples` against the analytic CDF.
template <typename Cdf>
double ks_statistic(std::vector<double> samples, const Cdf& cdf) {
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  double d = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double f = cdf(samples[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max(d, std::max(std::abs(f - lo), std::abs(hi - f)));
  }
  return d;
}

/// alpha = 0.01 KS acceptance threshold (asymptotic c(0.01) = 1.63). Seeds
/// are pinned, so these tests are deterministic, not flaky.
double ks_threshold(std::size_t n) {
  return 1.63 / std::sqrt(static_cast<double>(n));
}

std::vector<double> draw_latencies(const TransportModel& model, std::size_t n,
                                   std::uint64_t seed, bool cross = false) {
  Rng rng(seed);
  std::vector<double> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    samples.push_back(model.sample_latency(rng, cross));
  return samples;
}

/// Standard normal CDF.
double phi(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

// -- latency distributions ----------------------------------------------------

TEST(TransportLatency, UniformMatchesAnalyticCdf) {
  TransportModel m;
  m.kind = LatencyKind::kUniform;
  m.min_latency = 0.010;
  m.max_latency = 0.100;
  const std::vector<double> samples = draw_latencies(m, 20000, 0x7A1);
  for (double s : samples) {
    ASSERT_GE(s, m.min_latency);
    ASSERT_LE(s, m.max_latency);
  }
  const double d = ks_statistic(samples, [&](double x) {
    return (x - m.min_latency) / (m.max_latency - m.min_latency);
  });
  EXPECT_LT(d, ks_threshold(samples.size()));
}

TEST(TransportLatency, FixedIsConstantAndConsumesNoDraws) {
  TransportModel m;
  m.kind = LatencyKind::kFixed;
  m.max_latency = 0.042;
  Rng fresh(0xF1);
  Rng replay(0xF1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(m.sample_latency(replay, false), 0.042);
  }
  // Zero draws consumed: the stream is exactly where it started.
  EXPECT_DOUBLE_EQ(replay.real(), fresh.real());
}

TEST(TransportLatency, LogNormalMatchesTruncatedAnalyticCdf) {
  // The straggler preset: exp(N(log 0.030, 1.3)) clamped to
  // [0.0005, 1.5]. The clamp atoms carry < 0.2% of the mass, far below the
  // KS threshold at n = 20000, so the continuous CDF (capped at 1) fits.
  const TransportModel m = TransportModel::straggler();
  ASSERT_EQ(m.kind, LatencyKind::kLogNormal);
  const std::vector<double> samples = draw_latencies(m, 20000, 0x57A);
  for (double s : samples) {
    ASSERT_GE(s, m.min_latency);
    ASSERT_LE(s, m.cap);
  }
  const double d = ks_statistic(samples, [&](double x) {
    if (x >= m.cap) return 1.0;
    return phi((std::log(x) - m.log_mu) / m.log_sigma);
  });
  EXPECT_LT(d, ks_threshold(samples.size()));
  // The tail is genuinely heavy: p99 well above the median.
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(sorted[19800], 4.0 * sorted[10000]);
}

TEST(TransportLatency, ZonedSamplesStayInTheirConfiguredRanges) {
  const TransportModel m = TransportModel::wan();
  ASSERT_EQ(m.kind, LatencyKind::kZoned);
  for (double s : draw_latencies(m, 5000, 0x20E, /*cross=*/false)) {
    ASSERT_GE(s, m.intra_min);
    ASSERT_LE(s, m.intra_max);
  }
  for (double s : draw_latencies(m, 5000, 0x20F, /*cross=*/true)) {
    ASSERT_GE(s, m.inter_min);
    ASSERT_LE(s, m.inter_max);
  }
  // Cross-zone intra-range KS too: within a range the law is uniform.
  const std::vector<double> cross = draw_latencies(m, 20000, 0x21F, true);
  const double d = ks_statistic(cross, [&](double x) {
    return (x - m.inter_min) / (m.inter_max - m.inter_min);
  });
  EXPECT_LT(d, ks_threshold(cross.size()));
}

// -- zones --------------------------------------------------------------------

TEST(TransportZones, AssignmentIsBalancedDeterministicAndSeedKeyed) {
  const TransportModel a = TransportModel::wan();
  const TransportModel b = TransportModel::wan();  // independent memo caches
  TransportModel other = TransportModel::wan();
  other.zone_seed ^= 0x1234567;

  const std::size_t n = 4000;
  std::vector<std::size_t> counts(a.zone_count, 0);
  std::size_t reassigned = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id = NodeId::hash_of_text("zone-node-" + std::to_string(i));
    const std::size_t zone = a.zone_of(id);
    ASSERT_LT(zone, a.zone_count);
    // Pure in (zone_seed, id): a fresh instance agrees everywhere.
    ASSERT_EQ(zone, b.zone_of(id));
    if (zone != other.zone_of(id)) ++reassigned;
    ++counts[zone];
  }
  // Chi-square balance gate against uniform occupancy. 99th percentile of
  // chi2(3) is 11.34; pinned seeds make this deterministic.
  const double expected = static_cast<double>(n) /
                          static_cast<double>(a.zone_count);
  double chi2 = 0.0;
  for (std::size_t c : counts) {
    const double diff = static_cast<double>(c) - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 11.34);
  // A different zone_seed is a genuinely different assignment (~3/4 move).
  EXPECT_GT(reassigned, n / 2);
}

// -- retry accounting ---------------------------------------------------------

TEST(TransportRetries, CounterAccountingIsExactAndBounded) {
  // Drive send() directly: a 50% lossy link with 3 retries. The identities
  // attempts == messages + retried, dropped == retried + timed_out and
  // delivered == messages - timed_out must hold exactly, and retried can
  // never exceed messages * max_retries.
  TransportModel m;
  m.kind = LatencyKind::kUniform;
  m.min_latency = 0.010;
  m.max_latency = 0.100;
  m.drop_probability = 0.5;
  m.max_retries = 3;
  m.retry_timeout = 0.25;
  m.retry_backoff = 2.0;
  m.validate();

  sim::Simulator sim;
  Rng rng(0x9E7);
  TransportStats stats;
  const NodeId from = NodeId::hash_of_text("sender");
  const NodeId to = NodeId::hash_of_text("receiver");
  std::uint64_t delivered = 0;
  const std::uint64_t kMessages = 4000;
  for (std::uint64_t i = 0; i < kMessages; ++i) {
    m.send(sim, rng, stats, from, to, [&delivered] { ++delivered; });
  }
  sim.run();

  EXPECT_EQ(stats.messages, kMessages);
  EXPECT_EQ(stats.attempts, stats.messages + stats.retried);
  EXPECT_EQ(stats.dropped, stats.retried + stats.timed_out);
  EXPECT_EQ(delivered, stats.messages - stats.timed_out);
  EXPECT_LE(stats.retried, stats.messages * m.max_retries);
  // Every delivered attempt recorded a hop latency.
  EXPECT_EQ(stats.hop_latency_us.count(), delivered);
  // p = 0.5, r = 3: expected timeout rate p^4 = 6.25%; the observed rate
  // must be in the right ballpark (pinned seed, deterministic).
  const double timeout_rate = static_cast<double>(stats.timed_out) /
                              static_cast<double>(stats.messages);
  EXPECT_NEAR(timeout_rate, 0.0625, 0.02);
  // And retransmits genuinely happened.
  EXPECT_GT(stats.retried, 0u);
}

TEST(TransportRetries, NoLossPathConsumesExactlyOneDrawPerMessage) {
  // The bit-identity cornerstone: with no loss model configured, send()
  // must consume exactly one uniform draw and schedule exactly one event —
  // the historical law. A parallel bare-Rng replay must stay in lockstep.
  TransportModel m;
  m.kind = LatencyKind::kUniform;
  m.min_latency = 0.010;
  m.max_latency = 0.100;

  sim::Simulator sim;
  Rng rng(0xB17);
  Rng replay(0xB17);
  TransportStats stats;
  const NodeId from = NodeId::hash_of_text("a");
  const NodeId to = NodeId::hash_of_text("b");
  for (int i = 0; i < 256; ++i) {
    const double base = sim.now();
    m.send(sim, rng, stats, from, to, [] {});
    const double expect =
        base + m.min_latency + replay.real() * (m.max_latency - m.min_latency);
    ASSERT_TRUE(sim.next_event_time().has_value());
    ASSERT_DOUBLE_EQ(*sim.next_event_time(), expect);
    sim.run();  // drain so next_event_time peeks the next message
  }
  EXPECT_EQ(stats.attempts, 256u);
  EXPECT_EQ(stats.dropped, 0u);
}

// -- parse / validate ---------------------------------------------------------

TEST(TransportParse, PresetsAndSubKeysRoundTrip) {
  const TransportModel lossy = TransportModel::parse("lossy:p=0.1;retries=2");
  EXPECT_DOUBLE_EQ(lossy.drop_probability, 0.1);
  EXPECT_EQ(lossy.max_retries, 2u);
  EXPECT_EQ(lossy.kind, LatencyKind::kUniform);

  const TransportModel wan = TransportModel::parse("wan");
  EXPECT_EQ(wan.kind, LatencyKind::kZoned);
  EXPECT_EQ(wan.zone_count, 4u);

  const TransportModel heal =
      TransportModel::parse("partition-heal:start=100;end=220");
  EXPECT_TRUE(heal.has_partition());
  EXPECT_DOUBLE_EQ(heal.partition_start, 100.0);
  EXPECT_DOUBLE_EQ(heal.partition_end, 220.0);

  // "ideal" is the default-constructed law: uniform over [10 ms, 100 ms].
  const TransportModel ideal = TransportModel::parse("ideal");
  EXPECT_EQ(ideal.kind, LatencyKind::kUniform);
  EXPECT_DOUBLE_EQ(ideal.min_latency, 0.010);
  EXPECT_DOUBLE_EQ(ideal.max_latency, 0.100);
  EXPECT_FALSE(ideal.can_drop());
}

TEST(TransportParse, RejectsMalformedSpecs) {
  EXPECT_THROW(TransportModel::parse("warp-drive"), PreconditionError);
  EXPECT_THROW(TransportModel::parse("lossy:p=nope"), PreconditionError);
  EXPECT_THROW(TransportModel::parse("lossy:warp=1"), PreconditionError);
  EXPECT_THROW(TransportModel::parse(""), PreconditionError);
  EXPECT_THROW(TransportModel::parse("ideal:p=0.1"), PreconditionError);
}

TEST(TransportValidate, RejectsInconsistentModels) {
  {
    TransportModel m = TransportModel::lossy(1.0);  // certain loss
    EXPECT_THROW(m.validate(), PreconditionError);
  }
  {
    TransportModel m = TransportModel::lossy(0.05);
    m.max_retries = 64;  // beyond the documented cap
    EXPECT_THROW(m.validate(), PreconditionError);
  }
  {
    TransportModel m;
    m.kind = LatencyKind::kUniform;
    m.min_latency = 0.2;
    m.max_latency = 0.1;  // inverted range
    EXPECT_THROW(m.validate(), PreconditionError);
  }
  {
    TransportModel m = TransportModel::partition_heal(200.0, 100.0);
    EXPECT_THROW(m.validate(), PreconditionError);  // inverted window
  }
}

// -- the goldens: pinned fleet fingerprints ------------------------------------

TEST(TransportGolden, IdealFleetFingerprintUnchangedBitForBit) {
  // The metro-diurnal 1k-node churn+session fleet on the default ideal()
  // transport (uniform [10 ms, 100 ms], no loss) and the default one-domain
  // executor schedule produces this FleetTally::fingerprint(). Any change
  // to the fleet's event sequence — a latency draw, a window boundary, a
  // tally field — moves it.
  core::SweepRunner sweeps(core::SweepOptions{2, 64});
  const workload::ScenarioSpec spec = workload::parse_scenario(
      "metro-diurnal:population=1000,sessions=256,worlds=1,seed=0x60D1E");
  const workload::FleetTally t = workload::run_scenario(sweeps, spec);
  EXPECT_EQ(t.fingerprint(), 11555915086018092724ULL);
  // The work the fingerprint leaves out: the transport's own digest and
  // the world queue's events, of which maintenance lanes serve most.
  EXPECT_EQ(t.transport.fingerprint(), 15401085009837008439ULL);
  EXPECT_EQ(t.world_events, 3186u);
  EXPECT_EQ(t.world_lane_fires, 2547u);
  // Every lookup the world ran: layout, routed deliveries and reap erases.
  EXPECT_EQ(t.lookups.lookups, 5531u);
  EXPECT_EQ(t.lookups.total_hops, 27539u);
  EXPECT_EQ(t.lookups.failures, 0u);
  // The explicit net=ideal spelling is the same model.
  const workload::ScenarioSpec explicit_ideal = workload::parse_scenario(
      "metro-diurnal:net=ideal,population=1000,sessions=256,worlds=1,"
      "seed=0x60D1E");
  EXPECT_EQ(workload::run_scenario(sweeps, explicit_ideal).fingerprint(),
            t.fingerprint());
}

TEST(TransportGolden, LossyShareExecutorFleetFingerprintUnchanged) {
  // The executor family's golden, a reduced shape of the sim-share-lossy
  // benchmark workload: Shamir routing against a 20% covert coalition, 5%
  // iid loss with retries, churn at the fleet's maintenance cadence, and
  // the 2-domain executor. Pinned values; any change to the event sequence
  // of this fleet family moves one of the fingerprints.
  core::SweepRunner sweeps(core::SweepOptions{2, 64});
  const workload::ScenarioSpec spec = workload::parse_scenario(
      "share-threshold:population=2000,sessions=500,net=lossy,domains=2,"
      "seed=0x5A1E");
  const workload::FleetTally t = workload::run_scenario(sweeps, spec);
  EXPECT_EQ(t.fingerprint(), 4095196877436334573ULL);
  EXPECT_EQ(t.transport.fingerprint(), 8156097701163546265ULL);
  EXPECT_EQ(t.world_events, 7433u);
  EXPECT_EQ(t.world_lane_fires, 6378u);
  EXPECT_EQ(t.lookups.lookups, 21006u);
  EXPECT_EQ(t.lookups.total_hops, 112485u);
  EXPECT_EQ(t.lookups.failures, 0u);
  EXPECT_GT(t.churn_deaths, 0u);
  EXPECT_GT(t.transport.retried, 0u);
}

TEST(TransportGolden, KademliaLossyExecutorFleetFingerprintUnchanged) {
  // The Kademlia backend's golden: XOR routing with read-only session
  // lookups, a 20% coalition, 5% iid loss with retries, churn with
  // periodic republish, and the 2-domain executor. The same values hold at
  // 1, 2 and 4 domains; Kademlia arms no maintenance lanes.
  core::SweepRunner sweeps(core::SweepOptions{2, 64});
  const workload::ScenarioSpec spec = workload::parse_scenario(
      "kademlia-steady:population=1000,sessions=300,net=lossy,domains=2,"
      "p=0.2,seed=0x4AD");
  const workload::FleetTally t = workload::run_scenario(sweeps, spec);
  EXPECT_EQ(t.fingerprint(), 10165635303923624854ULL);
  EXPECT_EQ(t.transport.fingerprint(), 15789811344011052288ULL);
  EXPECT_EQ(t.events_executed, 8245u);
  EXPECT_EQ(t.world_events, 614u);
  EXPECT_EQ(t.world_lane_fires, 0u);
  EXPECT_EQ(t.lookups.lookups, 6615u);
  EXPECT_EQ(t.lookups.total_hops, 12468u);
  EXPECT_EQ(t.lookups.failures, 0u);
  EXPECT_EQ(t.churn_deaths, 14u);
  EXPECT_EQ(t.transport.dropped, 147u);
  EXPECT_EQ(t.transport.retried, 147u);
}

// -- thread-count invariance of a lossy WAN fleet -----------------------------

TEST(TransportInvariance, LossyWanFleetBitIdenticalAcrossThreadCounts) {
  // Acceptance shape: geo-zoned WAN latencies + 5% iid loss + retries over
  // a multi-world fleet. Both the protocol tally fingerprint and the
  // transport fingerprint (counters + exact hop histogram) must be
  // bit-identical at 1 / 2 / 8 threads, with nonzero drop/retry activity.
  const workload::ScenarioSpec spec = workload::parse_scenario(
      "wan-geo:net=wan:drop=0.05,population=384,sessions=96,worlds=4,"
      "seed=0xF1EE7");
  core::SweepRunner base(core::SweepOptions{1, 64});
  const workload::FleetTally reference = workload::run_scenario(base, spec);
  EXPECT_GT(reference.transport.dropped, 0u);
  EXPECT_GT(reference.transport.retried, 0u);
  for (std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    core::SweepRunner pool(core::SweepOptions{threads, 64});
    const workload::FleetTally rerun = workload::run_scenario(pool, spec);
    EXPECT_EQ(rerun.fingerprint(), reference.fingerprint())
        << "threads=" << threads;
    EXPECT_EQ(rerun.transport.fingerprint(), reference.transport.fingerprint())
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace emergence::dht
