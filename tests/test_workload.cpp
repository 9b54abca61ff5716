// Tests for the workload subsystem: goodness-of-fit of every lifetime
// model and arrival process at pinned seeds, fork-stream independence,
// scenario registry/parser validation, Network::erase hygiene, and the
// SessionFleet determinism contract (1/2/8-thread bit-identity, arena
// recycling, exact accounting).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "dht/chord_network.hpp"
#include "dht/kademlia.hpp"
#include "workload/arrival.hpp"
#include "workload/lifetime.hpp"
#include "workload/scenario.hpp"
#include "workload/session_fleet.hpp"

namespace emergence::workload {
namespace {

// -- statistical helpers ------------------------------------------------------

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

/// alpha = 0.01 KS acceptance threshold (asymptotic c(0.01) = 1.63). The
/// seeds are pinned, so these tests are deterministic, not flaky; the
/// threshold documents how close the samplers actually are.
double ks_threshold(std::size_t n) {
  return 1.63 / std::sqrt(static_cast<double>(n));
}

std::vector<double> draw(const LifetimeModel& model, std::size_t n,
                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) samples.push_back(model.sample(rng));
  return samples;
}

double sample_mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

// -- lifetime models ----------------------------------------------------------

TEST(LifetimeModels, WeibullMatchesAnalyticCdf) {
  const WeibullLifetime model(0.6, 400.0);
  const std::vector<double> samples = draw(model, 20000, 0x11);
  EXPECT_NEAR(sample_mean(samples), 400.0, 400.0 * 0.05);
  const double k = model.shape(), lambda = model.scale();
  const double d = ks_statistic(samples, [&](double x) {
    return 1.0 - std::exp(-std::pow(x / lambda, k));
  });
  EXPECT_LT(d, ks_threshold(samples.size()));
}

TEST(LifetimeModels, ParetoMatchesAnalyticCdf) {
  // Lomax / Pareto II: F(x) = 1 - (1 + x/scale)^-alpha. alpha = 2.5 keeps
  // the sample mean well-behaved for the mean check; the KS statistic
  // checks the whole shape.
  const ParetoLifetime model(2.5, 400.0);
  const std::vector<double> samples = draw(model, 20000, 0x22);
  EXPECT_NEAR(sample_mean(samples), 400.0, 400.0 * 0.10);
  const double a = model.alpha(), lambda = model.scale();
  const double d = ks_statistic(samples, [&](double x) {
    return 1.0 - std::pow(1.0 + x / lambda, -a);
  });
  EXPECT_LT(d, ks_threshold(samples.size()));
}

TEST(LifetimeModels, TraceMatchesItsOwnCdf) {
  const TraceLifetime model(bundled_session_trace(), 250.0);
  const std::vector<double> samples = draw(model, 20000, 0x33);
  EXPECT_NEAR(sample_mean(samples), 250.0, 250.0 * 0.05);
  // Forward-evaluate the piecewise-linear inverse: F(x) interpolates the
  // quantile between the knots bracketing x.
  const std::vector<CdfPoint>& table = model.table();
  const auto cdf = [&table](double x) {
    if (x <= table.front().value) return table.front().quantile;
    for (std::size_t i = 1; i < table.size(); ++i) {
      if (x <= table[i].value) {
        const double span = table[i].value - table[i - 1].value;
        const double t = span > 0.0 ? (x - table[i - 1].value) / span : 1.0;
        return table[i - 1].quantile +
               t * (table[i].quantile - table[i - 1].quantile);
      }
    }
    return 1.0;
  };
  const double d = ks_statistic(samples, cdf);
  EXPECT_LT(d, ks_threshold(samples.size()));
}

TEST(LifetimeModels, TraceTableValidation) {
  EXPECT_THROW(TraceLifetime({{0.0, 0.0}}, 100.0), PreconditionError);
  EXPECT_THROW(TraceLifetime({{0.1, 0.0}, {1.0, 1.0}}, 100.0),
               PreconditionError);  // must start at quantile 0
  EXPECT_THROW(TraceLifetime({{0.0, 0.0}, {0.9, 1.0}}, 100.0),
               PreconditionError);  // must end at quantile 1
  EXPECT_THROW(TraceLifetime({{0.0, 0.0}, {0.5, 1.0}, {0.5, 2.0}, {1.0, 3.0}},
                             100.0),
               PreconditionError);  // strictly increasing quantiles
  EXPECT_THROW(TraceLifetime({{0.0, 2.0}, {0.5, 1.0}, {1.0, 3.0}}, 100.0),
               PreconditionError);  // non-decreasing values
  EXPECT_THROW(TraceLifetime(bundled_session_trace(), -1.0),
               PreconditionError);  // positive mean
}

TEST(LifetimeModels, SpecBuildsEveryKindAndRejectsBadParameters) {
  for (LifetimeKind kind :
       {LifetimeKind::kExponential, LifetimeKind::kWeibull,
        LifetimeKind::kPareto, LifetimeKind::kTrace}) {
    LifetimeSpec spec;
    spec.kind = kind;
    spec.shape = 1.7;
    const auto model = spec.build(500.0);
    EXPECT_NEAR(model->mean(), 500.0, 1e-9) << to_string(kind);
    EXPECT_EQ(model->name(), to_string(kind));
  }
  LifetimeSpec bad;
  EXPECT_THROW(bad.build(0.0), PreconditionError);
  bad.kind = LifetimeKind::kPareto;
  bad.shape = 1.0;  // infinite mean
  EXPECT_THROW(bad.build(100.0), PreconditionError);
  bad.kind = LifetimeKind::kWeibull;
  bad.shape = 0.0;
  EXPECT_THROW(bad.build(100.0), PreconditionError);
}

// -- arrival processes --------------------------------------------------------

TEST(ArrivalProcesses, DeterministicSpacingIsExactAndDrawFree) {
  const DeterministicArrivals arrivals(4.0);
  Rng rng(0x44), untouched(0x44);
  double t = 0.0;
  for (int i = 1; i <= 100; ++i) {
    t = arrivals.next_after(t, rng);
    EXPECT_DOUBLE_EQ(t, static_cast<double>(i) * 0.25);
  }
  // The process never draws: the stream is untouched.
  EXPECT_EQ(rng.bits(), untouched.bits());
}

TEST(ArrivalProcesses, PoissonInterArrivalsMatchTheRate) {
  const PoissonArrivals arrivals(10.0);
  Rng rng(0x55);
  const std::size_t n = 20000;
  double t = 0.0;
  std::vector<double> gaps;
  gaps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double next = arrivals.next_after(t, rng);
    gaps.push_back(next - t);
    t = next;
  }
  EXPECT_NEAR(sample_mean(gaps), 0.1, 0.1 * 0.05);
  // Exponential gaps: KS against Exp(rate).
  const double d =
      ks_statistic(gaps, [](double x) { return 1.0 - std::exp(-10.0 * x); });
  EXPECT_LT(d, ks_threshold(n));
}

TEST(ArrivalProcesses, DiurnalModulatesTheDay) {
  // Peak quarter (centered on t = period/4) vs trough quarter (3*period/4):
  // intensity ratio approaches (1 + a) / (1 - a) = 9 at a = 0.8.
  const double period = 100.0;
  const DiurnalArrivals arrivals(20.0, 0.8, period);
  Rng rng(0x66);
  std::vector<std::size_t> peak_counts(1, 0), trough_counts(1, 0);
  std::size_t peak = 0, trough = 0;
  double t = 0.0;
  const double horizon = 200.0 * period;
  while (t < horizon) {
    t = arrivals.next_after(t, rng);
    const double phase = std::fmod(t, period) / period;
    if (phase >= 0.125 && phase < 0.375) ++peak;
    if (phase >= 0.625 && phase < 0.875) ++trough;
  }
  ASSERT_GT(trough, 0u);
  const double ratio = static_cast<double>(peak) / static_cast<double>(trough);
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 15.0);
  EXPECT_DOUBLE_EQ(arrivals.mean_rate(), 20.0);
}

TEST(ArrivalProcesses, FlashCrowdBurstsDominateTheWindows) {
  const FlashCrowdArrivals arrivals(2.0, 80.0, 50.0, 10.0, 100.0);
  Rng rng(0x77);
  double t = 0.0;
  std::size_t in_burst = 0, outside = 0;
  const double horizon = 100.0 * 100.0;
  while (t < horizon) {
    t = arrivals.next_after(t, rng);
    if (arrivals.rate_at(t) > 2.0) {
      ++in_burst;
    } else {
      ++outside;
    }
  }
  // Burst windows cover 10% of the axis at 40x the base intensity: the
  // expected split is 800 : 1800 per 100s period.
  const double burst_per_second = static_cast<double>(in_burst) / (0.1 * horizon);
  const double base_per_second = static_cast<double>(outside) / (0.9 * horizon);
  EXPECT_NEAR(burst_per_second, 80.0, 80.0 * 0.1);
  EXPECT_NEAR(base_per_second, 2.0, 2.0 * 0.15);
  EXPECT_NEAR(arrivals.mean_rate(), 2.0 + 78.0 * 0.1, 1e-12);
}

TEST(ArrivalProcesses, SpecValidation) {
  ArrivalSpec spec;
  spec.rate = 0.0;
  EXPECT_THROW(spec.build(), PreconditionError);
  spec = ArrivalSpec{};
  spec.kind = ArrivalKind::kDiurnal;
  spec.amplitude = 1.0;
  EXPECT_THROW(spec.build(), PreconditionError);
  spec = ArrivalSpec{};
  spec.kind = ArrivalKind::kFlashCrowd;
  spec.burst_rate = 0.5;  // below base
  EXPECT_THROW(spec.build(), PreconditionError);
}

TEST(ForkStreams, SubStreamsAreIndependentAndStable) {
  const Rng root(0xF00);
  // Stability: fork(i) depends only on (seed, stream id).
  Rng a = root.fork(7), b = Rng(0xF00).fork(7);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.bits(), b.bits());
  // Independence: distinct streams decorrelate (Pearson r ~ 0 on uniforms).
  Rng x = root.fork(1), y = root.fork(2);
  const std::size_t n = 4096;
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = x.real(), v = y.real();
    sx += u; sy += v; sxx += u * u; syy += v * v; sxy += u * v;
  }
  const double nn = static_cast<double>(n);
  const double r = (nn * sxy - sx * sy) /
                   std::sqrt((nn * sxx - sx * sx) * (nn * syy - sy * sy));
  EXPECT_LT(std::abs(r), 0.05);
}

// -- scenarios ----------------------------------------------------------------

TEST(Scenarios, RegistryIsValidAndCoversTheAdvertisedAxes) {
  const std::vector<ScenarioSpec>& registry = scenario_registry();
  EXPECT_GE(registry.size(), 10u);
  std::set<std::string> names;
  std::set<ArrivalKind> arrivals;
  std::set<LifetimeKind> lifetimes;
  bool kademlia = false, dropping = false, share = false, transient = false;
  for (const ScenarioSpec& s : registry) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    EXPECT_NO_THROW(s.validate()) << s.name;
    arrivals.insert(s.arrival.kind);
    lifetimes.insert(s.lifetime.kind);
    kademlia = kademlia || s.backend == core::DhtBackend::kKademlia;
    dropping = dropping || s.attack_mode == core::AttackMode::kDropping;
    share = share || s.scheme == core::SchemeKind::kShare;
    transient = transient || s.transient_fraction > 0.0;
  }
  EXPECT_EQ(arrivals.size(), 4u);   // every arrival process appears
  EXPECT_EQ(lifetimes.size(), 4u);  // every lifetime law appears
  EXPECT_TRUE(kademlia);
  EXPECT_TRUE(dropping);
  EXPECT_TRUE(share);
  EXPECT_TRUE(transient);
}

TEST(Scenarios, ParserResolvesNamesAndOverrides) {
  const ScenarioSpec plain = parse_scenario("poisson-open");
  EXPECT_EQ(plain.name, "poisson-open");

  const ScenarioSpec tuned = parse_scenario(
      "metro-diurnal:population=4096,sessions=777,worlds=3,seed=0x9,"
      "rate=12.5,T=60,alpha=0.01,backend=kademlia,lifetime=pareto,"
      "lifetime-shape=2.25,arrival=poisson,p=0.1");
  EXPECT_EQ(tuned.population, 4096u);
  EXPECT_EQ(tuned.sessions, 777u);
  EXPECT_EQ(tuned.worlds, 3u);
  EXPECT_EQ(tuned.seed, 0x9u);
  EXPECT_DOUBLE_EQ(tuned.arrival.rate, 12.5);
  EXPECT_DOUBLE_EQ(tuned.emerging_time, 60.0);
  EXPECT_EQ(tuned.backend, core::DhtBackend::kKademlia);
  EXPECT_EQ(tuned.lifetime.kind, LifetimeKind::kPareto);
  EXPECT_DOUBLE_EQ(tuned.lifetime.shape, 2.25);
  EXPECT_EQ(tuned.arrival.kind, ArrivalKind::kPoisson);
  EXPECT_DOUBLE_EQ(tuned.malicious_p, 0.1);
}

TEST(Scenarios, ParserRejectsMalformedSpecsWithClearDiagnostics) {
  const auto message_of = [](const std::string& text) {
    try {
      parse_scenario(text);
    } catch (const PreconditionError& e) {
      return std::string(e.what());
    }
    return std::string("<no error>");
  };
  EXPECT_NE(message_of("no-such-scenario").find("known:"), std::string::npos);
  EXPECT_NE(message_of("poisson-open:bogus-key=1").find("bogus-key"),
            std::string::npos);
  EXPECT_NE(message_of("poisson-open:rate=fast").find("not a number"),
            std::string::npos);
  EXPECT_NE(message_of("poisson-open:population=-5")
                .find("not a non-negative integer"),
            std::string::npos);
  EXPECT_NE(message_of("poisson-open:population=4").find("population"),
            std::string::npos);  // validate(): too small for holders
  EXPECT_NE(message_of("poisson-open:").find("overrides"), std::string::npos);
  EXPECT_NE(message_of("poisson-open:rate").find("key=value"),
            std::string::npos);
  EXPECT_NE(message_of("poisson-open:backend=ipfs").find("chord or kademlia"),
            std::string::npos);
  EXPECT_NE(message_of("poisson-open:domains=0").find("domains"),
            std::string::npos);
  EXPECT_THROW(parse_scenario(""), PreconditionError);
}

// -- Network::erase hygiene ---------------------------------------------------

template <typename Net>
void exercise_erase(Net& net) {
  const dht::NodeId key = dht::NodeId::hash_of_text("erase-me");
  ASSERT_TRUE(net.put(key, bytes_of("payload")));
  ASSERT_NE(net.get(key), nullptr);
  EXPECT_GE(net.erase(key), 1u);
  EXPECT_EQ(net.get(key), nullptr);
  // Erasing an absent key is a harmless no-op.
  EXPECT_EQ(net.erase(key), 0u);
}

TEST(NetworkErase, ChordErasesPrimaryAndReplicas) {
  sim::Simulator sim;
  Rng rng(0x88);
  dht::ChordNetwork net(sim, rng, dht::NetworkConfig{});
  net.bootstrap(48);
  exercise_erase(net);
}

TEST(NetworkErase, KademliaErasesTheNeighborhood) {
  sim::Simulator sim;
  Rng rng(0x99);
  dht::KademliaNetwork net(sim, rng, dht::KademliaConfig{});
  net.bootstrap(48);
  exercise_erase(net);
}

// -- session fleet ------------------------------------------------------------

ScenarioSpec fleet_scenario() {
  ScenarioSpec s;
  s.name = "fleet-test";
  s.population = 96;
  s.arrival.kind = ArrivalKind::kPoisson;
  s.arrival.rate = 4.0;
  s.sessions = 64;
  s.worlds = 4;
  s.emerging_time = 10.0;
  s.shape = core::PathShape{2, 3};
  s.churn = true;
  s.churn_alpha = 0.05;  // mean lifetime 200 vs ~26s horizon
  s.seed = 0xF1EE7;
  return s;
}

void expect_fleet_tallies_identical(const FleetTally& a, const FleetTally& b) {
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.sessions_started, b.sessions_started);
  EXPECT_EQ(a.sessions_delivered, b.sessions_delivered);
  EXPECT_EQ(a.tally.release.successes(), b.tally.release.successes());
  EXPECT_EQ(a.tally.drop.successes(), b.tally.drop.successes());
  EXPECT_EQ(a.tally.suffix_histogram, b.tally.suffix_histogram);
  EXPECT_EQ(a.latency_us.bins(), b.latency_us.bins());
  EXPECT_EQ(a.packages_sent, b.packages_sent);
  EXPECT_EQ(a.churn_deaths, b.churn_deaths);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.horizon, b.horizon);
}

TEST(SessionFleet, TalliesBitIdenticalAt1And2And8Threads) {
  const ScenarioSpec spec = fleet_scenario();
  core::SweepRunner one(core::SweepOptions{1, 64});
  core::SweepRunner two(core::SweepOptions{2, 64});
  core::SweepRunner eight(core::SweepOptions{8, 64});
  const FleetTally t1 = run_scenario(one, spec);
  const FleetTally t2 = run_scenario(two, spec);
  const FleetTally t8 = run_scenario(eight, spec);
  EXPECT_EQ(t1.sessions_started, spec.sessions);
  expect_fleet_tallies_identical(t1, t2);
  expect_fleet_tallies_identical(t1, t8);
}

TEST(SessionFleet, ExactAccountingAndTimingContract) {
  ScenarioSpec spec = fleet_scenario();
  spec.worlds = 1;
  core::SweepRunner sweeps(core::SweepOptions{1, 64});
  const FleetTally t = run_scenario(sweeps, spec);
  EXPECT_EQ(t.sessions_started, spec.sessions);
  EXPECT_EQ(t.trials(), spec.sessions);
  EXPECT_EQ(t.sessions_delivered + t.tally.drop.successes(),
            t.sessions_started);
  EXPECT_EQ(t.delivered_on_time, t.sessions_delivered);
  EXPECT_EQ(t.payload_mismatches, 0u);
  EXPECT_EQ(t.stray_packages, 0u);
  ASSERT_GT(t.sessions_delivered, 0u);
  // Delivery lands exactly at tr: one latency bin at T microseconds.
  const std::int64_t expect_us = std::llround(spec.emerging_time * 1e6);
  EXPECT_EQ(t.latency_us.percentile(0.5), expect_us);
  EXPECT_EQ(t.latency_us.percentile(0.99), expect_us);
  EXPECT_EQ(t.latency_us.max(), expect_us);
  EXPECT_EQ(t.max_delivery_offset_ns, 0);
}

TEST(SessionFleet, ArenaRecyclesSlots) {
  // Low rate and a short T: sessions overlap only a little, so the arena
  // must stay far below one slot per session.
  ScenarioSpec spec = fleet_scenario();
  spec.worlds = 1;
  spec.arrival.kind = ArrivalKind::kDeterministic;
  spec.arrival.rate = 1.0;
  spec.sessions = 50;
  core::SweepRunner sweeps(core::SweepOptions{1, 64});
  const FleetTally t = run_scenario(sweeps, spec);
  EXPECT_EQ(t.sessions_started, 50u);
  EXPECT_LT(t.arena_slots, 25u);
  EXPECT_EQ(t.peak_live_sessions, t.arena_slots);
}

TEST(SessionFleet, DroppingCoalitionDropsAndCovertCoalitionLeaks) {
  ScenarioSpec spec = fleet_scenario();
  spec.worlds = 2;
  spec.sessions = 60;
  spec.malicious_p = 0.4;
  spec.attack_mode = core::AttackMode::kDropping;
  spec.churn = false;
  core::SweepRunner sweeps(core::SweepOptions{0, 64});
  const FleetTally dropping = run_scenario(sweeps, spec);
  EXPECT_GT(dropping.tally.drop.successes(), 0u);
  EXPECT_GT(dropping.packages_dropped_malicious, 0u);

  spec.attack_mode = core::AttackMode::kCovert;
  const FleetTally covert = run_scenario(sweeps, spec);
  // Covert holders forward everything: no drops, but the terminal column
  // leaks into the margin histogram at p = 0.4.
  EXPECT_EQ(covert.tally.drop.successes(), 0u);
  EXPECT_EQ(covert.sessions_delivered, covert.sessions_started);
  EXPECT_GT(covert.tally.suffix_at_least(1), 0u);
}

TEST(SessionFleet, MaintenanceCadenceFollowsTheMeanLifetime) {
  // min(240 s, mean_lifetime / 50): both benchmark fleets sit on the cap.
  EXPECT_EQ(SessionFleet::repair_interval(find_scenario("metro-diurnal")),
            240.0);
  EXPECT_EQ(SessionFleet::repair_interval(find_scenario("share-threshold")),
            240.0);
  EXPECT_EQ(SessionFleet::repair_interval(find_scenario("heavy-tail-churn")),
            120.0);
  ScenarioSpec crossval = find_scenario("share-threshold");
  crossval.emerging_time = 1800.0;
  crossval.churn_alpha = 2.0;
  EXPECT_EQ(SessionFleet::repair_interval(crossval), 18.0);
}

TEST(SessionFleet, RunsEveryRegistryScenarioAtSmokeScale) {
  core::SweepRunner sweeps(core::SweepOptions{0, 64});
  for (ScenarioSpec spec : scenario_registry()) {
    spec.population = std::max<std::size_t>(64, spec.population / 16);
    spec.sessions = 40;
    spec.worlds = 2;
    const FleetTally t = run_scenario(sweeps, spec);
    EXPECT_EQ(t.sessions_started, 40u) << spec.name;
    EXPECT_EQ(t.sessions_delivered + t.tally.drop.successes(), 40u)
        << spec.name;
    EXPECT_EQ(t.payload_mismatches, 0u) << spec.name;
    if (spec.exact_delivery()) {
      EXPECT_EQ(t.delivered_on_time, t.sessions_delivered) << spec.name;
    } else {
      // Non-exact transports (the partition-heal axis) deliver late but
      // bounded: within the transport's reap_slack of tr.
      EXPECT_LE(static_cast<double>(t.max_delivery_offset_ns),
                spec.transport.reap_slack(spec.shape.l) * 1e9)
          << spec.name;
    }
  }
}

}  // namespace
}  // namespace emergence::workload
