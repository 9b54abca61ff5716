// The observability layer's contracts: Histogram64 percentile edges, the
// commutative registry merge, the pinned FNV fingerprint construction, and
// the determinism guarantee that tracing never perturbs a world — fleet and
// transport fingerprints are bit-identical with tracing on or off, at any
// domain count, and the exported trace bytes are invariant under sharding.
#include <algorithm>
#include <numeric>
#include <random>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/stats.hpp"
#include "gtest/gtest.h"
#include "obs/bridge.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/scenario.hpp"
#include "workload/session_fleet.hpp"

namespace emergence {
namespace {

// -- Histogram64 percentile edge cases ---------------------------------------

TEST(Histogram64, EmptyHistogramReportsZeros) {
  Histogram64 h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.percentile(0.0), 0);
  EXPECT_EQ(h.percentile(0.5), 0);
  EXPECT_EQ(h.percentile(1.0), 0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram64, SingleBucketEveryPercentileIsThatKey) {
  Histogram64 h;
  h.add(42, 1000);
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.percentile(q), 42) << "q=" << q;
  }
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
  EXPECT_EQ(h.mean(), 42.0);
}

TEST(Histogram64, SaturatedTopBucketDominatesHighPercentiles) {
  // One sample each at 1..9, then a top bucket holding ~all of the mass:
  // every percentile above the tiny head must land on the top key, and
  // q=1.0 must too (ceil(q*count) == count).
  Histogram64 h;
  for (std::int64_t k = 1; k <= 9; ++k) h.add(k);
  h.add(1000000, 991);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.percentile(0.009), 9);
  EXPECT_EQ(h.percentile(0.01), 1000000);
  EXPECT_EQ(h.percentile(0.5), 1000000);
  EXPECT_EQ(h.percentile(0.99), 1000000);
  EXPECT_EQ(h.percentile(1.0), 1000000);
  EXPECT_EQ(h.max(), 1000000);
  // Out-of-range q clamps instead of reading past the bins.
  EXPECT_EQ(h.percentile(-1.0), h.percentile(0.0));
  EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
}

// -- registry merge commutativity --------------------------------------------

/// Builds the i-th "domain shard" registry of a synthetic run: overlapping
/// counter/gauge/histogram series with shard-dependent values.
obs::MetricsRegistry shard_registry(std::size_t i) {
  obs::MetricsRegistry r;
  r.counter("emergence_test_events_total") += 10 * (i + 1);
  r.counter("emergence_test_drops_total",
            {{"domain", std::to_string(i % 2)}}) += i;
  r.gauge("emergence_test_peak") = static_cast<double>((i * 7) % 5);
  auto& h = r.histogram("emergence_test_latency_us");
  h.add(static_cast<std::int64_t>(100 * i), i + 1);
  h.add(50, 2);
  return r;
}

TEST(MetricsRegistry, MergeIsCommutativeUnderPermutedDomainOrders) {
  constexpr std::size_t kShards = 6;
  std::vector<std::size_t> order(kShards);
  std::iota(order.begin(), order.end(), 0u);

  obs::MetricsRegistry reference;
  for (std::size_t i : order) reference.merge(shard_registry(i));
  ASSERT_FALSE(reference.empty());

  std::mt19937 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::shuffle(order.begin(), order.end(), rng);
    obs::MetricsRegistry permuted;
    for (std::size_t i : order) permuted.merge(shard_registry(i));
    EXPECT_EQ(permuted.fingerprint(), reference.fingerprint());
    EXPECT_EQ(permuted.counters(), reference.counters());
    EXPECT_EQ(permuted.gauges(), reference.gauges());
  }
}

TEST(MetricsRegistry, MergeRules) {
  obs::MetricsRegistry a;
  a.counter("emergence_c") = 3;
  a.gauge("emergence_g") = 2.5;
  a.histogram("emergence_h").add(1);
  obs::MetricsRegistry b;
  b.counter("emergence_c") = 4;
  b.gauge("emergence_g") = 1.5;
  b.histogram("emergence_h").add(9);
  a.merge(b);
  EXPECT_EQ(a.counters().at("emergence_c"), 7u);   // counters sum
  EXPECT_EQ(a.gauges().at("emergence_g"), 2.5);    // gauges keep the max
  EXPECT_EQ(a.histograms().at("emergence_h").count(), 2u);  // exact merge
}

TEST(MetricsRegistry, SeriesKeyValidatesAndSortsLabels) {
  EXPECT_EQ(obs::series_key("emergence_x", {}), "emergence_x");
  EXPECT_EQ(obs::series_key("emergence_x", {{"b", "2"}, {"a", "1"}}),
            "emergence_x{a=\"1\",b=\"2\"}");
  EXPECT_THROW(obs::series_key("bad name", {}), Error);
  EXPECT_THROW(obs::series_key("1leading", {}), Error);
}

TEST(MetricsRegistry, FlattenExpandsHistogramsDeterministically) {
  obs::MetricsRegistry r;
  r.counter("emergence_c") = 2;
  r.histogram("emergence_h").add(10, 4);
  const auto rows = r.flatten();
  ASSERT_EQ(rows.size(), 7u);  // 1 counter + 6 histogram pseudo-series
  EXPECT_EQ(rows[0].first, "emergence_c");
  EXPECT_EQ(rows[0].second, 2.0);
  EXPECT_EQ(rows[1].first, "emergence_h_count");
  EXPECT_EQ(rows[1].second, 4.0);
}

TEST(MetricsRegistry, PrometheusAndJsonSinksRender) {
  obs::MetricsRegistry r;
  r.counter("emergence_c", {{"k", "v"}}) = 5;
  r.gauge("emergence_g") = 1.25;
  r.histogram("emergence_h").add(3);
  const std::string prom = r.to_prometheus();
  EXPECT_NE(prom.find("# TYPE emergence_c counter"), std::string::npos);
  EXPECT_NE(prom.find("emergence_c{k=\"v\"} 5"), std::string::npos);
  EXPECT_NE(prom.find("emergence_g 1.25"), std::string::npos);
  std::ostringstream js;
  r.write_json(js);
  EXPECT_NE(js.str().find("\"counters\""), std::string::npos);
  EXPECT_NE(js.str().find("\"emergence_h\""), std::string::npos);
}

// -- the pinned fingerprint construction -------------------------------------

TEST(FingerprintGolden, PinnedFnv1aConstruction) {
  // Golden values for the shared FNV-1a digest (common/fingerprint.hpp).
  // These pin the exact construction every fingerprint in the repository
  // derives from: if one of them moves, every recorded BENCH fingerprint
  // and CI bit-identity gate silently changes meaning.
  EXPECT_EQ(kFnvOffset, 0xcbf29ce484222325ULL);
  EXPECT_EQ(kFnvPrime, 0x100000001b3ULL);
  EXPECT_EQ(Fingerprint().value(), kFnvOffset);  // empty sequence
  // fnv1a over the little-endian bytes, computed once and pinned.
  EXPECT_EQ(Fingerprint().mix(0).value(), 0xa8c7f832281a39c5ULL);
  EXPECT_EQ(Fingerprint().mix(1).value(), 0x89cd31291d2aefa4ULL);
  EXPECT_EQ(Fingerprint().mix(0xdeadbeef).value(), 0x7513fc78a110e05bULL);
  EXPECT_EQ(Fingerprint().mix(1).mix(2).value(), 0x7717980363c8e066ULL);
  // Order matters (it is a digest over a sequence, not a set).
  EXPECT_NE(Fingerprint().mix(1).mix(2).value(),
            Fingerprint().mix(2).mix(1).value());
}

TEST(FingerprintGolden, RegistryFingerprintIsOrderIndependent) {
  obs::MetricsRegistry a;
  a.counter("emergence_one") = 1;
  a.counter("emergence_two") = 2;
  obs::MetricsRegistry b;
  b.counter("emergence_two") = 2;
  b.counter("emergence_one") = 1;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.counter("emergence_two") = 3;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// -- sampling determinism ----------------------------------------------------

TEST(Tracer, SamplingIsPureAndRateMonotone) {
  obs::Tracer all(99, 1.0);
  obs::Tracer none(99, 0.0);
  obs::Tracer half(99, 0.5);
  obs::Tracer half_again(99, 0.5);
  std::size_t admitted = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_TRUE(all.sample(key));
    EXPECT_FALSE(none.sample(key));
    const bool h = half.sample(key);
    EXPECT_EQ(h, half_again.sample(key));  // pure in (seed, rate, key)
    if (h) ++admitted;
    // Shards answer identically to their owner.
  }
  EXPECT_GT(admitted, 350u);
  EXPECT_LT(admitted, 650u);
}

TEST(Tracer, ShardSampleMatchesOwner) {
  obs::Tracer tracer(1234, 0.5);
  obs::TraceShard* shard = tracer.new_shard();
  for (std::uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(shard->sample(key), tracer.sample(key));
  }
}

TEST(Tracer, CanonicalExportIsShardingInvariant) {
  auto event = [](std::int64_t ts, const char* name) {
    obs::TraceEvent e;
    e.ts_us = ts;
    e.name = name;
    e.cat = "test";
    return e;
  };
  // The same multiset of events, recorded onto different shard layouts.
  obs::Tracer one(7, 1.0);
  obs::TraceShard* s = one.new_shard();
  s->record(event(30, "c"));
  s->record(event(10, "a"));
  s->record(event(20, "b"));
  s->record(event(10, "a"));  // duplicate content must survive

  obs::Tracer many(7, 1.0);
  many.new_shard()->record(event(10, "a"));
  many.new_shard()->record(event(30, "c"));
  obs::TraceShard* last = many.new_shard();
  last->record(event(10, "a"));
  last->record(event(20, "b"));

  std::ostringstream os_one, os_many;
  one.write_chrome_trace(os_one);
  many.write_chrome_trace(os_many);
  EXPECT_EQ(os_one.str(), os_many.str());
  EXPECT_EQ(one.event_count(), 4u);
  ASSERT_EQ(one.sorted_events().size(), 4u);
  EXPECT_EQ(one.sorted_events()[0].name, "a");
  EXPECT_EQ(one.sorted_events()[3].name, "c");
}

TEST(Tracer, DrainJsonlClearsBuffers) {
  obs::Tracer tracer(7, 1.0);
  obs::TraceShard* shard = tracer.new_shard();
  obs::TraceEvent e;
  e.name = "x";
  e.cat = "test";
  shard->record(e);
  std::ostringstream os;
  tracer.drain_jsonl(os);
  EXPECT_NE(os.str().find("\"x\""), std::string::npos);
  EXPECT_EQ(tracer.event_count(), 0u);
  std::ostringstream again;
  tracer.drain_jsonl(again);
  EXPECT_TRUE(again.str().empty());
}

// -- tracing never perturbs the world ----------------------------------------

workload::ScenarioSpec traced_scenario(std::size_t domains) {
  workload::ScenarioSpec s = workload::find_scenario("lossy-links");
  s.population = 200;
  s.sessions = 96;
  s.worlds = 2;
  s.domains = domains;
  return s;
}

TEST(TraceDeterminism, FingerprintsIdenticalTraceOnOrOffAtAnyDomainCount) {
  core::SweepRunner sweeps(core::SweepOptions{4, 64});

  const workload::FleetTally off1 =
      workload::run_scenario(sweeps, traced_scenario(1));
  obs::Tracer trace1(traced_scenario(1).seed, 1.0);
  const workload::FleetTally on1 =
      workload::run_scenario(sweeps, traced_scenario(1), nullptr, &trace1);

  const workload::FleetTally off8 =
      workload::run_scenario(sweeps, traced_scenario(8));
  obs::Tracer trace8(traced_scenario(8).seed, 1.0);
  const workload::FleetTally on8 =
      workload::run_scenario(sweeps, traced_scenario(8), nullptr, &trace8);

  // Tracing must not consume a single draw from any world rng stream.
  EXPECT_EQ(off1.fingerprint(), on1.fingerprint());
  EXPECT_EQ(off1.transport.fingerprint(), on1.transport.fingerprint());
  EXPECT_EQ(off8.fingerprint(), on8.fingerprint());
  EXPECT_EQ(off8.transport.fingerprint(), on8.transport.fingerprint());
  EXPECT_EQ(off1.fingerprint(), off8.fingerprint());
  EXPECT_EQ(off1.transport.fingerprint(), off8.transport.fingerprint());

  // And the canonical trace bytes are invariant under domain sharding.
  ASSERT_GT(trace1.event_count(), 0u);
  std::ostringstream t1, t8;
  trace1.write_chrome_trace(t1);
  trace8.write_chrome_trace(t8);
  EXPECT_EQ(t1.str(), t8.str());
}

TEST(TraceDeterminism, ChromeTraceShapeIsLoadable) {
  core::SweepRunner sweeps(core::SweepOptions{2, 64});
  obs::Tracer tracer(traced_scenario(1).seed, 0.25);
  (void)workload::run_scenario(sweeps, traced_scenario(1), nullptr, &tracer);
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const std::string json = os.str();
  // Cheap shape probes; tools/check_obs.py does the full JSON validation.
  EXPECT_EQ(json.rfind("{\"traceEvents\":", 0), 0u);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"session\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"transport\""), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

TEST(BridgePublish, FleetTallyLandsOnTheRegistry) {
  core::SweepRunner sweeps(core::SweepOptions{2, 64});
  const workload::FleetTally tally =
      workload::run_scenario(sweeps, traced_scenario(1));
  obs::MetricsRegistry registry;
  obs::publish(registry, tally, {{"scenario", "lossy-links"}});
  EXPECT_EQ(registry.counters().at(
                "emergence_fleet_sessions_started_total{scenario=\"lossy-links\"}"),
            tally.sessions_started);
  EXPECT_FALSE(
      registry.histograms()
          .at("emergence_fleet_delivery_latency_us{scenario=\"lossy-links\"}")
          .empty());
  EXPECT_EQ(registry.counters().at(
                "emergence_lookup_lookups_total{scenario=\"lossy-links\"}"),
            tally.lookups.lookups);
  EXPECT_GT(tally.lookups.lookups, 0u);
  // Publishing the same tally from two "shards" then merging matches a
  // single publish of the merged counts doubled.
  obs::MetricsRegistry a, b;
  obs::publish(a, tally);
  obs::publish(b, tally);
  a.merge(b);
  EXPECT_EQ(a.counters().at("emergence_fleet_sessions_started_total"),
            2 * tally.sessions_started);
}

}  // namespace
}  // namespace emergence
