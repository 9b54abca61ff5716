// Tests for the conservative-window parallel executor and its seams: the
// ExecutionContext redirect, window/barrier ordering, commutative stat
// merges, and the headline claim — fleet tallies bit-identical at ANY
// domain count.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dht/network.hpp"
#include "dht/transport.hpp"
#include "emerge/sweep.hpp"
#include "sim/domain_executor.hpp"
#include "sim/execution_context.hpp"
#include "sim/simulator.hpp"
#include "workload/scenario.hpp"
#include "workload/session_fleet.hpp"

namespace emergence {
namespace {

using sim::DomainExecutor;
using sim::ExecutionContext;
using sim::Simulator;
using workload::FleetTally;
using workload::ScenarioSpec;
using workload::SessionFleet;

// -- ExecutionContext redirect ------------------------------------------------

TEST(ExecutionContext, RedirectsSchedulesAndInheritsAcrossEvents) {
  Simulator world;
  Simulator domain;
  world.schedule_at(5.0, [] {});
  world.run();
  ASSERT_EQ(world.now(), 5.0);

  Rng rng(42);
  std::vector<double> seen;
  {
    ExecutionContext ctx;
    ctx.world = &world;
    ctx.domain = &domain;
    ctx.clock = &world;
    ctx.rng = &rng;
    ExecutionContext::Scope scope(ctx);

    // now() reads the context clock (the world, during barrier-phase code).
    EXPECT_EQ(world.now(), 5.0);

    // A world schedule lands in the domain queue; the action inherits the
    // context with the DOMAIN as its clock, so nested schedule_in offsets
    // from the executing event's logical time.
    world.schedule_at(7.0, [&] {
      seen.push_back(world.now());
      world.schedule_in(0.5, [&] { seen.push_back(world.now()); });
    });
    // Past-clamp under a context: clamps to the context clock (5.0).
    world.schedule_at(1.0, [&] { seen.push_back(world.now()); });
  }
  EXPECT_EQ(world.pending(), 0u);
  EXPECT_EQ(domain.pending(), 2u);
  // Outside the scope the world clock is raw again.
  EXPECT_EQ(world.now(), 5.0);

  domain.run_before(8.0);
  EXPECT_EQ(seen, (std::vector<double>{5.0, 7.0, 7.5}));
}

// -- DomainExecutor windows ---------------------------------------------------

TEST(DomainExecutor, BarrierEagerWindowsInTimestampOrder) {
  Simulator global;
  // threads=1: the serial window fallback — ordering is then fully
  // deterministic even across domains (bit-identity makes the parallel
  // path indistinguishable anyway; that is what the fleet gates pin).
  DomainExecutor exec(global, 2, 1.0, 1);

  std::vector<std::pair<int, double>> log;
  auto tag = [&](int who, double at_now) { log.push_back({who, at_now}); };

  // Barrier-eager rule: a global event inside the window commits BEFORE
  // domain events with earlier timestamps run.
  global.schedule_at(1.0, [&] { tag(0, global.now()); });
  exec.domain(0).schedule_at(0.5, [&] { tag(1, exec.domain(0).now()); });
  exec.domain(1).schedule_at(1.2, [&] { tag(2, exec.domain(1).now()); });
  // Exactly at the first window's end [0.5, 1.5): belongs to round 2.
  global.schedule_at(1.5, [&] { tag(3, global.now()); });

  EXPECT_FALSE(exec.run(std::function<bool()>{}));  // drained, not stopped
  EXPECT_EQ(log, (std::vector<std::pair<int, double>>{
                     {0, 1.0}, {1, 0.5}, {2, 1.2}, {3, 1.5}}));
  EXPECT_EQ(exec.rounds(), 2u);
  EXPECT_EQ(exec.domain_events_executed(), 2u);
  EXPECT_EQ(exec.events_per_domain(), (std::vector<std::uint64_t>{1u, 1u}));
}

TEST(DomainExecutor, StopPredicateChecksBetweenRounds) {
  Simulator global;
  DomainExecutor exec(global, 1, 0.5, 1);
  int fired = 0;
  global.schedule_at(0.1, [&] { ++fired; });
  global.schedule_at(10.0, [&] { ++fired; });
  // Stops after the first round (the 10.0 event stays pending).
  EXPECT_TRUE(exec.run([&] { return fired >= 1; }));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(global.pending(), 1u);
}

TEST(DomainExecutor, ParallelWorkersSampleSharedTransportRaceFree) {
  // The zone-cache regression in the form TSan checks: a worker pool
  // FORCED to 4 threads (auto-sizing would go serial on 1-core hosts)
  // where every domain samples latencies and drop chains through ONE
  // shared zoned TransportModel while the barrier hands windows back and
  // forth. Pre-fix, zone_of memoized into a mutable map on first use —
  // a write race exactly on this path.
  dht::TransportModel m;
  m.kind = dht::LatencyKind::kZoned;
  m.zone_count = 4;
  m.intra_min = 0.001;
  m.intra_max = 0.002;
  m.inter_min = 0.004;
  m.inter_max = 0.008;
  m.drop_probability = 0.2;
  m.max_retries = 2;
  m.validate();

  std::vector<dht::NodeId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(dht::NodeId::hash_of_text("tsan-node-" + std::to_string(i)));
    // Half primed (the bootstrap path), half computed on demand from the
    // workers — both must be race-free reads.
    if (i % 2 == 0) m.prime_zone(ids.back());
  }

  Simulator global;
  constexpr std::size_t kDomains = 4;
  DomainExecutor exec(global, kDomains, 0.01, 4);

  Rng root(2026);
  std::vector<Rng> rngs;
  std::vector<dht::TransportStats> stats(kDomains);
  std::vector<std::uint64_t> delivered(kDomains, 0);
  for (std::size_t d = 0; d < kDomains; ++d) rngs.push_back(root.fork(d));

  for (std::size_t d = 0; d < kDomains; ++d) {
    Simulator& queue = exec.domain(d);
    for (int i = 0; i < 50; ++i) {
      queue.schedule_at(0.001 * i, [&m, &ids, &exec, &rngs, &stats,
                                    &delivered, d, i] {
        const dht::NodeId& from = ids[(d * 17 + i) % ids.size()];
        const dht::NodeId& to = ids[(d * 31 + i * 7 + 1) % ids.size()];
        m.send(exec.domain(d), rngs[d], stats[d], from, to,
               [&delivered, d] { ++delivered[d]; });
      });
    }
  }
  EXPECT_FALSE(exec.run(std::function<bool()>{}));

  std::uint64_t total = 0;
  std::uint64_t attempts = 0;
  for (std::size_t d = 0; d < kDomains; ++d) {
    total += delivered[d];
    attempts += stats[d].attempts;
  }
  // p_drop=0.2, 2 retries: per-message timeout probability is 0.008 —
  // the vast majority of the 200 sends must deliver, with retries real.
  EXPECT_GT(total, 150u);
  EXPECT_GT(attempts, 200u);
}

TEST(DomainExecutor, RejectsNonPositiveLookahead) {
  Simulator global;
  EXPECT_THROW(DomainExecutor(global, 2, 0.0), PreconditionError);
  EXPECT_THROW(DomainExecutor(global, 0, 1.0), PreconditionError);
  // A spec whose transport has no latency floor would give every world a
  // zero lookahead, so validate() refuses it before any world is built.
  ScenarioSpec spec = workload::parse_scenario("poisson-open");
  spec.transport.min_latency = 0.0;
  ASSERT_EQ(spec.transport.min_single_latency(), 0.0);
  EXPECT_THROW(spec.validate(), PreconditionError);
}

// -- commutative merges -------------------------------------------------------

TEST(MergeOrder, TransportAndLookupStatsMergeCommute) {
  dht::TransportStats a;
  a.messages = 3;
  a.attempts = 5;
  a.dropped = 1;
  a.hop_latency_us.add(55260);
  a.hop_latency_us.add(99243);
  dht::TransportStats b;
  b.messages = 7;
  b.retried = 2;
  b.timed_out = 1;
  b.hop_latency_us.add(55260);
  b.hop_latency_us.add(12);

  dht::TransportStats ab = a;
  ab.merge(b);
  dht::TransportStats ba = b;
  ba.merge(a);
  EXPECT_EQ(ab.fingerprint(), ba.fingerprint());

  dht::LookupStats la{10, 31, 2};
  dht::LookupStats lb{4, 9, 0};
  dht::LookupStats lab = la;
  lab.merge(lb);
  dht::LookupStats lba = lb;
  lba.merge(la);
  EXPECT_EQ(lab.lookups, lba.lookups);
  EXPECT_EQ(lab.total_hops, lba.total_hops);
  EXPECT_EQ(lab.failures, lba.failures);
}

TEST(MergeOrder, FleetTallyMergeIsOrderIndependent) {
  // Per-world tallies of one 4-world scenario, merged in several orders:
  // every FleetTally field is an integer sum, max, exact histogram or
  // elementwise vector sum, so any order must produce one fingerprint.
  ScenarioSpec spec = workload::parse_scenario(
      "poisson-open:population=400,sessions=120,worlds=4");
  spec.validate();
  std::vector<FleetTally> per_world;
  for (std::size_t w = 0; w < spec.worlds; ++w) {
    per_world.push_back(SessionFleet(spec, w).run());
  }

  const std::vector<std::vector<std::size_t>> orders = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}, {1, 3, 0, 2}};
  std::uint64_t first_fp = 0;
  std::uint64_t first_tfp = 0;
  for (std::size_t i = 0; i < orders.size(); ++i) {
    FleetTally merged;
    for (std::size_t w : orders[i]) merged.merge(per_world[w]);
    if (i == 0) {
      first_fp = merged.fingerprint();
      first_tfp = merged.transport.fingerprint();
    } else {
      EXPECT_EQ(merged.fingerprint(), first_fp) << "order " << i;
      EXPECT_EQ(merged.transport.fingerprint(), first_tfp) << "order " << i;
    }
  }
}

// -- zone cache ---------------------------------------------------------------

TEST(TransportZones, ZoneOfIsPureAndPrimingChangesNothing) {
  dht::TransportModel m;
  m.kind = dht::LatencyKind::kZoned;
  m.zone_count = 4;
  m.intra_min = 0.01;
  m.intra_max = 0.02;
  m.inter_min = 0.05;
  m.inter_max = 0.10;
  m.validate();

  const dht::NodeId a = dht::NodeId::hash_of_text("zone-test-a");
  const dht::NodeId b = dht::NodeId::hash_of_text("zone-test-b");
  // Const zone_of computes without memoizing: repeated calls agree.
  const std::size_t za = m.zone_of(a);
  EXPECT_EQ(m.zone_of(a), za);
  // Priming (the serial bootstrap path) must not change the assignment.
  m.prime_zone(a);
  m.prime_zone(a);  // idempotent
  EXPECT_EQ(m.zone_of(a), za);
  EXPECT_EQ(m.cross_zone(a, b), m.zone_of(a) != m.zone_of(b));
}

TEST(TransportZones, MinSingleLatencyIsTheLawFloor) {
  // The executor's lookahead source: ideal has a 10 ms floor; fixed is
  // exact; zoned takes the min over both ranges.
  EXPECT_DOUBLE_EQ(dht::TransportModel::ideal().min_single_latency(), 0.010);
  dht::TransportModel fixed;
  fixed.kind = dht::LatencyKind::kFixed;
  fixed.max_latency = 0.25;
  EXPECT_DOUBLE_EQ(fixed.min_single_latency(), 0.25);
  dht::TransportModel zoned;
  zoned.kind = dht::LatencyKind::kZoned;
  zoned.zone_count = 2;
  zoned.intra_min = 0.02;
  zoned.intra_max = 0.03;
  zoned.inter_min = 0.08;
  zoned.inter_max = 0.12;
  EXPECT_DOUBLE_EQ(zoned.min_single_latency(), 0.02);
}

// -- domain-count bit-identity ------------------------------------------------

FleetTally run_with_domains(const std::string& text, std::size_t domains) {
  ScenarioSpec spec = workload::parse_scenario(text);
  spec.domains = domains;
  spec.validate();
  core::SweepRunner pool(core::SweepOptions{1, 64});
  return workload::run_scenario(pool, spec);
}

TEST(DomainInvariance, LossyWanChordBitIdenticalAt1248Domains) {
  // The acceptance claim at test scale, on the nastiest axes: WAN latency
  // law + iid loss + bounded retries + churn. Both the protocol tally AND
  // the transport fingerprint (counters + exact hop-latency histogram)
  // must be bit-identical for every domain count.
  const std::string text =
      "poisson-open:population=400,sessions=150,net=wan:drop=0.05;retries=3";
  const FleetTally base = run_with_domains(text, 1);
  EXPECT_EQ(base.sessions_started, 150u);
  for (std::size_t d : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const FleetTally t = run_with_domains(text, d);
    EXPECT_EQ(t.fingerprint(), base.fingerprint()) << "domains=" << d;
    EXPECT_EQ(t.transport.fingerprint(), base.transport.fingerprint())
        << "domains=" << d;
  }
}

TEST(DomainInvariance, KademliaBitIdenticalAcrossDomainCounts) {
  const std::string text =
      "poisson-open:population=400,sessions=120,backend=kademlia";
  const FleetTally base = run_with_domains(text, 1);
  const FleetTally t = run_with_domains(text, 4);
  EXPECT_EQ(t.fingerprint(), base.fingerprint());
  EXPECT_EQ(t.transport.fingerprint(), base.transport.fingerprint());
}

TEST(DomainInvariance, EventsPerDomainSurfacesWindowLoad) {
  const FleetTally t = run_with_domains(
      "poisson-open:population=400,sessions=120", 4);
  ASSERT_EQ(t.events_per_domain.size(), 4u);
  std::uint64_t window_events = 0;
  for (std::uint64_t e : t.events_per_domain) {
    EXPECT_GT(e, 0u);
    window_events += e;
  }
  // Domain events are part of the total; the global queue ran the rest.
  EXPECT_LT(window_events, t.events_executed);
}

}  // namespace
}  // namespace emergence
