// Open-loop traffic generation: fleets of TimedReleaseSessions streaming
// through one long-lived shared world.
//
// SessionFleet is the one world builder of the repository: service loads
// stream open-ended traffic through it, and the cross-validation matrix
// (workload/crossval.hpp) runs its Monte-Carlo worlds on it as small
// fleets of a few sessions each. An arrival process schedules session
// setups on the Simulator clock, each session runs the full protocol
// (paths, onions, holders, delivery at tr) against the shared DHT while
// the churn driver replays the scenario's lifetime law underneath, and a
// reaper collects every finished session's outcome into the exact-integer
// FleetTally before recycling its arena slot — so half a million sessions
// fit in the memory of the few tens of thousands that are ever
// concurrently live.
//
// Determinism contract (docs/architecture.md, "Workloads and scenarios"):
// a world's tally is a pure function of (spec, world_index). All
// randomness flows through Rng::fork sub-streams of the world stream
// (network, coalition marking, churn, arrivals, per-session drbg seeds),
// and a scenario's worlds shard over SweepRunner::run_shards with the
// ascending-index merge rule, so the scenario tally is bit-identical at
// any thread count — regression-tested at 1/2/8 threads like every other
// sweep in this repository.
//
// Each world runs on sim::DomainExecutor, which can also parallelize it
// WITHIN the world: sessions are partitioned by index % ScenarioSpec::
// domains, all shared-state mutation stays on the serial barrier
// (arrivals/setup, churn, maintenance, reaps), and each session's message
// traffic executes in its domain's queue drawing from its own rng stream.
// Tallies are bit-identical across any domain count and any worker count
// (the bench's 1-vs-8 fingerprint gate), and a world stops at its last
// reap.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "dht/network.hpp"
#include "emerge/sweep.hpp"
#include "workload/scenario.hpp"

namespace emergence::obs {
class Tracer;
}  // namespace emergence::obs

namespace emergence::workload {

/// Exact aggregate of fleet outcomes. Every field merges exactly (integer
/// sums, maxes, or the exact Histogram64), so any sharding of the same
/// worlds reproduces the serial tallies bit-identically; worlds are still
/// merged in ascending index order (the sweep rule).
struct FleetTally {
  /// One trial per session: release = coalition restored the secret
  /// strictly early (the stat engine's event — share scheme cascades from
  /// margin >= 2, pre-assigned-key schemes need margin == l; see
  /// SessionFleet::restore_margin_periods); drop = no delivery by tr;
  /// suffix histogram = restore margins.
  core::RunTally tally;

  /// first_delivery - ts quantized to integer microseconds of virtual
  /// time. The protocol's timing contract makes this exactly T for every
  /// delivered session, so p50 == p99 == max is itself a gate; the
  /// histogram is the machinery that would surface any drift.
  Histogram64 latency_us;

  std::uint64_t sessions_started = 0;
  std::uint64_t sessions_delivered = 0;
  std::uint64_t delivered_on_time = 0;  ///< within 1us of tr
  std::int64_t max_delivery_offset_ns = 0;
  /// Spot-check failures: every kPayloadCheckStride-th delivered session
  /// runs receiver_decrypt and compares against the sent payload.
  std::uint64_t payload_mismatches = 0;

  // Summed SessionReport counters across all sessions.
  std::uint64_t packages_sent = 0;
  std::uint64_t packages_delivered = 0;
  std::uint64_t packages_dropped_malicious = 0;
  /// Plus the payloads the world's dispatcher could not route at all.
  std::uint64_t malformed_packages = 0;
  std::uint64_t holders_stuck = 0;
  std::uint64_t key_assignments = 0;
  std::uint64_t deliveries = 0;

  std::uint64_t churn_deaths = 0;
  std::uint64_t churn_transients = 0;
  std::uint64_t churn_replacements = 0;
  std::uint64_t stray_packages = 0;  ///< late packages for retired sessions

  std::uint64_t arena_slots = 0;        ///< slots ever allocated (sum)
  std::uint64_t peak_live_sessions = 0; ///< max concurrently live (max)
  std::uint64_t events_executed = 0;    ///< simulator events (sum)
  /// The world queue, which holds Chord maintenance and churn (the domain
  /// queues hold session traffic): its events and those a lane served
  /// (sums), and the high-water marks of its heap and of heap plus lanes
  /// (maxes). Like transport, NOT part of fingerprint(): they describe the
  /// event layer, not the schedule.
  std::uint64_t world_events = 0;
  std::uint64_t world_lane_fires = 0;
  std::uint64_t world_heap_peak = 0;
  std::uint64_t world_queue_peak = 0;
  double horizon = 0.0;                 ///< virtual end time (max)
  std::uint64_t worlds = 0;

  /// Summed transport counters of every world's network. Deliberately NOT
  /// part of fingerprint(), which digests protocol outcomes only; transport
  /// counters carry their own TransportStats::fingerprint(), which the
  /// goldens and invariance gates check alongside.
  dht::TransportStats transport;
  /// Summed lookup counters of every world's network and its per-domain
  /// shards, merged like transport and, like it, NOT part of fingerprint().
  dht::LookupStats lookups;

  /// Window events executed per domain queue (ScenarioSpec::domains
  /// entries), summed elementwise across worlds. The partition itself
  /// changes with the domain count, so this is D-dependent by construction
  /// and — like transport — deliberately NOT part of fingerprint(); it
  /// feeds the bench's per-domain load report.
  std::vector<std::uint64_t> events_per_domain;

  void merge(const FleetTally& other);
  std::size_t trials() const { return tally.runs(); }
  double drop_rate() const { return tally.drop.rate(); }
  double release_rate() const { return tally.release.rate(); }
  /// Order-independent 64-bit digest of every exact field; two runs of the
  /// same scenario agree iff their fingerprints do (used by the
  /// thread-invariance gates in bench/service_load).
  std::uint64_t fingerprint() const;
};

/// Progress observer for long single-world runs: (virtual_now,
/// sessions_reaped, sessions_started), invoked at most once per 120 s of
/// virtual time and once when the world finishes.
using FleetProgress =
    std::function<void(double, std::uint64_t, std::uint64_t)>;

/// One world of a scenario: builds the substrate, streams its share of the
/// session budget through it, reaps and recycles, returns the exact tally.
class SessionFleet {
 public:
  /// Sessions past tr wait this long (assembly + message latency headroom)
  /// before the reaper collects and recycles them.
  static constexpr double kReapGrace = 2.0;
  /// Every this-many-th delivered session is decrypt-verified end to end.
  static constexpr std::uint64_t kPayloadCheckStride = 997;
  /// Deliveries further than this from tr count as late. The protocol
  /// schedules terminal delivery at the absolute time tr, so the observed
  /// offset is exactly zero; one microsecond absorbs only the ns
  /// quantization of the tally.
  static constexpr std::int64_t kDeliveryToleranceNs = 1000;

  /// The maintenance cadence of a churn world, worked out from the spec:
  /// replica repair (and Kademlia republish) every
  /// min(240 s, mean_lifetime / 50), Chord stabilize every quarter of
  /// that. Repair must run much more often than nodes die so the stat
  /// engine's instant-repair renewal model is a good limit; the cap keeps
  /// it frequent under heavy-tailed lifetime laws, where many nodes die
  /// long before the mean.
  static double repair_interval(const ScenarioSpec& spec);

  /// Maps the coalition's earliest secret-possession time to whole holding
  /// periods before tr (0 = never; l = essentially at ts). The strict
  /// release event excludes the unavoidable terminal-slot leak (margin 1);
  /// the stat engine scores the identical event (design-notes §2).
  static std::size_t restore_margin_periods(double earliest,
                                            double release_time,
                                            double holding_period,
                                            std::size_t path_length);

  /// `spec` must already be validate()d (run_scenario does). `tracer` (may
  /// be null: tracing off) receives the world's lifecycle + hop spans; its
  /// sampling is keyed on content, so the tally is bit-identical with
  /// tracing on or off.
  SessionFleet(const ScenarioSpec& spec, std::size_t world_index,
               obs::Tracer* tracer = nullptr)
      : spec_(spec), world_index_(world_index), tracer_(tracer) {}

  /// Runs the world to completion on the calling thread (plus the
  /// executor's workers when domains > 1). `progress` (may be null) is
  /// invoked between executor rounds; it must not mutate the fleet.
  /// Deterministic: the tally is a pure function of (spec, index).
  FleetTally run(const FleetProgress& progress = nullptr);

 private:
  const ScenarioSpec& spec_;
  std::size_t world_index_;
  obs::Tracer* tracer_;
};

/// Runs every world of the scenario across the sweep pool and merges the
/// tallies in ascending world order — bit-identical at any thread count.
/// `progress` is forwarded only when worlds == 1 (a single serial world);
/// multi-world runs report nothing mid-flight.
FleetTally run_scenario(core::SweepRunner& sweeps, const ScenarioSpec& spec,
                        const FleetProgress& progress = nullptr,
                        obs::Tracer* tracer = nullptr);

}  // namespace emergence::workload
