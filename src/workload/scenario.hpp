// Declarative workload scenarios: one spec describes a whole service run.
//
// A ScenarioSpec pins everything a SessionFleet world needs — DHT backend
// and population, routing scheme and geometry, the arrival process feeding
// new TimedReleaseSessions, the churn lifetime law, the adversary, the
// emerging period T and its churn ratio alpha, and the session budget. The
// registry names ~10 curated scenarios (README table); parse_scenario()
// resolves "name" or "name:key=value,key=value" override strings with
// validated error.hpp diagnostics, which is what bench/service_load and
// the workload-smoke CI job drive.
//
// Scale knobs (population, sessions, worlds, seed) deliberately override
// cleanly: the named scenarios define the *shape* of the load, the caller
// sizes it — the same metro-diurnal spec runs as a 384-node CI smoke and
// as the 100k-node / 500k-session acceptance world.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "dht/transport.hpp"
#include "emerge/adversary.hpp"
#include "emerge/types.hpp"
#include "workload/arrival.hpp"
#include "workload/lifetime.hpp"

namespace emergence::workload {

/// Everything one service-load run needs, in one declarative value.
struct ScenarioSpec {
  std::string name;
  std::string summary;  ///< one-line registry description

  // -- substrate ---------------------------------------------------------------
  core::DhtBackend backend = core::DhtBackend::kChord;
  std::size_t population = 1000;

  // -- scheme ------------------------------------------------------------------
  core::SchemeKind scheme = core::SchemeKind::kJoint;
  core::PathShape shape{2, 3};
  std::size_t carriers_n = 0;   ///< share scheme: holders per column (0 = k+1)
  std::size_t threshold_m = 0;  ///< share scheme: Shamir threshold (0 = k)

  // -- traffic -----------------------------------------------------------------
  ArrivalSpec arrival;
  std::size_t sessions = 10000;  ///< session budget (total across worlds)
  double emerging_time = 120.0;  ///< T in virtual seconds

  // -- churn -------------------------------------------------------------------
  bool churn = true;
  /// T = alpha * mean node lifetime (the paper's churn ratio). A service
  /// world outlives any one session, so realistic service scenarios use
  /// alpha << 1 (nodes live much longer than one emerging period).
  double churn_alpha = 0.01;
  LifetimeSpec lifetime;
  double transient_fraction = 0.0;

  // -- adversary ---------------------------------------------------------------
  core::AttackMode attack_mode = core::AttackMode::kCovert;
  double malicious_p = 0.0;  ///< coalition fraction of the population

  // -- transport ---------------------------------------------------------------
  /// Message-level transport every world's network runs on (latency law,
  /// iid loss, bounded retries, optional partition window). The default
  /// is ideal(), uniform over [10 ms, 100 ms]; the net= override selects
  /// lan / wan / lossy / straggler / partition-heal axes.
  dht::TransportModel transport;

  // -- execution ---------------------------------------------------------------
  /// Independent worlds the budget is split across. Worlds shard over the
  /// sweep pool and merge in ascending index order, so the scenario tally
  /// is bit-identical at any thread count. 1 = one big shared world (the
  /// acceptance configuration).
  std::size_t worlds = 1;
  /// Parallel domains WITHIN each world (>= 1): every world runs on
  /// sim::DomainExecutor's conservative windows with its sessions
  /// partitioned by index % domains. Tallies are bit-identical at any
  /// domain count and any worker count; only wall time changes.
  std::size_t domains = 1;
  std::uint64_t seed = 0x5EA51CE;

  double mean_lifetime() const { return emerging_time / churn_alpha; }
  double holding_period() const {
    return emerging_time / static_cast<double>(shape.l);
  }
  /// carriers_n and threshold_m with the protocol's share defaults
  /// applied (core::with_share_defaults).
  std::size_t resolved_carriers() const;
  std::size_t resolved_threshold() const;
  std::size_t malicious_count() const;
  /// Budget of world `index` (earlier worlds absorb the remainder).
  std::size_t sessions_in_world(std::size_t index) const;
  /// True when the transport keeps the exact-at-tr delivery contract for
  /// this geometry (1.0 is the SessionConfig assembly_delay every fleet
  /// world uses). The timing gates in bench/service_load and the
  /// cross-validation matrix switch from strict equality to the
  /// reap_slack lateness bound when this is false.
  bool exact_delivery() const {
    return transport.guarantees_exact_delivery(holding_period(), 1.0);
  }

  /// Throws PreconditionError with a field-naming message on any invalid
  /// combination (zero population/sessions/domains, p outside [0,1],
  /// alpha <= 0, share-threshold violations, th too short for the network,
  /// a transport with no latency floor for the executor's lookahead, ...).
  void validate() const;
};

/// The curated named scenarios (stable order; names are unique).
const std::vector<ScenarioSpec>& scenario_registry();

/// Registry lookup; throws PreconditionError listing the known names when
/// `name` is not one of them.
ScenarioSpec find_scenario(const std::string& name);

/// Resolves "name" or "name:key=value,key=value,...". Override keys:
///   population, sessions, worlds, domains, seed, T, alpha, p, rate,
///   amplitude,
///   period, burst-rate, burst-start, burst-length, burst-period, k, l,
///   carriers, threshold, transient, backend (chord|kademlia),
///   scheme (centralized|disjoint|joint|share),
///   arrival (deterministic|poisson|diurnal|flash-crowd),
///   lifetime (exponential|weibull|pareto|trace), lifetime-shape,
///   net (ideal|lan|wan|lossy|straggler|partition-heal, with optional
///   ';'-separated sub-keys after a ':', e.g. net=lossy:p=0.05;retries=2 —
///   see dht::TransportModel::parse).
/// Throws PreconditionError with the offending token on malformed input;
/// the result is validate()d before it is returned.
ScenarioSpec parse_scenario(const std::string& text);

/// Registers the protocol-shape keys — scheme, k, l, carriers, threshold,
/// T — on `table`, writing through to the given fields. This is the ONE
/// home of those key spellings: scenario_option_table() uses it for
/// "name:key=value" overrides and the `emerged` daemon/submit command
/// lines use it for their flags, so the two surfaces can never drift.
void add_protocol_options(OptionTable& table, core::SchemeKind& scheme,
                          core::PathShape& shape, std::size_t& carriers_n,
                          std::size_t& threshold_m, double& emerging_time);

/// The full override table for one spec: every key parse_scenario accepts,
/// bound to `spec` (which must outlive the table). Exposed so help surfaces
/// (bench drivers, the daemon) render the real key list instead of a copy.
OptionTable scenario_option_table(ScenarioSpec& spec);

}  // namespace emergence::workload
