// Message-level transport model: latency, loss and bounded retries for
// every application message both DHT backends schedule.
//
// The paper's "delivery exactly at tr" guarantee was partly an artifact of
// the original zero-cost network: every send_message/send_message_routed
// sampled one uniform latency and nothing was ever lost in flight. A
// TransportModel generalizes that link into the models WAN experiments
// need — fixed, uniform, LogNormal (heavy-tail stragglers) and geo-zoned
// latency distributions, an iid drop probability, timeout + bounded-retry
// with exponential backoff, and a deterministic partition-heal window —
// while the default-constructed model, TransportModel::ideal(), is the
// plain uniform [10 ms, 100 ms] draw (one Rng::real() per message, one
// scheduled event, no drop branch).
//
// Determinism contract: all randomness flows through the owning network's
// Rng in send order; zone assignment is a pure function of
// (zone_seed, NodeId) via Rng::fork, and the partition window consumes no
// draws at all (a time-gated deterministic outage). Retransmits are real
// simulator events, so the Simulator's FIFO-among-equal-timestamps rule
// orders them after the sends that preceded them.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "dht/node_id.hpp"
#include "sim/simulator.hpp"

namespace emergence::obs {
class TraceShard;
}  // namespace emergence::obs

namespace emergence::dht {

/// Exact per-network transport counters. Integer counters plus the exact
/// Histogram64, so merge() is associative/commutative and any sharding of
/// the same worlds reproduces the serial stats bit-identically. Kept OUT of
/// FleetTally::fingerprint() (the pre-transport goldens stay anchored);
/// thread-invariance gates compare TransportStats::fingerprint() alongside.
struct TransportStats {
  std::uint64_t messages = 0;   ///< send() calls (logical messages)
  std::uint64_t attempts = 0;   ///< physical transmissions incl. retries
  std::uint64_t dropped = 0;    ///< attempts lost in flight
  std::uint64_t retried = 0;    ///< retransmissions scheduled
  std::uint64_t timed_out = 0;  ///< messages lost after the retry budget
  /// Delivered-attempt hop latency, quantized to integer microseconds.
  Histogram64 hop_latency_us;

  void merge(const TransportStats& other);
  /// FNV-1a digest of every field (same construction as
  /// FleetTally::fingerprint); equal stats <=> equal fingerprints.
  std::uint64_t fingerprint() const;
};

/// Per-link latency law.
enum class LatencyKind : std::uint8_t {
  kFixed,      ///< constant latency, no rng draw
  kUniform,    ///< uniform over [min_latency, max_latency], one draw
  kLogNormal,  ///< exp(N(log_mu, log_sigma)) truncated to cap, two draws
  kZoned,      ///< uniform intra/inter ranges keyed by deterministic zones
};

/// The transport configuration + sampling/scheduling engine. A plain value
/// type: NetworkConfig/KademliaConfig carry one and the network owns a copy.
/// Default-constructed, it is the ideal() law: uniform over [10 ms, 100 ms]
/// with no loss, the latency every config uses unless told otherwise.
struct TransportModel {
  LatencyKind kind = LatencyKind::kUniform;

  // -- latency (kFixed uses max_latency; kUniform draws over [min, max]) -------
  double min_latency = 0.010;
  double max_latency = 0.100;
  double log_mu = 0.0;     ///< kLogNormal: mean of the underlying normal
  double log_sigma = 0.0;  ///< kLogNormal: stddev of the underlying normal
  double cap = 0.0;        ///< kLogNormal: hard truncation (worst case)

  // -- geo zones (kZoned; partition-heal reuses them) --------------------------
  std::size_t zone_count = 1;
  std::uint64_t zone_seed = 0x9E0C0DE5ULL;
  double intra_min = 0.0, intra_max = 0.0;
  double inter_min = 0.0, inter_max = 0.0;

  // -- loss + bounded retry ----------------------------------------------------
  double drop_probability = 0.0;  ///< iid per attempt
  std::size_t max_retries = 0;    ///< retransmissions after the first attempt
  double retry_timeout = 0.5;     ///< first retransmit delay (seconds)
  double retry_backoff = 2.0;     ///< exponential backoff factor

  // -- partition-heal window ---------------------------------------------------
  /// During [partition_start, partition_end) every inter-zone attempt (or
  /// every attempt when zone_count <= 1: a global outage) is dropped
  /// deterministically — no rng draw, so healed reruns replay identically.
  double partition_start = 0.0;
  double partition_end = 0.0;

  // -- presets (the scenario registry's net= axes) -----------------------------
  /// The default-constructed model; parse() rejects a loss model on it.
  static TransportModel ideal();
  static TransportModel lan();
  static TransportModel wan();
  static TransportModel lossy(double p = 0.05);
  static TransportModel straggler();
  static TransportModel partition_heal(double start = 60.0, double end = 180.0);

  /// Resolves the `net=` scenario-axis mini-grammar:
  ///   "wan"  "lossy:p=0.08"  "wan:drop=0.01;retries=5"
  ///   "partition-heal:start=100;end=220;zones=2"
  /// Preset name, then ';'-separated key=value params (p|drop, retries,
  /// timeout, backoff, zones, start, end, cap). Throws PreconditionError
  /// naming the offending token; the result is validate()d.
  static TransportModel parse(const std::string& text);

  /// One-line human description for bench/report captions.
  std::string describe() const;

  /// Throws PreconditionError on inconsistent parameters.
  void validate() const;

  // -- derived bounds (the protocol timing contract reads these) ---------------
  /// Worst-case latency of one successful attempt (Network::
  /// max_message_latency; the session precondition th > assembly + 4*L).
  double max_single_latency() const;
  /// Best-case latency of one successful attempt: the floor of the latency
  /// law. This is the domain executor's conservative lookahead — the
  /// soonest a message sent at a window barrier can become a domain event.
  /// 0 for laws without a configured floor, which ScenarioSpec::validate
  /// rejects (ideal() has a 10 ms floor).
  double min_single_latency() const;
  /// Sum of all retransmit delays: timeout * (1 + b + ... + b^(r-1)).
  double retry_delay_sum() const;
  bool has_partition() const { return partition_end > partition_start; }
  double partition_length() const {
    return has_partition() ? partition_end - partition_start : 0.0;
  }
  bool partition_active(double now) const {
    return has_partition() && now >= partition_start && now < partition_end;
  }
  /// True when attempts can be lost (iid drop or a partition window).
  bool can_drop() const { return drop_probability > 0.0 || has_partition(); }
  /// The documented tolerance rule: delivery stays *exactly* at tr when no
  /// partition exists and a message retried to exhaustion still arrives
  /// inside its column's slack (retry_delay_sum + L + assembly < th).
  /// Scenarios violating this deliver late-but-bounded (protocol.cpp clamps
  /// its absolute-time schedules to now), and the exactness gates relax.
  bool guarantees_exact_delivery(double holding_period,
                                 double assembly_delay) const;
  /// Extra grace a fleet reaper must add after tr before recycling a
  /// session slot: per-hop worst lateness (retry chain + latency + assembly)
  /// times the path length, plus the partition window. 0 for pure-latency
  /// transports, whose session events all fire by tr.
  double reap_slack(std::size_t path_length) const;

  // -- zones -------------------------------------------------------------------
  /// Deterministic zone of a node: Rng(zone_seed).fork(id-prefix) mod
  /// zone_count. Pure in (zone_seed, id). Reads the primed cache when the
  /// id is known, otherwise computes from scratch WITHOUT memoizing —
  /// zone_of is logically const and must stay safe to call concurrently
  /// from parallel domains (the old lazily-filled mutable cache was a data
  /// race the moment two domains sampled latencies on one network's model).
  std::size_t zone_of(const NodeId& id) const;
  bool cross_zone(const NodeId& from, const NodeId& to) const;
  /// Precomputes `id`'s zone into the cache. Networks prime every node at
  /// bootstrap/add_node time — both are serial barrier-phase operations, so
  /// the cache is read-only whenever domains run in parallel.
  void prime_zone(const NodeId& id);

  // -- engine ------------------------------------------------------------------
  /// One latency sample for a (possibly cross-zone) link. Draw counts per
  /// kind are fixed (fixed: 0, uniform/zoned: 1, lognormal: 2) so draw
  /// sequences are reproducible run to run.
  double sample_latency(Rng& rng, bool cross) const;

  /// Schedules `deliver` for one logical message from->to: samples the
  /// drop/latency chain, records stats, and schedules retransmits as real
  /// simulator events on loss. With no loss configured this is exactly the
  /// historical path: one latency sample, one scheduled event. `trace`
  /// (may be null: tracing off) receives sampled per-attempt hop spans —
  /// the sampling decision is keyed on message content through the
  /// tracer's own forked stream, so it never consumes a draw from `rng`
  /// and schedules/stats stay bit-identical with tracing on or off.
  void send(sim::Simulator& sim, Rng& rng, TransportStats& stats,
            const NodeId& from, const NodeId& to,
            std::function<void()> deliver,
            obs::TraceShard* trace = nullptr) const;

 private:
  void attempt(sim::Simulator& sim, Rng& rng, TransportStats& stats,
               bool cross, std::function<void()> deliver,
               std::size_t attempt_index, obs::TraceShard* trace,
               std::string link) const;

  /// Zone cache: zone_of is pure in the id, so entries never invalidate
  /// (churn rejoins reuse ids). Filled ONLY via prime_zone() from serial
  /// code; const paths read it without ever inserting, keeping concurrent
  /// sampling race-free.
  std::size_t compute_zone(const NodeId& id) const;
  std::unordered_map<NodeId, std::size_t, NodeIdHash> zone_cache_;
};

}  // namespace emergence::dht
