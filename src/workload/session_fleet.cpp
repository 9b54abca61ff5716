#include "workload/session_fleet.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "cloud/cloud_store.hpp"
#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "dht/chord_network.hpp"
#include "dht/churn_driver.hpp"
#include "dht/kademlia.hpp"
#include "emerge/protocol.hpp"
#include "emerge/session_dispatcher.hpp"
#include "obs/trace.hpp"
#include "sim/domain_executor.hpp"
#include "sim/execution_context.hpp"
#include "sim/simulator.hpp"

namespace emergence::workload {

void FleetTally::merge(const FleetTally& other) {
  tally.merge(other.tally);
  latency_us.merge(other.latency_us);
  sessions_started += other.sessions_started;
  sessions_delivered += other.sessions_delivered;
  delivered_on_time += other.delivered_on_time;
  max_delivery_offset_ns =
      std::max(max_delivery_offset_ns, other.max_delivery_offset_ns);
  payload_mismatches += other.payload_mismatches;
  packages_sent += other.packages_sent;
  packages_delivered += other.packages_delivered;
  packages_dropped_malicious += other.packages_dropped_malicious;
  malformed_packages += other.malformed_packages;
  holders_stuck += other.holders_stuck;
  key_assignments += other.key_assignments;
  deliveries += other.deliveries;
  churn_deaths += other.churn_deaths;
  churn_transients += other.churn_transients;
  churn_replacements += other.churn_replacements;
  stray_packages += other.stray_packages;
  arena_slots += other.arena_slots;
  peak_live_sessions = std::max(peak_live_sessions, other.peak_live_sessions);
  events_executed += other.events_executed;
  world_events += other.world_events;
  world_lane_fires += other.world_lane_fires;
  world_heap_peak = std::max(world_heap_peak, other.world_heap_peak);
  world_queue_peak = std::max(world_queue_peak, other.world_queue_peak);
  horizon = std::max(horizon, other.horizon);
  worlds += other.worlds;
  transport.merge(other.transport);
  lookups.merge(other.lookups);
  if (events_per_domain.size() < other.events_per_domain.size()) {
    events_per_domain.resize(other.events_per_domain.size(), 0);
  }
  for (std::size_t i = 0; i < other.events_per_domain.size(); ++i) {
    events_per_domain[i] += other.events_per_domain[i];
  }
}

std::uint64_t FleetTally::fingerprint() const {
  Fingerprint fp;
  fp.mix(tally.release.trials());
  fp.mix(tally.release.successes());
  fp.mix(tally.drop.successes());
  for (std::uint64_t bin : tally.suffix_histogram) fp.mix(bin);
  for (const auto& [key, weight] : latency_us.bins()) {
    fp.mix(static_cast<std::uint64_t>(key));
    fp.mix(weight);
  }
  fp.mix(sessions_started);
  fp.mix(sessions_delivered);
  fp.mix(delivered_on_time);
  fp.mix(static_cast<std::uint64_t>(max_delivery_offset_ns));
  fp.mix(payload_mismatches);
  fp.mix(packages_sent);
  fp.mix(packages_delivered);
  fp.mix(packages_dropped_malicious);
  fp.mix(malformed_packages);
  fp.mix(holders_stuck);
  fp.mix(key_assignments);
  fp.mix(deliveries);
  fp.mix(churn_deaths);
  fp.mix(churn_transients);
  fp.mix(churn_replacements);
  fp.mix(stray_packages);
  fp.mix(arena_slots);
  fp.mix(peak_live_sessions);
  fp.mix(events_executed);
  fp.mix(worlds);
  // horizon is a double but merges exactly (max), so its bits belong in
  // the digest too.
  std::uint64_t horizon_bits = 0;
  static_assert(sizeof(horizon_bits) == sizeof(horizon));
  std::memcpy(&horizon_bits, &horizon, sizeof(horizon_bits));
  fp.mix(horizon_bits);
  return fp.value();
}

double SessionFleet::repair_interval(const ScenarioSpec& spec) {
  return std::min(240.0, spec.mean_lifetime() / 50.0);
}

std::size_t SessionFleet::restore_margin_periods(double earliest,
                                                 double release_time,
                                                 double holding_period,
                                                 std::size_t path_length) {
  // Restores happen at package-arrival instants ts + (c-1)*th plus small
  // overheads (probe offset, assembly delay, message latency), all well
  // under th/2 for any valid session, so rounding recovers the period count
  // exactly.
  const double periods = (release_time - earliest) / holding_period;
  const long long rounded = std::llround(periods);
  if (rounded <= 0) return 0;
  return std::min<std::size_t>(static_cast<std::size_t>(rounded), path_length);
}

namespace {

/// One finished session reduced to the stat-engine trial (strict release /
/// drop / restore margin) plus the timing and latency facts.
struct SessionOutcome {
  core::StatRunOutcome stat;
  bool delivered = false;
  bool on_time = false;            ///< within kDeliveryToleranceNs of tr
  std::int64_t abs_offset_ns = 0;  ///< |first_delivery - tr|, delivered only
  std::int64_t latency_us = 0;     ///< first_delivery - ts, delivered only
};

/// Reduces a driven-past-tr session (and its adversary, may be null).
/// Strict release event, matched to the stat engine: the share scheme's
/// cascade fires from any column (margin >= 2 excludes the pure
/// terminal-slot leak); the pre-assigned-key schemes need every column,
/// i.e. a restore essentially at ts (margin == path_length).
SessionOutcome reduce_session_outcome(const core::TimedReleaseSession& session,
                                      const core::Adversary* adversary,
                                      core::SchemeKind kind,
                                      double holding_period,
                                      std::size_t path_length) {
  SessionOutcome out;
  out.delivered = session.secret_released();
  out.stat.drop_success = !out.delivered;
  std::size_t margin = 0;
  if (adversary != nullptr) {
    const auto earliest = adversary->earliest_secret_time();
    if (earliest.has_value()) {
      margin = SessionFleet::restore_margin_periods(
          *earliest, session.release_time(), holding_period, path_length);
    }
  }
  out.stat.compromised_suffix = margin;
  out.stat.release_success =
      kind == core::SchemeKind::kShare ? margin >= 2 : margin >= path_length;
  if (out.delivered) {
    const double first = *session.first_delivery_time();
    const std::int64_t offset_ns =
        std::llround((first - session.release_time()) * 1e9);
    out.abs_offset_ns = offset_ns < 0 ? -offset_ns : offset_ns;
    out.on_time = out.abs_offset_ns <= SessionFleet::kDeliveryToleranceNs;
    out.latency_us = std::llround((first - session.start_time()) * 1e6);
  }
  return out;
}

/// Per-session state parked in a stable-address arena slot. A slot is
/// reused (optional re-emplaced) as soon as its session is reaped; every
/// simulator event a session schedules fires at or before tr plus the
/// transport's reap_slack (zero for ideal), and the reaper runs kReapGrace
/// past that, so no event can outlive its slot tenancy.
struct Slot {
  std::optional<core::TimedReleaseSession> session;
  std::unique_ptr<core::Adversary> adversary;
  cloud::BlobId blob;
  std::uint64_t index = 0;  ///< global session index in this world
  double send_time = 0.0;
  double release_time = 0.0;
  /// The session's private draw stream (transport samples, lookup entry
  /// picks). It must live in the slot — transport retry closures capture a
  /// reference to it across windows.
  Rng rng{0};
};

}  // namespace

FleetTally SessionFleet::run(const FleetProgress& progress) {
  const ScenarioSpec& s = spec_;
  const std::size_t budget = s.sessions_in_world(world_index_);
  FleetTally out;
  out.worlds = 1;
  if (budget == 0) return out;

  // Sub-streams of the world stream; each consumer owns one so the draw
  // sequences stay independent of interleaving (the determinism contract).
  const Rng root = Rng(s.seed).fork(world_index_);
  Rng net_rng = root.fork(1);
  Rng mark_rng = root.fork(2);
  Rng churn_mark_rng = root.fork(3);
  Rng arrival_rng = root.fork(4);

  sim::Simulator sim;
  std::unique_ptr<dht::Network> net;
  // Maintenance matters only under churn (repair is what hands stored
  // layer keys to replacement holders); without churn it only adds events.
  // A service world has population * horizon / interval maintenance
  // events, and replica repair scans every stored key it holds, so the
  // cadence is as slow as the churn rate allows (repair_interval).
  const double repair = repair_interval(s);
  if (s.backend == core::DhtBackend::kChord) {
    dht::NetworkConfig cfg;
    cfg.run_maintenance = s.churn;
    cfg.stabilize_interval = repair / 4.0;
    cfg.replica_repair_interval = repair;
    // O(log n) joins: a service world sees thousands of churn joins, and
    // periodic fix_fingers converges the copied tables.
    cfg.exact_join_fingers = false;
    cfg.transport = s.transport;
    net = std::make_unique<dht::ChordNetwork>(sim, net_rng, cfg);
  } else {
    dht::KademliaConfig cfg;
    cfg.run_maintenance = s.churn;
    cfg.republish_interval = repair;
    cfg.transport = s.transport;
    net = std::make_unique<dht::KademliaNetwork>(sim, net_rng, cfg);
  }
  net->bootstrap(s.population);

  cloud::CloudStore cloud;
  core::SessionDispatcher dispatcher(*net);

  // Serial trace shard: barrier-phase network traffic (maintenance, churn)
  // plus the lifecycle spans the reaper emits. Null leaves tracing entirely
  // off — no recording, no sampling.
  obs::TraceShard* serial_trace = nullptr;
  if (tracer_ != nullptr) {
    serial_trace = tracer_->new_shard();
    net->set_trace_shard(serial_trace);
  }

  // Conservative-window execution of this one world. The lookahead is the
  // transport's single-attempt latency floor (min_single_latency, which
  // ScenarioSpec::validate requires to be positive), clamped strictly below
  // kReapGrace so a reap — a barrier-eager global event — can never share
  // a window with its session's still-pending domain events (slot
  // recycling safety; see sim/domain_executor.hpp).
  sim::DomainExecutor exec(
      sim, s.domains,
      std::min(net->transport().min_single_latency(), kReapGrace / 2.0));
  std::vector<dht::TransportStats> domain_tstats(s.domains);
  std::vector<dht::LookupStats> domain_lstats(s.domains);
  std::vector<obs::TraceShard*> domain_traces;
  if (tracer_ != nullptr) {
    // One single-writer shard per domain, same idiom as the stats shards.
    // Exports content-sort the merged multiset, so the trace bytes are
    // invariant across domain counts just like the merged stats.
    domain_traces.resize(s.domains);
    for (std::size_t d = 0; d < s.domains; ++d) {
      domain_traces[d] = tracer_->new_shard();
    }
  }

  // One shared coalition, marked once per world; per-session Adversary
  // instances share it (adversary.hpp Config::coalition) while keeping
  // their captured knowledge private — concurrent sessions reuse
  // LayerKeyId coordinates, so knowledge must never be pooled.
  std::shared_ptr<core::Coalition> coalition;
  const std::size_t coalition_size = s.malicious_count();
  if (coalition_size > 0) {
    coalition = std::make_shared<core::Coalition>();
    const std::vector<dht::NodeId>& initial = net->alive_ids();
    for (std::uint32_t pick :
         mark_rng.sample_without_replacement(initial.size(), coalition_size)) {
      coalition->insert(initial[pick]);
    }
  }

  std::optional<dht::ChurnDriver> churn;
  if (s.churn) {
    dht::ChurnConfig cfg;
    cfg.replace_dead_nodes = true;
    cfg.transient_fraction = s.transient_fraction;
    cfg.lifetime = s.lifetime.build(s.mean_lifetime());
    churn.emplace(*net, cfg);
    if (coalition) {
      // Replacement joins are malicious i.i.d. at the coalition rate; one
      // insert into the shared set marks them for every live session.
      const double fresh_rate = static_cast<double>(coalition_size) /
                                static_cast<double>(s.population);
      churn->on_death = [&churn_mark_rng, &coalition, fresh_rate](
                            const dht::NodeId&, const dht::NodeId* replacement) {
        if (replacement == nullptr) return;
        if (churn_mark_rng.chance(fresh_rate)) coalition->insert(*replacement);
      };
    }
    churn->start();
  }

  const core::PathShape shape = s.scheme == core::SchemeKind::kCentralized
                                    ? core::PathShape{1, 1}
                                    : s.shape;
  const double th = s.emerging_time / static_cast<double>(shape.l);
  // A lossy/partitioned transport can land a session's last protocol
  // events (clamped forwards, retransmitted deliveries) after tr +
  // kReapGrace; widen the reap schedule so no session event can outlive
  // its slot tenancy. Exactly zero for the ideal default, keeping every
  // historical reap instant — and therefore the tally fingerprint —
  // bit-identical.
  const double reap_slack = s.transport.reap_slack(shape.l);

  core::SessionConfig config;
  config.kind = s.scheme == core::SchemeKind::kCentralized
                    ? core::SchemeKind::kJoint
                    : s.scheme;
  config.shape = shape;
  config.carriers_n = s.carriers_n;
  config.threshold_m = s.threshold_m;
  config.emerging_time = s.emerging_time;

  const Bytes payload = bytes_of("service-load-payload");
  const std::shared_ptr<const ArrivalProcess> arrivals = s.arrival.build();

  std::vector<std::unique_ptr<Slot>> arena;
  std::vector<std::size_t> free_slots;
  std::uint64_t started = 0;
  std::uint64_t reaped = 0;

  auto reap = [&](std::size_t slot_index) {
    Slot& slot = *arena[slot_index];
    const core::TimedReleaseSession& session = *slot.session;
    const core::SessionReport& report = session.report();

    const SessionOutcome outcome = reduce_session_outcome(
        session, slot.adversary.get(), s.scheme, th, shape.l);
    out.tally.add(outcome.stat);

    if (outcome.delivered) {
      ++out.sessions_delivered;
      if (outcome.on_time) ++out.delivered_on_time;
      out.max_delivery_offset_ns =
          std::max(out.max_delivery_offset_ns, outcome.abs_offset_ns);
      out.latency_us.add(outcome.latency_us);
      if (slot.index % kPayloadCheckStride == 0) {
        // Full receiver-side decrypt against the cloud ciphertext.
        const std::optional<Bytes> plain = slot.session->receiver_decrypt(
            "svc-" + std::to_string(slot.index));
        if (!plain.has_value() || *plain != payload) ++out.payload_mismatches;
      }
    }
    // Lifecycle spans, emitted here at the serial reap barrier where every
    // timing fact of the session is known. The sampling key is pure content
    // (world, session index) — never a world rng draw — so the sampled set
    // is identical at any domain/thread count and with tracing on or off
    // the tally bytes cannot differ.
    if (serial_trace != nullptr) {
      Fingerprint key;
      key.mix(world_index_);
      key.mix(slot.index);
      if (serial_trace->sample(key.value())) {
        const std::uint64_t span_id =
            (static_cast<std::uint64_t>(world_index_) << 40) | slot.index;
        auto record = [&](const char* name, double at, double dur,
                          std::vector<std::pair<std::string, std::string>>
                              extra = {}) {
          obs::TraceEvent ev;
          ev.ts_us = static_cast<std::int64_t>(std::llround(at * 1e6));
          ev.dur_us = static_cast<std::int64_t>(std::llround(dur * 1e6));
          ev.name = name;
          ev.cat = "session";
          ev.id = span_id;
          ev.args = {{"world", std::to_string(world_index_)},
                     {"session", std::to_string(slot.index)}};
          for (auto& kv : extra) ev.args.push_back(std::move(kv));
          serial_trace->record(std::move(ev));
        };
        record("submit", slot.send_time, 0.0);
        record("onion_build", slot.send_time, 0.0,
               {{"k", std::to_string(shape.k)},
                {"l", std::to_string(shape.l)}});
        record("layer_key_puts", slot.send_time, 0.0,
               {{"count", std::to_string(report.key_assignments)}});
        for (std::size_t c = 1; c <= shape.l; ++c) {
          record("hold", slot.send_time + static_cast<double>(c - 1) * th, th,
                 {{"column", std::to_string(c)}});
        }
        if (outcome.delivered) {
          record("reassemble", slot.release_time, 0.0);
          record("deliver", slot.release_time, 0.0,
                 {{"on_time", outcome.on_time ? "1" : "0"}});
        } else {
          record("drop", slot.release_time, 0.0);
        }
      }
    }
    out.packages_sent += report.packages_sent;
    out.packages_delivered += report.packages_delivered;
    out.packages_dropped_malicious += report.packages_dropped_malicious;
    out.malformed_packages += report.malformed_packages;
    out.holders_stuck += report.holders_stuck;
    out.key_assignments += report.key_assignments;
    out.deliveries += report.deliveries;

    // Recycle: erase the session's stored layer keys from the world,
    // deregister from the dispatcher, release the cloud blob, free the slot.
    slot.session->retire();
    cloud.remove(slot.blob);
    slot.session.reset();
    slot.adversary.reset();
    free_slots.push_back(slot_index);
    ++reaped;
    if (reaped == budget && churn.has_value()) churn->stop();
  };

  auto start_one = [&]() {
    std::size_t slot_index;
    if (!free_slots.empty()) {
      slot_index = free_slots.back();
      free_slots.pop_back();
    } else {
      slot_index = arena.size();
      arena.push_back(std::make_unique<Slot>());
    }
    Slot& slot = *arena[slot_index];
    slot.index = started++;
    out.peak_live_sessions =
        std::max(out.peak_live_sessions, started - reaped);

    core::Adversary* adversary = nullptr;
    if (coalition) {
      core::Adversary::Config acfg;
      acfg.mode = s.attack_mode;
      acfg.onion_slots_k =
          s.scheme == core::SchemeKind::kShare ? 0 : shape.k;
      acfg.share_threshold_m =
          s.scheme == core::SchemeKind::kShare ? s.resolved_threshold() : 1;
      acfg.coalition = coalition;
      slot.adversary = std::make_unique<core::Adversary>(acfg);
      adversary = slot.adversary.get();
    }

    {
      // The whole setup runs under the session's execution context, so
      // every simulator event it schedules (package deliveries,
      // retransmits, assembly, forwards, probes) lands in the session's
      // domain queue, every transport/lookup draw comes from the session's
      // private stream, and stats accumulate into per-domain shards. Setup
      // itself fires at the serial barrier, so its shared-state writes
      // (store_on, dispatcher registration, cloud upload) are race-free.
      const std::size_t domain =
          static_cast<std::size_t>(slot.index) % s.domains;
      slot.rng = root.fork(16 + slot.index).fork(1);
      sim::ExecutionContext ctx;
      ctx.world = &sim;
      ctx.domain = &exec.domain(domain);
      ctx.clock = &sim;
      ctx.rng = &slot.rng;
      ctx.transport_stats = &domain_tstats[domain];
      ctx.lookup_stats = &domain_lstats[domain];
      if (!domain_traces.empty()) ctx.trace = domain_traces[domain];
      const sim::ExecutionContext::Scope scope(ctx);
      slot.session.emplace(core::SessionArgs{
          net.get(), &cloud, adversary, config,
          root.fork(16 + slot.index).seed(), &dispatcher});
      slot.blob =
          slot.session->send(payload, "svc-" + std::to_string(slot.index));
      slot.send_time = sim.now();
      slot.release_time = slot.session->release_time();

      if (adversary != nullptr) {
        // Coalition knowledge grows at package-arrival instants ts +
        // (c-1)*th; one probe shortly after each wave pins the earliest
        // possession time to within probe_offset, far below the th/2 the
        // margin rounding tolerates. Probes fire before tr, the reaper
        // after tr + grace, so the adversary pointer outlives every probe.
        // The probes are session events (domain queue) — they read/mutate
        // only this session's adversary plus the frozen coalition set.
        const double probe_offset = std::min(0.5, th / 4.0);
        for (std::size_t c = 1; c <= shape.l; ++c) {
          sim.schedule_at(
              slot.send_time + static_cast<double>(c - 1) * th + probe_offset,
              [adversary, &sim]() { adversary->attempt_restore(sim.now()); });
        }
      }
    }
    // The reap is a GLOBAL event: it mutates shared state (network erase,
    // dispatcher deregistration, slot recycling) and so belongs to the
    // serial barrier.
    sim.schedule_at(slot.release_time + kReapGrace + reap_slack,
                    [&reap, slot_index]() { reap(slot_index); });
  };

  // Open-loop arrivals: each arrival event starts one session and
  // schedules the next arrival until the budget is exhausted.
  std::function<void()> arrive = [&]() {
    start_one();
    if (started < static_cast<std::uint64_t>(budget)) {
      sim.schedule_at(arrivals->next_after(sim.now(), arrival_rng), arrive);
    }
  };
  sim.schedule_at(arrivals->next_after(0.0, arrival_rng), arrive);

  // Window-barrier drive: rounds until the budget is reaped. Reaps are
  // barrier events, so the predicate — checked between rounds — observes
  // them race-free, and the world stops at its last reap. Progress
  // heartbeats are throttled to one per kProgressInterval of virtual time.
  constexpr double kProgressInterval = 120.0;
  double next_report = kProgressInterval;
  const bool stopped = exec.run([&]() {
    if (progress && sim.raw_now() >= next_report) {
      progress(sim.raw_now(), reaped, started);
      next_report = sim.raw_now() + kProgressInterval;
    }
    return reaped >= static_cast<std::uint64_t>(budget);
  });
  if (!stopped) {
    throw ProtocolError(
        "SessionFleet: event queues drained before the session budget "
        "completed (scenario '" + s.name + "')");
  }
  if (progress) progress(sim.raw_now(), reaped, started);

  out.sessions_started = started;
  out.arena_slots = arena.size();
  out.events_executed = sim.executed_events() + exec.domain_events_executed();
  out.world_events = sim.executed_events();
  out.world_lane_fires = sim.lane_fires();
  out.world_heap_peak = sim.max_heap_depth();
  out.world_queue_peak = sim.max_queue_depth();
  out.events_per_domain = exec.events_per_domain();
  out.horizon = sim.now();
  out.stray_packages = dispatcher.stray_packages();
  out.malformed_packages += dispatcher.malformed_packages();
  out.transport.merge(net->transport_stats());
  // Per-domain shards fold back in ascending domain order (the merges are
  // commutative; the fixed order keeps the reduction canonical).
  for (const dht::TransportStats& t : domain_tstats) out.transport.merge(t);
  out.lookups.merge(net->lookup_stats());
  for (const dht::LookupStats& l : domain_lstats) out.lookups.merge(l);
  if (churn.has_value()) {
    out.churn_deaths = churn->deaths();
    out.churn_transients = churn->transient_outages();
    out.churn_replacements = churn->replacements();
  }
  return out;
}

FleetTally run_scenario(core::SweepRunner& sweeps, const ScenarioSpec& spec,
                        const FleetProgress& progress, obs::Tracer* tracer) {
  spec.validate();
  std::vector<FleetTally> tallies(spec.worlds);
  sweeps.run_shards(spec.worlds, [&](std::size_t world) {
    SessionFleet fleet(spec, world, tracer);
    tallies[world] =
        fleet.run(spec.worlds == 1 ? progress : FleetProgress{});
  });
  // Merge rule: ascending world index (see sweep.cpp).
  FleetTally total;
  for (const FleetTally& tally : tallies) total.merge(tally);
  return total;
}

}  // namespace emergence::workload
