// Service-scale traffic generation over the workload subsystem.
//
// Drives named ScenarioSpecs through workload::run_scenario — open-loop
// session fleets (arrival processes + pluggable lifetime churn + optional
// coalitions) against one shared world per scenario world — and emits
// BENCH_service.json with throughput, delivery-latency percentiles and
// per-scenario release/drop rates. The acceptance configuration pushes
// >= 500k sessions through a 100k-node Chord world on one core:
//
//   service_load --scenario=metro-diurnal --population=100000
//                --sessions=500000     (one command line)
//
// Sanity gates make the driver CI-runnable (the workload-smoke job runs
// every named scenario at reduced scale): the whole session budget must
// start and be reaped, every delivered session must land exactly at tr
// (p50 == p99 == max == T), spot-checked receiver decrypts must match the
// sent payload, and --check-invariance re-runs each scenario at 1, 2 and 8
// threads and gates bit-identical tally AND transport fingerprints. Lossy
// transports additionally gate nonzero drop/retransmit counters. Any
// violation (or a malformed --scenario spec) exits nonzero with an
// error.hpp diagnostic.
//
// Flags:
//   --scenario=NAME[:key=value,...]  scenario to run (parse_scenario syntax)
//   --list-scenarios                 print the registry and exit 0
//   --matrix                         run every named scenario
//   --population=N --sessions=N --worlds=N --seed=N   scale overrides
//   --threads=N                      sweep pool size (never changes tallies)
//   --domains=N                      within-world parallel domains (>= 1;
//                                    the windowed domain executor, see
//                                    sim/domain_executor; never changes
//                                    tallies)
//   --domains-compare=A,B,...        run each scenario once per listed domain
//                                    count and gate bit-identical tally AND
//                                    transport fingerprints across all of
//                                    them; records wall times and the
//                                    first-vs-last speedup in the JSON
//   --min-speedup=X                  fail when the measured domains-compare
//                                    speedup falls below X (0 = record only;
//                                    single-core CI hosts should keep this
//                                    well under 1.0)
//   --max-seconds=S                  wall-clock gate per scenario (0 = off)
//   --check-invariance               1-vs-8-thread bit-identity gate
//   --progress                       heartbeat lines on long runs
//   --trace-out=PATH                 write a Chrome trace_event JSON of the
//                                    sampled session/hop spans (Perfetto-
//                                    loadable); tracing never changes the
//                                    fingerprints (CI gates this)
//   --trace-sample=RATE              fraction of sessions/messages traced
//                                    (default 1.0; keyed on content, so the
//                                    sampled set is domain/thread invariant)
#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "obs/bridge.hpp"
#include "obs/trace.hpp"
#include "workload/scenario.hpp"
#include "workload/session_fleet.hpp"

namespace {

using namespace emergence;
using workload::FleetTally;
using workload::ScenarioSpec;

struct Options {
  std::string scenario;
  bool list = false;
  bool matrix = false;
  bool check_invariance = false;
  bool progress = false;
  std::size_t population = 0;  // 0 = scenario default
  std::size_t sessions = 0;
  std::size_t worlds = 0;
  std::optional<std::size_t> domains;  // unset = scenario default
  std::vector<std::size_t> domains_compare;  // empty = no compare mode
  double min_speedup = 0.0;                  // 0 = record only
  std::uint64_t seed = 0;
  bool seed_set = false;
  double max_seconds = 0.0;  // 0 = no wall gate
  std::size_t threads = 0;   // 0 = auto
  std::string trace_out;     // empty = tracing off
  double trace_sample = 1.0;
};

/// Registers every service_load knob on `table` (the shared OptionTable
/// surface: one registration serves --flag parsing and --help).
void add_load_options(OptionTable& table, Options& o) {
  table.add_string("scenario", "NAME[:k=v,...]",
                   "scenario to run (parse_scenario syntax)", &o.scenario);
  table.add_flag("list-scenarios", "print the registry and exit", &o.list);
  table.add_flag("matrix", "run every named scenario", &o.matrix);
  table.add_flag("check-invariance", "1-vs-8-thread bit-identity gate",
                 &o.check_invariance);
  table.add_flag("progress", "heartbeat lines on long runs", &o.progress);
  table.add_size("population", "override the scenario population",
                 &o.population);
  table.add_size("sessions", "override the session budget", &o.sessions);
  table.add_size("worlds", "override the world count", &o.worlds);
  table.add("domains", "N",
            "within-world parallel domains (>= 1; never changes tallies)",
            [&o](const std::string& v) {
              o.domains = parse_size_option("domains", v);
            });
  table.add("domains-compare", "A,B,...",
            "run per listed domain count and gate bit-identical fingerprints",
            [&o](const std::string& v) {
              std::size_t pos = 0;
              while (pos <= v.size()) {
                const std::size_t comma = std::min(v.find(',', pos), v.size());
                o.domains_compare.push_back(parse_size_option(
                    "domains-compare", v.substr(pos, comma - pos)));
                pos = comma + 1;
              }
            });
  table.add_real("min-speedup",
                 "fail when the domains-compare speedup falls below this",
                 &o.min_speedup);
  table.add("seed", "N", "override the scenario root seed",
            [&o](const std::string& v) {
              o.seed = parse_u64_option("seed", v);
              o.seed_set = true;
            });
  table.add_real("max-seconds", "wall-clock gate per scenario (0 = off)",
                 &o.max_seconds);
  table.add_size("threads",
                 "sweep pool size (0 = auto; never changes tallies)",
                 &o.threads);
  table.add_string("trace-out", "PATH",
                   "write a Chrome trace_event JSON of the sampled spans",
                   &o.trace_out);
  table.add_real("trace-sample",
                 "fraction of sessions/messages traced (default 1.0)",
                 &o.trace_sample);
}


void apply_scale(ScenarioSpec& spec, const Options& o) {
  if (o.population > 0) spec.population = o.population;
  if (o.sessions > 0) spec.sessions = o.sessions;
  if (o.worlds > 0) spec.worlds = o.worlds;
  if (o.domains.has_value()) spec.domains = *o.domains;
  if (o.seed_set) spec.seed = o.seed;
  spec.validate();
}

void list_scenarios() {
  std::cout << "# named workload scenarios (service_load --scenario=<name>)\n";
  for (const ScenarioSpec& s : workload::scenario_registry()) {
    std::cout << "  " << s.name << "\n    " << s.summary << "\n    backend="
              << core::to_string(s.backend)
              << " scheme=" << core::to_string(s.scheme)
              << " arrival=" << workload::to_string(s.arrival.kind)
              << " rate=" << s.arrival.rate
              << " lifetime=" << workload::to_string(s.lifetime.kind)
              << " T=" << s.emerging_time << " alpha=" << s.churn_alpha
              << " p=" << s.malicious_p
              << " population=" << s.population << " sessions=" << s.sessions
              << "\n";
  }
}

struct ScenarioOutcome {
  FleetTally tally;
  double wall_seconds = 0.0;
  bool pass = true;
  std::string failure;
};

void fail(ScenarioOutcome& out, const std::string& why) {
  out.pass = false;
  if (!out.failure.empty()) out.failure += "; ";
  out.failure += why;
}

ScenarioOutcome run_one(const ScenarioSpec& spec, const Options& o,
                        core::SweepRunner& sweeps, obs::Tracer* tracer) {
  ScenarioOutcome out;
  workload::FleetProgress progress;
  if (o.progress) {
    progress = [&spec](double now, std::uint64_t reaped,
                       std::uint64_t started) {
      std::cout << "#   " << spec.name << " t=" << now << "vs reaped=" << reaped
                << "/" << spec.sessions << " started=" << started << "\n";
    };
  }

  const bench::WallTimer timer;
  out.tally = workload::run_scenario(sweeps, spec, progress, tracer);
  out.wall_seconds = timer.seconds();
  const FleetTally& t = out.tally;

  // -- sanity gates ------------------------------------------------------------
  // A transport that keeps the exactness contract (always true for the
  // ideal default) pins every delivery to exactly tr; lossy/partitioned
  // transports instead get the hop-local lateness bound (reap_slack).
  const bool exact = spec.exact_delivery();
  const bool lossy_transport =
      spec.transport.can_drop() || spec.transport.has_partition();
  if (t.sessions_started != spec.sessions)
    fail(out, "did not start the full session budget");
  if (t.trials() != spec.sessions)
    fail(out, "reaped trials != session budget");
  if (t.sessions_delivered + t.tally.drop.successes() != t.sessions_started)
    fail(out, "delivered + dropped != started");
  if (exact && t.delivered_on_time != t.sessions_delivered)
    fail(out, "late delivery (timing contract violated)");
  if (!exact &&
      static_cast<double>(t.max_delivery_offset_ns) >
          spec.transport.reap_slack(spec.shape.l) * 1e9) {
    fail(out, "late delivery beyond the transport reap_slack bound");
  }
  if (t.payload_mismatches != 0) fail(out, "receiver decrypt mismatch");
  if (exact && t.sessions_delivered > 0) {
    const std::int64_t expect_us = std::llround(spec.emerging_time * 1e6);
    if (t.latency_us.percentile(0.5) != expect_us ||
        t.latency_us.max() != expect_us) {
      fail(out, "latency percentiles off T");
    }
  }
  // Covert holders forward everything; without churn or transport loss
  // every session delivers.
  if (!spec.churn && spec.attack_mode == core::AttackMode::kCovert &&
      !lossy_transport && t.sessions_delivered != t.sessions_started) {
    fail(out, "drops in a churn-free covert scenario");
  }
  // A lossy transport that carried real traffic must show its counters:
  // the expected-drop threshold (20) keeps the gate off statistical noise.
  if (spec.transport.drop_probability > 0.0 &&
      static_cast<double>(t.transport.attempts) *
              spec.transport.drop_probability >=
          20.0) {
    if (t.transport.dropped == 0)
      fail(out, "lossy transport recorded zero drops");
    if (spec.transport.max_retries > 0 && t.transport.retried == 0)
      fail(out, "lossy transport with retries recorded zero retransmits");
  }
  if (o.max_seconds > 0.0 && out.wall_seconds > o.max_seconds)
    fail(out, "wall-clock budget exceeded");

  if (o.check_invariance) {
    // Tallies must be a pure function of the spec: re-run on pools of 1, 2
    // and 8 workers and require bit-identical protocol AND transport
    // fingerprints (the transport digest covers counters and the exact
    // hop-latency histogram, so retransmit scheduling cannot silently
    // depend on the pool size).
    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      core::SweepRunner pool(core::SweepOptions{threads, 64});
      const FleetTally rerun = workload::run_scenario(pool, spec);
      if (rerun.fingerprint() != t.fingerprint() ||
          rerun.transport.fingerprint() != t.transport.fingerprint()) {
        fail(out, "tallies not thread-count invariant at " +
                      std::to_string(threads) + " threads");
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  OptionTable cli;
  add_load_options(cli, o);
  bench::parse_flags(argc, argv, std::move(cli));
  if (o.list) {
    list_scenarios();
    return 0;
  }

  std::vector<ScenarioSpec> specs;
  try {
    if (o.matrix) {
      for (ScenarioSpec spec : workload::scenario_registry()) {
        apply_scale(spec, o);
        specs.push_back(std::move(spec));
      }
    } else {
      ScenarioSpec spec = workload::parse_scenario(
          o.scenario.empty() ? "poisson-open" : o.scenario);
      apply_scale(spec, o);
      specs.push_back(std::move(spec));
    }
  } catch (const Error& e) {
    std::cerr << "service_load: invalid scenario: " << e.what() << "\n";
    return 2;
  }

  core::SweepRunner sweeps(core::SweepOptions{o.threads, 64});
  std::cout << "# == service_load: open-loop session fleets over shared "
               "worlds ==\n"
            << "# " << specs.size() << " scenario(s), pool of "
            << sweeps.threads() << " thread(s); tallies are bit-identical at "
               "any thread count.\n\n";

  // One tracer for the whole invocation (null = off). Its sampling streams
  // are keyed on content and forked from its own seed, so running with a
  // tracer cannot change any fingerprint the gates below compare.
  std::optional<obs::Tracer> tracer;
  if (!o.trace_out.empty()) {
    tracer.emplace(specs[0].seed, o.trace_sample);
    std::cout << "# tracing to " << o.trace_out << " (sample rate "
              << o.trace_sample << ")\n\n";
  }

  bench::BenchReport json("service", specs.size(), sweeps.threads(),
                          o.matrix ? "matrix" : specs[0].name, specs[0].seed);
  core::FigureTable table(
      "service_load",
      {"idx", "population", "sessions", "worlds", "domains", "wall_s",
       "sessions_per_s",
       "horizon_vs", "latency_p50_s", "latency_p99_s", "latency_max_s",
       "release_rate", "drop_rate", "deaths", "transients", "peak_live",
       "arena_slots", "events", "net_attempts", "net_dropped", "net_retried",
       "net_timed_out", "hop_p50_s", "hop_p99_s", "hop_max_s", "pass"});
  std::string caption = "scenarios:";

  bool all_pass = true;
  double compare_speedup = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const ScenarioSpec& base_spec = specs[i];
    // Compare mode runs the scenario once per listed domain count and gates
    // bit-identical tally AND transport fingerprints across all of them —
    // the executor's core determinism claim, as a shippable CI gate.
    std::vector<std::size_t> domain_counts = o.domains_compare;
    if (domain_counts.empty()) domain_counts.push_back(base_spec.domains);
    std::vector<double> walls;
    std::uint64_t first_fp = 0, first_tfp = 0;
    caption += " " + std::to_string(i) + "=" + base_spec.name;

    for (std::size_t run = 0; run < domain_counts.size(); ++run) {
      ScenarioSpec spec = base_spec;
      spec.domains = domain_counts[run];
      std::cout << "# running " << spec.name << " (population "
                << spec.population << ", " << spec.sessions << " sessions, "
                << spec.worlds << " world(s), domains=" << spec.domains
                << ")\n";
      ScenarioOutcome out;
      try {
        spec.validate();
        // Only the first run of a compare set feeds the tracer — re-runs
        // would duplicate every sampled span in the export.
        out = run_one(spec, o, sweeps,
                      run == 0 && tracer.has_value() ? &*tracer : nullptr);
      } catch (const Error& e) {
        out.pass = false;
        out.failure = e.what();
      }
      const FleetTally& t = out.tally;
      walls.push_back(out.wall_seconds);
      if (run == 0) {
        first_fp = t.fingerprint();
        first_tfp = t.transport.fingerprint();
        obs::publish(json.metrics(), t, {{"scenario", base_spec.name}});
      } else if (t.fingerprint() != first_fp ||
                 t.transport.fingerprint() != first_tfp) {
        fail(out, "tallies not domain-count invariant (domains=" +
                      std::to_string(spec.domains) + " vs " +
                      std::to_string(domain_counts[0]) + ")");
      }
      if (!o.domains_compare.empty() && run + 1 == domain_counts.size()) {
        // First-vs-last wall ratio: ~1.0 on single-core hosts (the windowed
        // schedule adds only barrier overhead), > 1 with real cores.
        compare_speedup =
            out.wall_seconds > 0.0 ? walls.front() / out.wall_seconds : 0.0;
        if (o.min_speedup > 0.0 && compare_speedup < o.min_speedup) {
          fail(out, "domains-compare speedup " +
                        std::to_string(compare_speedup) + " below --min-speedup");
        }
        for (std::size_t d = 0; d < t.events_per_domain.size(); ++d) {
          json.set_extra("events_domain_" + std::to_string(d),
                         static_cast<double>(t.events_per_domain[d]));
        }
      }
      all_pass = all_pass && out.pass;

    const double throughput =
        out.wall_seconds > 0.0
            ? static_cast<double>(t.sessions_started) / out.wall_seconds
            : 0.0;
    auto us_to_s = [](std::int64_t us) {
      return static_cast<double>(us) * 1e-6;
    };
    table.add_row({static_cast<double>(i),
                   static_cast<double>(spec.population),
                   static_cast<double>(spec.sessions),
                   static_cast<double>(spec.worlds),
                   static_cast<double>(spec.domains), out.wall_seconds,
                   throughput, t.horizon,
                   us_to_s(t.latency_us.percentile(0.5)),
                   us_to_s(t.latency_us.percentile(0.99)),
                   us_to_s(t.latency_us.max()), t.release_rate(),
                   t.drop_rate(), static_cast<double>(t.churn_deaths),
                   static_cast<double>(t.churn_transients),
                   static_cast<double>(t.peak_live_sessions),
                   static_cast<double>(t.arena_slots),
                   static_cast<double>(t.events_executed),
                   static_cast<double>(t.transport.attempts),
                   static_cast<double>(t.transport.dropped),
                   static_cast<double>(t.transport.retried),
                   static_cast<double>(t.transport.timed_out),
                   us_to_s(t.transport.hop_latency_us.percentile(0.5)),
                   us_to_s(t.transport.hop_latency_us.percentile(0.99)),
                   us_to_s(t.transport.hop_latency_us.max()),
                   out.pass ? 1.0 : 0.0});

    std::cout << spec.name << " [domains=" << spec.domains << "]: "
              << t.sessions_started << " sessions in "
              << out.wall_seconds << "s wall (" << throughput
              << "/s), horizon " << t.horizon << "vs, "
              << t.sessions_delivered << " delivered ("
              << bench::latency_caption(t.latency_us, spec.holding_period())
              << "), release " << t.release_rate() << ", drop "
              << t.drop_rate() << ", churn " << t.churn_deaths << "d/"
              << t.churn_transients << "t, peak live "
              << t.peak_live_sessions << " in " << t.arena_slots
              << " slots, " << t.events_executed << " events (world "
              << t.world_events << ", " << t.world_lane_fires
              << " from lanes, heap peak " << t.world_heap_peak << " of "
              << t.world_queue_peak << "), net "
              << t.transport.attempts << "a/" << t.transport.dropped << "d/"
              << t.transport.retried << "r/" << t.transport.timed_out
              << "to hop_p50 "
              << static_cast<double>(t.transport.hop_latency_us.percentile(0.5)) *
                     1e-6
              << "s hop_p99 "
              << static_cast<double>(t.transport.hop_latency_us.percentile(0.99)) *
                     1e-6
              << "s, lookups " << t.lookups.lookups << " ("
              << t.lookups.total_hops << " hops, " << t.lookups.failures
              << " failed), fingerprint " << t.fingerprint() << " (transport "
              << t.transport.fingerprint() << ")"
              << (out.pass ? "" : "  << FAILED: " + out.failure)
              << "\n\n";
    }
    if (!o.domains_compare.empty()) {
      std::cout << "# " << base_spec.name
                << " domains-compare speedup (first vs last): "
                << compare_speedup << "\n\n";
    }
  }

  table.set_caption(caption);
  json.add_table(table);
  json.set_extra("all_pass", all_pass ? 1.0 : 0.0);
  json.set_extra("check_invariance", o.check_invariance ? 1.0 : 0.0);
  if (!o.domains_compare.empty()) {
    json.set_extra("domains_compare", 1.0);
    json.set_extra("speedup", compare_speedup);
    json.set_extra("min_speedup", o.min_speedup);
  }
  json.finish();

  if (tracer.has_value()) {
    std::ofstream trace_os(o.trace_out);
    if (!trace_os) {
      std::cerr << "service_load: could not open --trace-out path '"
                << o.trace_out << "'\n";
      return 2;
    }
    tracer->write_chrome_trace(trace_os);
    std::cout << "# trace: " << o.trace_out << " (" << tracer->event_count()
              << " events)\n";
  }

  if (!all_pass) {
    std::cerr << "\nservice_load: FAILED (sanity, invariance or budget "
                 "gate)\n";
    return 1;
  }
  std::cout << "service_load: all scenarios passed\n";
  return 0;
}
