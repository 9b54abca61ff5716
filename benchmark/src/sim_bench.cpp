// sim_bench — the simulator side of the repository benchmark.
//
//   sim_bench setup --scenario=SPEC --seed=N [--bootstraps=B]
//       Times B ChordNetwork::bootstrap(population) calls with the fleet's
//       network config; their median is the workload's set-up time.
//
//   sim_bench run --scenario=SPEC --seed=N
//       Calls workload::run_scenario once, gates the tally with
//       service_load's sanity rules and reports the throughput, CPU per
//       session, emergence and release rates, the peak RSS and the
//       FleetTally counters the per-layer attribution multiplies probe
//       costs by.
//
//   sim_bench probe --scenario=SPEC --seed=N
//       Times the public functions of each layer at the workload's
//       parameters (median over batches): AEAD and Shamir, onion build and
//       peel, Chord lookup and a layer key's store/load/erase at the
//       workload's population, 2000 api::LocalClient::submit calls (the
//       submit latency a sender sees from the in-process engine), and one
//       simulator schedule + dispatch with about 100k events pending. Also
//       prints the session geometry the attribution needs (holders, seals
//       and opens per session).
//
// Each command runs pinned to the last CPU(s) it may use, beside a
// bench::SpeedProbe, and reports every time at the reference CPU speed
// (`wall_s` and `cpu_s` of `run` stay as measured). Every command prints
// one JSON object as its last stdout line and exits 0 only when its
// correctness gates hold.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "bench_util.hpp"
#include "cloud/cloud_store.hpp"
#include "common/error.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "crypto/aead.hpp"
#include "crypto/shamir.hpp"
#include "dht/chord_network.hpp"
#include "emerge/onion.hpp"
#include "emerge/session_dispatcher.hpp"
#include "emerge/sweep.hpp"
#include "sim/simulator.hpp"
#include "workload/scenario.hpp"
#include "workload/session_fleet.hpp"

namespace {

using namespace emergence;  // NOLINT(build/namespaces)
using workload::FleetTally;
using workload::ScenarioSpec;

/// Submits the probe times: the 99th percentile has 20 beyond it.
constexpr std::size_t kSubmits = 2000;

struct Args {
  std::string scenario;
  std::uint64_t seed = 1;
  std::size_t bootstraps = 3;
};

Args parse_args(int argc, char** argv) {
  Args a;
  OptionTable table;
  table.add_string("scenario", "SPEC", "parse_scenario spec", &a.scenario);
  table.add_u64("seed", "workload seed", &a.seed);
  table.add_size("bootstraps", "setup: bootstraps timed (median reported)",
                 &a.bootstraps);
  table.parse_cli(argc, argv, 2);
  require(!a.scenario.empty(), "--scenario is required");
  require(a.bootstraps >= 1, "--bootstraps must be >= 1");
  return a;
}

/// The scenario with its seed replaced by the workload seed.
ScenarioSpec seeded_spec(const Args& a) {
  ScenarioSpec spec = workload::parse_scenario(a.scenario);
  spec.seed = a.seed;
  spec.validate();
  return spec;
}

/// The network config SessionFleet::run builds its Chord world with.
dht::NetworkConfig fleet_network_config(const ScenarioSpec& s) {
  dht::NetworkConfig cfg;
  cfg.run_maintenance = s.churn;
  cfg.stabilize_interval = 60.0;
  cfg.replica_repair_interval = 240.0;
  cfg.exact_join_fingers = false;
  cfg.transport = s.transport;
  return cfg;
}

// -- setup --------------------------------------------------------------------

int cmd_setup(const Args& a) {
  const ScenarioSpec spec = seeded_spec(a);
  require(spec.backend == core::DhtBackend::kChord,
          "setup: only Chord worlds are benchmarked");
  const std::vector<int> cpus = bench::last_cpus(1);
  bench::pin_thread(cpus);
  bench::SpeedProbe speed(cpus);
  std::vector<double> boots, normalized;
  const double start = bench::steady_seconds();
  for (std::size_t r = 0; r < a.bootstraps; ++r) {
    sim::Simulator sim;
    Rng rng = Rng(spec.seed).fork(r);
    dht::ChordNetwork net(sim, rng, fleet_network_config(spec));
    const double t0 = bench::steady_seconds();
    net.bootstrap(spec.population);
    const double t1 = bench::steady_seconds();
    boots.push_back(t1 - t0);
    normalized.push_back((t1 - t0) * speed.factor(t0, t1));
  }
  bench::Json out;
  out.num("setup_s", bench::median(normalized))
      .num("speed_factor", speed.factor(start, bench::steady_seconds()))
      .list("bootstrap_s", boots)
      .count("population", spec.population)
      .print();
  return 0;
}

// -- run ----------------------------------------------------------------------

/// service_load's sanity rules, recomputed from the tally. Returns the
/// violated rules (empty = pass).
std::vector<std::string> gate(const ScenarioSpec& spec, const FleetTally& t) {
  std::vector<std::string> bad;
  const bool exact = spec.exact_delivery();
  if (t.sessions_started != spec.sessions) bad.push_back("budget not started");
  if (t.trials() != spec.sessions) bad.push_back("budget not reaped");
  if (t.sessions_delivered + t.tally.drop.successes() != t.sessions_started)
    bad.push_back("delivered + dropped != started");
  if (exact && t.delivered_on_time != t.sessions_delivered)
    bad.push_back("delivery off tr on an exact transport");
  if (exact && t.sessions_delivered > 0) {
    const std::int64_t expect_us = std::llround(spec.emerging_time * 1e6);
    if (t.latency_us.percentile(0.5) != expect_us ||
        t.latency_us.max() != expect_us) {
      bad.push_back("latency percentiles off T");
    }
  }
  if (!exact && static_cast<double>(t.max_delivery_offset_ns) >
                    spec.transport.reap_slack(spec.shape.l) * 1e9) {
    bad.push_back("late delivery beyond the transport reap_slack bound");
  }
  if (t.payload_mismatches != 0) bad.push_back("receiver decrypt mismatch");
  if (spec.malicious_p == 0.0 && t.tally.release.successes() != 0)
    bad.push_back("early release without a coalition");
  if (spec.transport.drop_probability > 0.0 &&
      static_cast<double>(t.transport.attempts) *
              spec.transport.drop_probability >=
          20.0) {
    if (t.transport.dropped == 0) bad.push_back("lossy transport dropped 0");
    if (spec.transport.max_retries > 0 && t.transport.retried == 0)
      bad.push_back("lossy transport retried 0");
  }
  return bad;
}

int cmd_run(const Args& a) {
  const ScenarioSpec spec = seeded_spec(a);
  // The fleet runs on as many CPUs as it has executor workers, each with a
  // speed sampler beside it.
  const std::vector<int> cpus =
      bench::last_cpus(std::max<std::size_t>(1, spec.domains));
  bench::pin_thread(cpus);
  bench::SpeedProbe speed(cpus);
  // One world per workload, so the sweep pool has a single shard.
  core::SweepRunner sweeps(core::SweepOptions{1, 64});
  const bench::Usage u0 = bench::Usage::now();
  const double probe0 = speed.cpu_seconds();
  const double t0 = bench::steady_seconds();
  const FleetTally t = workload::run_scenario(sweeps, spec);
  const double wall = bench::steady_seconds() - t0;
  const double cpu = bench::Usage::now().cpu_s() - u0.cpu_s() -
                     (speed.cpu_seconds() - probe0);
  speed.stop();
  const double factor = speed.factor(t0, t0 + wall);

  const std::vector<std::string> failures = gate(spec, t);
  // Sessions the fleet mishandled: never reaped, decrypted to the wrong
  // payload, or delivered off tr on an exact transport. Sessions lost to
  // churn are the workload's expected outcome and show in emerged_fraction.
  const std::uint64_t failed_sessions =
      (spec.sessions - t.trials()) + t.payload_mismatches +
      (spec.exact_delivery() ? t.sessions_delivered - t.delivered_on_time
                             : 0);

  double imbalance = 1.0;
  if (!t.events_per_domain.empty()) {
    double sum = 0.0, peak = 0.0;
    for (std::uint64_t e : t.events_per_domain) {
      sum += static_cast<double>(e);
      peak = std::max(peak, static_cast<double>(e));
    }
    imbalance =
        peak * static_cast<double>(t.events_per_domain.size()) / sum;
  }
  std::string failure_text;
  for (const std::string& f : failures)
    failure_text += (failure_text.empty() ? "" : "; ") + f;

  const double n = static_cast<double>(t.sessions_started);
  bench::Json out;
  out.count("ok", failures.empty() ? 1 : 0)
      .str("failures", failure_text)
      .num("sessions_per_s",
           static_cast<double>(t.trials()) / (wall * factor))
      .num("cpu_us_per_session", cpu * factor * 1e6 / n)
      .num("speed_factor", factor)
      .num("peak_rss_mb", bench::Usage::now().max_rss_mb)
      .num("emerged_fraction", static_cast<double>(t.sessions_delivered) / n)
      .num("release_resilience", 1.0 - t.release_rate())
      .count("failed_sessions", failed_sessions)
      .num("wall_s", wall)
      .num("cpu_s", cpu)
      .count("sessions", t.sessions_started)
      .count("delivered", t.sessions_delivered)
      .count("packages_sent", t.packages_sent)
      .count("holders_stuck", t.holders_stuck)
      .count("key_assignments", t.key_assignments)
      .count("churn_deaths", t.churn_deaths)
      .count("stray_packages", t.stray_packages)
      .count("arena_slots", t.arena_slots)
      .count("peak_live_sessions", t.peak_live_sessions)
      .count("events_executed", t.events_executed)
      .count("transport_messages", t.transport.messages)
      .count("transport_attempts", t.transport.attempts)
      .count("transport_dropped", t.transport.dropped)
      .count("transport_retried", t.transport.retried)
      .count("transport_timed_out", t.transport.timed_out)
      .num("domain_imbalance", imbalance)
      .print();
  return failures.empty() ? 0 : 1;
}

// -- probe --------------------------------------------------------------------

/// One session's onion, built the way the sender builds it: per-column
/// holder keys (shared per column for joint, individual for share) and the
/// envelope contents, with share-scheme key shares split up front.
struct OnionFixture {
  std::vector<core::ColumnBuildSpec> columns;
  std::size_t holders = 0;      ///< envelopes across all columns
  std::size_t nonterminal = 0;  ///< holders that also unwrap an inner onion
  std::size_t splits = 0;       ///< shamir_split calls the sender makes
  std::size_t combines = 0;     ///< shamir_combine calls the holders make
};

OnionFixture make_fixture(core::SchemeKind scheme, std::size_t k,
                          std::size_t l, std::size_t carriers,
                          std::size_t threshold, crypto::Drbg& drbg) {
  const bool share = scheme == core::SchemeKind::kShare;
  const auto holders_in = [&](std::size_t c) {
    return share && c < l ? carriers : k;
  };
  std::vector<std::vector<dht::NodeId>> points(l);
  std::vector<std::vector<crypto::SymmetricKey>> keys(l);
  for (std::size_t c = 1; c <= l; ++c) {
    const crypto::SymmetricKey shared =
        crypto::SymmetricKey::from_bytes(drbg.bytes(32));
    for (std::size_t h = 0; h < holders_in(c); ++h) {
      points[c - 1].push_back(
          dht::NodeId::from_bytes(drbg.bytes(dht::kIdBytes)));
      keys[c - 1].push_back(
          share ? crypto::SymmetricKey::from_bytes(drbg.bytes(32)) : shared);
    }
  }
  OnionFixture fx;
  fx.columns.resize(l);
  for (std::size_t c = 1; c <= l; ++c) {
    core::ColumnBuildSpec& spec = fx.columns[c - 1];
    const std::size_t holders = holders_in(c);
    const bool terminal = c == l;
    fx.holders += holders;
    if (!terminal) fx.nonterminal += holders;
    if (share && c > 1) fx.combines += holders;
    std::vector<std::vector<crypto::Share>> next_shares;
    if (share && !terminal) {
      for (const crypto::SymmetricKey& key : keys[c]) {
        next_shares.push_back(
            crypto::shamir_split(key.to_bytes(), threshold, holders, drbg));
        ++fx.splits;
      }
    }
    spec.holder_keys = keys[c - 1];
    spec.envelopes.resize(holders);
    for (std::size_t h = 0; h < holders; ++h) {
      core::EnvelopeContent& env = spec.envelopes[h];
      if (terminal) {
        env.terminal_payload = drbg.bytes(32);
        continue;
      }
      if (scheme == core::SchemeKind::kDisjoint) {
        env.next_hops.push_back(points[c][h]);
      } else {
        env.next_hops = points[c];
      }
      for (std::size_t t = 0; t < next_shares.size(); ++t) {
        env.shares.push_back(core::TargetedShare{
            static_cast<std::uint16_t>(t), next_shares[t][h]});
      }
    }
  }
  return fx;
}

/// Every holder of every column peels its envelope the way a holder does:
/// parse the column onion, open its envelope, unwrap the inner onion.
std::size_t peel_session(const OnionFixture& fx, const Bytes& onion) {
  Bytes current = onion;
  std::size_t peeled = 0;
  for (std::size_t c = 1; c <= fx.columns.size(); ++c) {
    const auto column = static_cast<std::uint16_t>(c);
    Bytes next;
    for (std::size_t h = 0; h < fx.columns[c - 1].holder_keys.size(); ++h) {
      const core::ColumnOnion parsed = core::parse_column_onion(current);
      const core::EnvelopeContent content = core::open_envelope(
          fx.columns[c - 1].holder_keys[h],
          parsed.envelope_for(static_cast<std::uint16_t>(h)), column);
      if (!content.terminal())
        next = core::unwrap_inner(content.inner_key, parsed.inner, column);
      ++peeled;
    }
    current = std::move(next);
  }
  return peeled;
}

int cmd_probe(const Args& a) {
  const ScenarioSpec spec = seeded_spec(a);
  crypto::Drbg drbg(spec.seed);
  bench::Json out;
  std::vector<std::string> failures;
  const std::vector<int> cpus = bench::last_cpus(1);
  bench::pin_thread(cpus);
  bench::SpeedProbe speed(cpus);
  // bench::probe_us at the reference CPU speed.
  const auto probe_us = [&speed](std::size_t batches, std::size_t per_batch,
                                 auto&& call) {
    const double t0 = bench::steady_seconds();
    const double us = bench::probe_us(batches, per_batch, call);
    return us * speed.factor(t0, bench::steady_seconds());
  };

  // -- emerge: onion build and peel -------------------------------------------
  const OnionFixture joint =
      make_fixture(core::SchemeKind::kJoint, 2, 3, 2, 2, drbg);
  const OnionFixture shared =
      make_fixture(core::SchemeKind::kShare, 2, 3, 4, 2, drbg);
  // The workload's own session shape: what its holders peel.
  const OnionFixture mine = make_fixture(
      spec.scheme, spec.shape.k, spec.shape.l, spec.resolved_carriers(),
      spec.resolved_threshold(), drbg);
  // A second of onion builds first: warm caches, and a window of speed
  // samples for the short probes that follow.
  for (const double until = bench::steady_seconds() + 1.0;
       bench::steady_seconds() < until;) {
    core::build_onion(joint.columns, drbg);
  }
  out.num("build_onion_us", probe_us(25, 20, [&] {
    core::build_onion(joint.columns, drbg);
  }));
  out.num("build_onion_share_us", probe_us(25, 20, [&] {
    core::build_onion(shared.columns, drbg);
  }));
  const Bytes onion = core::build_onion(mine.columns, drbg);
  if (peel_session(mine, onion) != mine.holders)
    failures.push_back("peel chain incomplete");
  const double session_peel_us =
      probe_us(25, 10, [&] { peel_session(mine, onion); });
  out.num("peel_us", session_peel_us / static_cast<double>(mine.holders));

  // -- crypto: envelope-sized AEAD, Shamir on a 32-byte key (m=2, n=4) -------
  const std::size_t envelope_plaintext =
      core::parse_column_onion(onion).envelopes.front().second.size() -
      crypto::kAeadOverhead;
  const crypto::SymmetricKey key =
      crypto::SymmetricKey::from_bytes(drbg.bytes(32));
  const Bytes nonce = drbg.bytes(12);
  const Bytes plaintext = drbg.bytes(envelope_plaintext);
  const Bytes aad = bytes_of("benchmark/aead");
  const Bytes sealed = crypto::aead_seal(key, nonce, plaintext, aad);
  if (crypto::aead_open(key, sealed, aad) != plaintext)
    failures.push_back("aead round trip");
  out.num("aead_seal_us", probe_us(30, 200, [&] {
    crypto::aead_seal(key, nonce, plaintext, aad);
  }));
  out.num("aead_open_us", probe_us(30, 200, [&] {
    crypto::aead_open(key, sealed, aad);
  }));
  const Bytes secret = drbg.bytes(32);
  const std::vector<crypto::Share> shares =
      crypto::shamir_split(secret, 2, 4, drbg);
  const std::vector<crypto::Share> two{shares[1], shares[3]};
  if (crypto::shamir_combine(two, 2) != secret)
    failures.push_back("shamir round trip");
  out.num("shamir_split_us", probe_us(30, 500, [&] {
    crypto::shamir_split(secret, 2, 4, drbg);
  }));
  out.num("shamir_combine_us", probe_us(30, 500, [&] {
    crypto::shamir_combine(two, 2);
  }));

  // -- dht: lookup and a layer key's lifecycle at the workload population ----
  {
    sim::Simulator sim;
    Rng rng(spec.seed);
    dht::ChordNetwork net(sim, rng, fleet_network_config(spec));
    net.bootstrap(spec.population);
    // Ring points drawn up front, one per timed call, so the probes time
    // only the DHT calls.
    Rng keys(spec.seed ^ 0xD47);
    std::vector<dht::NodeId> points(8192);
    for (dht::NodeId& p : points)
      p = dht::NodeId::from_bytes(keys.bytes(dht::kIdBytes));
    std::size_t next = 0;
    std::uint64_t hops = 0;
    out.num("lookup_us", probe_us(30, 200, [&] {
      hops += static_cast<std::uint64_t>(
          net.lookup(points[next++ % points.size()]).hops);
    }));
    out.num("lookup_hops", static_cast<double>(hops) /
                               static_cast<double>(next));

    // One layer key's lifecycle in a session: stored on its holder at
    // submit, loaded when the holder peels, erased when the session retires.
    std::vector<dht::NodeId> holders;
    for (const dht::NodeId& p : points) holders.push_back(net.lookup(p).node);
    const Bytes value = drbg.bytes(32);
    std::uint64_t misses = 0;
    next = 0;
    out.num("put_get_us", probe_us(30, 200, [&] {
      const std::size_t i = next++ % points.size();
      net.store_on(holders[i], points[i], Bytes(value));
      if (net.load_from(holders[i], points[i]) == nullptr) ++misses;
      net.erase(points[i]);
    }));
    if (misses != 0) failures.push_back("stored layer key not found");

    // -- api: a sender's submit on the same world -----------------------------
    cloud::CloudStore cloud;
    core::SessionDispatcher dispatcher(net);
    api::LocalClient client(net, cloud, &dispatcher);
    api::SubmitRequest request;
    request.scheme = spec.scheme;
    request.shape = spec.shape;
    request.carriers_n = spec.resolved_carriers();
    request.threshold_m = spec.resolved_threshold();
    request.emerging_time = spec.emerging_time;
    request.receiver_token = "bench-receiver";
    std::vector<double> submit_ms;
    const double submits0 = bench::steady_seconds();
    for (std::size_t i = 0; i < kSubmits; ++i) {
      request.message = drbg.bytes(32);
      request.seed = drbg.u64();
      const double s0 = bench::steady_seconds();
      client.submit(request);
      submit_ms.push_back((bench::steady_seconds() - s0) * 1e3);
    }
    const double submit_factor =
        speed.factor(submits0, bench::steady_seconds());
    out.num("submit_p50_ms",
            bench::percentile(submit_ms, 0.50) * submit_factor)
        .num("submit_p99_ms",
             bench::percentile(submit_ms, 0.99) * submit_factor);
  }

  // -- sim: one schedule + dispatch with ~100k events pending -----------------
  {
    sim::Simulator sim;
    Rng when(spec.seed ^ 0x5EED);
    std::uint64_t fired = 0;
    for (int i = 0; i < 100000; ++i) {
      sim.schedule_at(static_cast<double>(when.uniform(0, 1000000)),
                      [&fired] { ++fired; });
    }
    out.num("event_ns", 1e3 * probe_us(30, 2000, [&] {
      sim.schedule_in(static_cast<double>(when.uniform(0, 1000000)),
                      [&fired] { ++fired; });
      sim.step(1);
    }));
  }

  // Session geometry of this workload's scheme, for the attribution.
  out.count("holders", mine.holders)
      .count("nonterminal_holders", mine.nonterminal)
      .count("onion_seals", mine.holders + mine.columns.size() - 1)
      .count("shamir_splits", mine.splits)
      .count("shamir_combines", mine.combines)
      .count("envelope_plaintext_bytes", envelope_plaintext);
  std::string failure_text;
  for (const std::string& f : failures)
    failure_text += (failure_text.empty() ? "" : "; ") + f;
  out.count("ok", failures.empty() ? 1 : 0).str("failures", failure_text);
  out.print();
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc >= 2 ? argv[1] : "";
  try {
    const Args args = parse_args(argc, argv);
    if (command == "setup") return cmd_setup(args);
    if (command == "run") return cmd_run(args);
    if (command == "probe") return cmd_probe(args);
  } catch (const std::exception& e) {
    std::cerr << "sim_bench " << command << ": " << e.what() << std::endl;
    return 1;
  }
  std::cerr << "usage: sim_bench <setup|run|probe> --scenario=SPEC --seed=N"
            << std::endl;
  return 2;
}
