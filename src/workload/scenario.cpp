#include "workload/scenario.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <utility>

#include "common/error.hpp"

namespace emergence::workload {

std::size_t ScenarioSpec::malicious_count() const {
  return static_cast<std::size_t>(malicious_p *
                                  static_cast<double>(population));
}

std::size_t ScenarioSpec::sessions_in_world(std::size_t index) const {
  const std::size_t base = sessions / worlds;
  const std::size_t remainder = sessions % worlds;
  return base + (index < remainder ? 1 : 0);
}

void ScenarioSpec::validate() const {
  require(!name.empty(), "ScenarioSpec: name must not be empty");
  require(sessions >= 1, "ScenarioSpec '" + name + "': sessions must be >= 1");
  require(worlds >= 1, "ScenarioSpec '" + name + "': worlds must be >= 1");
  require(worlds <= sessions,
          "ScenarioSpec '" + name + "': worlds must not exceed sessions");
  require(emerging_time > 0.0,
          "ScenarioSpec '" + name + "': emerging time T must be positive");
  require(shape.k >= 1 && shape.l >= 1,
          "ScenarioSpec '" + name + "': degenerate path shape");
  // TimedReleaseSession's timing contract needs th > assembly_delay +
  // 4 * max single-attempt message latency (1.0 + 4 * 0.1 at the default
  // network config; slower transports raise the floor). The historical
  // 1.5s minimum is kept as a floor so scenario validity never loosens.
  const dht::TransportModel net = transport.resolved(0.010, 0.100);
  net.validate();
  const double min_th = std::max(1.5, 1.0 + 4.0 * net.max_single_latency());
  require(holding_period() > min_th,
          "ScenarioSpec '" + name +
              "': holding period T/l too short for the network timing "
              "contract (need > " + std::to_string(min_th) +
              " virtual seconds)");
  require(malicious_p >= 0.0 && malicious_p <= 1.0,
          "ScenarioSpec '" + name + "': p must lie in [0, 1]");
  require(domains <= 1024,
          "ScenarioSpec '" + name + "': domains capped at 1024");
  require(transient_fraction >= 0.0 && transient_fraction < 1.0,
          "ScenarioSpec '" + name + "': transient fraction must lie in [0, 1)");
  if (churn) {
    require(churn_alpha > 0.0,
            "ScenarioSpec '" + name + "': churn alpha must be positive");
  }

  // Same per-column holder demand as build_path_layout (path.cpp): the
  // share scheme staffs carriers_n per non-terminal column, k elsewhere.
  std::size_t holders_needed = 0;
  const bool share = scheme == core::SchemeKind::kShare;
  for (std::size_t c = 1; c <= shape.l; ++c) {
    holders_needed += (share && c < shape.l) ? resolved_carriers() : shape.k;
  }
  require(population > holders_needed + 1,
          "ScenarioSpec '" + name +
              "': population too small for distinct holders");
  if (share) {
    require(resolved_carriers() >= shape.k,
            "ScenarioSpec '" + name + "': share scheme needs carriers >= k");
    require(resolved_threshold() >= 1 &&
                resolved_threshold() <= resolved_carriers(),
            "ScenarioSpec '" + name + "': invalid share threshold");
  }
  if (scheme == core::SchemeKind::kCentralized) {
    require(shape.k == 1 && shape.l == 1,
            "ScenarioSpec '" + name + "': centralized scheme is a 1x1 layout");
  }

  // Delegate the law-specific checks (rates, shapes, amplitudes).
  (void)arrival.build();
  (void)lifetime.build(churn ? mean_lifetime() : emerging_time);
}

namespace {

ScenarioSpec base_scenario(std::string name, std::string summary) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.summary = std::move(summary);
  return s;
}

std::vector<ScenarioSpec> build_registry() {
  std::vector<ScenarioSpec> registry;

  {
    ScenarioSpec s = base_scenario(
        "steady-trickle", "evenly spaced arrivals, exponential churn");
    s.arrival.kind = ArrivalKind::kDeterministic;
    s.arrival.rate = 20.0;
    registry.push_back(std::move(s));
  }
  {
    ScenarioSpec s = base_scenario(
        "poisson-open", "memoryless open-loop arrivals, exponential churn");
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = 50.0;
    registry.push_back(std::move(s));
  }
  {
    // The acceptance scenario: day/night-modulated metropolitan load with
    // the heavy-tailed session times measured on deployed DHTs.
    ScenarioSpec s = base_scenario(
        "metro-diurnal",
        "day/night-modulated load over Weibull heavy-tail churn");
    s.arrival.kind = ArrivalKind::kDiurnal;
    s.arrival.rate = 250.0;
    s.arrival.amplitude = 0.6;
    s.arrival.period = 900.0;
    s.lifetime.kind = LifetimeKind::kWeibull;
    s.lifetime.shape = 0.6;
    s.churn_alpha = 0.006;
    registry.push_back(std::move(s));
  }
  {
    ScenarioSpec s = base_scenario(
        "flash-crowd", "20x arrival bursts on a cadence (release-day spikes)");
    s.arrival.kind = ArrivalKind::kFlashCrowd;
    s.arrival.rate = 20.0;
    s.arrival.burst_rate = 400.0;
    s.arrival.burst_start = 60.0;
    s.arrival.burst_length = 30.0;
    s.arrival.burst_period = 600.0;
    registry.push_back(std::move(s));
  }
  {
    ScenarioSpec s = base_scenario(
        "heavy-tail-churn", "Pareto(1.5) node lifetimes: many brief cameos");
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = 50.0;
    s.lifetime.kind = LifetimeKind::kPareto;
    s.lifetime.shape = 1.5;
    s.churn_alpha = 0.02;
    registry.push_back(std::move(s));
  }
  {
    ScenarioSpec s = base_scenario(
        "trace-replay", "lifetimes from the bundled measured-CDF trace");
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = 50.0;
    s.lifetime.kind = LifetimeKind::kTrace;
    registry.push_back(std::move(s));
  }
  {
    ScenarioSpec s = base_scenario(
        "kademlia-steady", "the Kademlia backend under steady Poisson load");
    s.backend = core::DhtBackend::kKademlia;
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = 30.0;
    s.population = 512;
    registry.push_back(std::move(s));
  }
  {
    ScenarioSpec s = base_scenario(
        "covert-mix", "20% covert coalition exfiltrating under live churn");
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = 40.0;
    s.malicious_p = 0.2;
    registry.push_back(std::move(s));
  }
  {
    ScenarioSpec s = base_scenario(
        "dropping-storm", "flash crowds against a 20% dropping coalition");
    s.arrival.kind = ArrivalKind::kFlashCrowd;
    s.arrival.rate = 20.0;
    s.arrival.burst_rate = 300.0;
    s.arrival.burst_start = 30.0;
    s.arrival.burst_length = 20.0;
    s.arrival.burst_period = 300.0;
    s.malicious_p = 0.2;
    s.attack_mode = core::AttackMode::kDropping;
    registry.push_back(std::move(s));
  }
  {
    ScenarioSpec s = base_scenario(
        "share-threshold", "key-share routing (n=4, m=2) vs a 20% coalition");
    s.scheme = core::SchemeKind::kShare;
    s.carriers_n = 4;
    s.threshold_m = 2;
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = 30.0;
    s.malicious_p = 0.2;
    registry.push_back(std::move(s));
  }
  {
    ScenarioSpec s = base_scenario(
        "calm-transients", "half the outages are leave-and-rejoin, not death");
    s.arrival.kind = ArrivalKind::kDeterministic;
    s.arrival.rate = 10.0;
    s.transient_fraction = 0.5;
    s.churn_alpha = 0.02;
    registry.push_back(std::move(s));
  }

  // -- transport axes (PR 6): the same diurnal metro load over non-ideal
  // message transports. Appended after the historical scenarios so every
  // earlier registry entry keeps its position and pinned tallies.
  {
    ScenarioSpec s = base_scenario(
        "lan-fabric", "sub-millisecond datacenter links, no loss");
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = 50.0;
    s.transport = dht::TransportModel::lan();
    registry.push_back(std::move(s));
  }
  {
    ScenarioSpec s = base_scenario(
        "wan-geo", "four geo zones, 40-200ms cross-zone RTTs, rare loss");
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = 50.0;
    s.transport = dht::TransportModel::wan();
    registry.push_back(std::move(s));
  }
  {
    ScenarioSpec s = base_scenario(
        "lossy-links", "5% iid message loss with three bounded retries");
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = 50.0;
    s.transport = dht::TransportModel::lossy(0.05);
    registry.push_back(std::move(s));
  }
  {
    ScenarioSpec s = base_scenario(
        "straggler-tail", "log-normal latency with a heavy straggler tail");
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = 50.0;
    s.transport = dht::TransportModel::straggler();
    registry.push_back(std::move(s));
  }
  {
    ScenarioSpec s = base_scenario(
        "partition-heal", "two zones split for [60s, 180s), then heal");
    s.arrival.kind = ArrivalKind::kPoisson;
    s.arrival.rate = 50.0;
    s.emerging_time = 240.0;  // sessions straddle the window and its heal
    s.transport = dht::TransportModel::partition_heal(60.0, 180.0);
    registry.push_back(std::move(s));
  }

  for (const ScenarioSpec& s : registry) s.validate();
  return registry;
}

}  // namespace

const std::vector<ScenarioSpec>& scenario_registry() {
  static const std::vector<ScenarioSpec> kRegistry = build_registry();
  return kRegistry;
}

ScenarioSpec find_scenario(const std::string& name) {
  for (const ScenarioSpec& s : scenario_registry()) {
    if (s.name == name) return s;
  }
  std::string known;
  for (const ScenarioSpec& s : scenario_registry()) {
    if (!known.empty()) known += ", ";
    known += s.name;
  }
  throw PreconditionError("unknown scenario '" + name + "' (known: " + known +
                          ")");
}

void add_protocol_options(OptionTable& table, core::SchemeKind& scheme,
                          core::PathShape& shape, std::size_t& carriers_n,
                          std::size_t& threshold_m, double& emerging_time) {
  table.add_size("k", "replication factor: onion slots per column", &shape.k);
  table.add_size("l", "path length: columns / holding periods", &shape.l);
  table.add_size("carriers",
                 "share scheme: holders per column (0 = k+1)", &carriers_n);
  table.add_size("threshold",
                 "share scheme: Shamir threshold m (0 = k)", &threshold_m);
  table.add_real("T", "emerging period in seconds", &emerging_time);
  table.add_choice(
      "scheme", "routing scheme",
      {{"centralized",
        [&scheme, &shape] {
          scheme = core::SchemeKind::kCentralized;
          shape = core::PathShape{1, 1};
        }},
       {"disjoint", [&scheme] { scheme = core::SchemeKind::kDisjoint; }},
       {"joint", [&scheme] { scheme = core::SchemeKind::kJoint; }},
       {"share", [&scheme] { scheme = core::SchemeKind::kShare; }}});
}

OptionTable scenario_option_table(ScenarioSpec& spec) {
  OptionTable table;
  table.add_size("population", "DHT nodes in each world", &spec.population);
  table.add_size("sessions", "session budget across worlds", &spec.sessions);
  table.add_size("worlds", "independent worlds sharded over the pool",
                 &spec.worlds);
  // 0 = legacy serial loop; >= 1 = the windowed domain executor.
  table.add_size("domains", "parallel domains within each world (0 = serial)",
                 &spec.domains);
  table.add_u64("seed", "root seed (decimal or 0x hex)", &spec.seed);
  add_protocol_options(table, spec.scheme, spec.shape, spec.carriers_n,
                       spec.threshold_m, spec.emerging_time);
  table.add("alpha", "X", "churn ratio T / mean lifetime (0 disables churn)",
            [&spec](const std::string& v) {
              spec.churn_alpha = parse_real_option("alpha", v);
              spec.churn = spec.churn_alpha > 0.0;
            });
  table.add_real("p", "malicious coalition fraction of the population",
                 &spec.malicious_p);
  table.add_real("rate", "mean arrival rate (sessions/s)", &spec.arrival.rate);
  table.add_real("amplitude", "diurnal modulation depth",
                 &spec.arrival.amplitude);
  table.add_real("period", "diurnal period in seconds", &spec.arrival.period);
  table.add_real("burst-rate", "flash-crowd burst rate (sessions/s)",
                 &spec.arrival.burst_rate);
  table.add_real("burst-start", "first burst onset (s)",
                 &spec.arrival.burst_start);
  table.add_real("burst-length", "burst duration (s)",
                 &spec.arrival.burst_length);
  table.add_real("burst-period", "burst cadence (s)",
                 &spec.arrival.burst_period);
  table.add_real("transient", "fraction of outages that rejoin",
                 &spec.transient_fraction);
  table.add_real("lifetime-shape", "Weibull/Pareto shape parameter",
                 &spec.lifetime.shape);
  table.add("net", "PRESET[:k=v;...]",
            "transport model (ideal|lan|wan|lossy|straggler|partition-heal)",
            [&spec](const std::string& v) {
              // Delegates the preset[:sub-key=value;...] mini-grammar (and
              // its diagnostics) to the transport model itself.
              spec.transport = dht::TransportModel::parse(v);
            });
  table.add_choice(
      "backend", "DHT substrate",
      {{"chord", [&spec] { spec.backend = core::DhtBackend::kChord; }},
       {"kademlia",
        [&spec] { spec.backend = core::DhtBackend::kKademlia; }}});
  table.add_choice(
      "arrival", "arrival process",
      {{"deterministic",
        [&spec] { spec.arrival.kind = ArrivalKind::kDeterministic; }},
       {"poisson", [&spec] { spec.arrival.kind = ArrivalKind::kPoisson; }},
       {"diurnal", [&spec] { spec.arrival.kind = ArrivalKind::kDiurnal; }},
       {"flash-crowd",
        [&spec] { spec.arrival.kind = ArrivalKind::kFlashCrowd; }}});
  table.add_choice(
      "lifetime", "node lifetime law",
      {{"exponential",
        [&spec] { spec.lifetime.kind = LifetimeKind::kExponential; }},
       {"weibull", [&spec] { spec.lifetime.kind = LifetimeKind::kWeibull; }},
       {"pareto", [&spec] { spec.lifetime.kind = LifetimeKind::kPareto; }},
       {"trace", [&spec] { spec.lifetime.kind = LifetimeKind::kTrace; }}});
  return table;
}

ScenarioSpec parse_scenario(const std::string& text) {
  require(!text.empty(), "parse_scenario: empty scenario spec");
  const std::size_t colon = text.find(':');
  ScenarioSpec spec = find_scenario(text.substr(0, colon));
  if (colon != std::string::npos) {
    std::string overrides = text.substr(colon + 1);
    require(!overrides.empty(),
            "parse_scenario: trailing ':' without overrides in '" + text + "'");
    const OptionTable table = scenario_option_table(spec);
    std::size_t start = 0;
    while (start <= overrides.size()) {
      const std::size_t comma = overrides.find(',', start);
      const std::string token =
          overrides.substr(start, comma == std::string::npos
                                      ? std::string::npos
                                      : comma - start);
      require(!token.empty(),
              "parse_scenario: empty override token in '" + text + "'");
      const std::size_t eq = token.find('=');
      require(eq != std::string::npos && eq > 0 && eq + 1 < token.size(),
              "parse_scenario: override '" + token + "' is not key=value");
      table.apply(token.substr(0, eq), token.substr(eq + 1),
                  "scenario override");
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  spec.validate();
  return spec;
}

}  // namespace emergence::workload
