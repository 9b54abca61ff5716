#include "dht/transport.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/hex.hpp"
#include "obs/trace.hpp"

namespace emergence::dht {

void TransportStats::merge(const TransportStats& other) {
  messages += other.messages;
  attempts += other.attempts;
  dropped += other.dropped;
  retried += other.retried;
  timed_out += other.timed_out;
  hop_latency_us.merge(other.hop_latency_us);
}

std::uint64_t TransportStats::fingerprint() const {
  Fingerprint fp;
  fp.mix(messages);
  fp.mix(attempts);
  fp.mix(dropped);
  fp.mix(retried);
  fp.mix(timed_out);
  for (const auto& [key, weight] : hop_latency_us.bins()) {
    fp.mix(static_cast<std::uint64_t>(key));
    fp.mix(weight);
  }
  return fp.value();
}

TransportModel TransportModel::ideal() { return TransportModel{}; }

TransportModel TransportModel::lan() {
  TransportModel t;
  t.kind = LatencyKind::kUniform;
  t.min_latency = 0.0002;  // one switch hop ..
  t.max_latency = 0.002;   // .. to a congested rack, in virtual seconds
  return t;
}

TransportModel TransportModel::wan() {
  TransportModel t;
  t.kind = LatencyKind::kZoned;
  t.zone_count = 4;
  t.intra_min = 0.005;
  t.intra_max = 0.030;
  t.inter_min = 0.040;
  t.inter_max = 0.200;
  t.drop_probability = 0.001;
  t.max_retries = 3;
  t.retry_timeout = 0.5;
  t.retry_backoff = 2.0;
  return t;
}

TransportModel TransportModel::lossy(double p) {
  // The ideal() latency law, with loss + bounded retry layered on top.
  TransportModel t;
  t.drop_probability = p;
  t.max_retries = 3;
  t.retry_timeout = 0.5;
  t.retry_backoff = 2.0;
  return t;
}

TransportModel TransportModel::straggler() {
  TransportModel t;
  t.kind = LatencyKind::kLogNormal;
  t.log_mu = std::log(0.030);  // 30ms median ..
  t.log_sigma = 1.3;           // .. with a p99 around 0.6s
  t.cap = 1.5;                 // hard truncation keeps L well-defined
  t.min_latency = 0.0005;
  return t;
}

TransportModel TransportModel::partition_heal(double start, double end) {
  TransportModel t;
  t.kind = LatencyKind::kZoned;
  t.zone_count = 2;
  t.intra_min = 0.005;
  t.intra_max = 0.030;
  t.inter_min = 0.040;
  t.inter_max = 0.120;
  t.partition_start = start;
  t.partition_end = end;
  // The retry ladder must be able to outlive the outage: 2+4+...+64 = 126s
  // of backoff spans the default 120s window, so messages sent into the
  // partition recover after the heal instead of timing out.
  t.max_retries = 6;
  t.retry_timeout = 2.0;
  t.retry_backoff = 2.0;
  return t;
}

namespace {

double parse_transport_real(const std::string& key, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    throw PreconditionError("transport param '" + key + "=" + value +
                            "': not a number");
  }
  return parsed;
}

std::size_t parse_transport_size(const std::string& key,
                                 const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
      value.find('-') != std::string::npos) {
    throw PreconditionError("transport param '" + key + "=" + value +
                            "': not a non-negative integer");
  }
  return static_cast<std::size_t>(parsed);
}

}  // namespace

TransportModel TransportModel::parse(const std::string& text) {
  require(!text.empty(), "TransportModel::parse: empty net= spec");
  const std::size_t colon = text.find(':');
  const std::string preset = text.substr(0, colon);

  TransportModel t;
  if (preset == "ideal") {
    t = ideal();
  } else if (preset == "lan") {
    t = lan();
  } else if (preset == "wan") {
    t = wan();
  } else if (preset == "lossy") {
    t = lossy();
  } else if (preset == "straggler") {
    t = straggler();
  } else if (preset == "partition-heal") {
    t = partition_heal();
  } else {
    throw PreconditionError(
        "unknown transport preset '" + preset +
        "' (known: ideal, lan, wan, lossy, straggler, partition-heal)");
  }

  if (colon != std::string::npos) {
    const std::string params = text.substr(colon + 1);
    require(!params.empty(),
            "TransportModel::parse: trailing ':' without params in '" + text +
                "'");
    std::size_t start = 0;
    while (start <= params.size()) {
      const std::size_t semi = params.find(';', start);
      const std::string token = params.substr(
          start, semi == std::string::npos ? std::string::npos : semi - start);
      require(!token.empty(),
              "TransportModel::parse: empty param token in '" + text + "'");
      const std::size_t eq = token.find('=');
      require(eq != std::string::npos && eq > 0 && eq + 1 < token.size(),
              "TransportModel::parse: param '" + token + "' is not key=value");
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "p" || key == "drop") {
        t.drop_probability = parse_transport_real(key, value);
      } else if (key == "retries") {
        t.max_retries = parse_transport_size(key, value);
      } else if (key == "timeout") {
        t.retry_timeout = parse_transport_real(key, value);
      } else if (key == "backoff") {
        t.retry_backoff = parse_transport_real(key, value);
      } else if (key == "zones") {
        t.zone_count = parse_transport_size(key, value);
      } else if (key == "start") {
        t.partition_start = parse_transport_real(key, value);
      } else if (key == "end") {
        t.partition_end = parse_transport_real(key, value);
      } else if (key == "cap") {
        t.cap = parse_transport_real(key, value);
      } else {
        throw PreconditionError("unknown transport param key '" + key + "'");
      }
      if (semi == std::string::npos) break;
      start = semi + 1;
    }
  }
  if (preset == "ideal") {
    require(!t.can_drop() && t.max_retries == 0,
            "TransportModel::parse: ideal admits no loss model in '" + text +
                "'");
  }
  t.validate();
  return t;
}

std::string TransportModel::describe() const {
  std::string out;
  switch (kind) {
    case LatencyKind::kFixed:
      out = "fixed(" + std::to_string(max_latency) + "s)";
      break;
    case LatencyKind::kUniform:
      out = "uniform[" + std::to_string(min_latency) + ", " +
            std::to_string(max_latency) + "]";
      break;
    case LatencyKind::kLogNormal:
      out = "lognormal(mu=" + std::to_string(log_mu) +
            ", sigma=" + std::to_string(log_sigma) +
            ", cap=" + std::to_string(cap) + ")";
      break;
    case LatencyKind::kZoned:
      out = "zoned(" + std::to_string(zone_count) + " zones)";
      break;
  }
  if (drop_probability > 0.0) {
    out += " drop=" + std::to_string(drop_probability) +
           " retries=" + std::to_string(max_retries);
  }
  if (has_partition()) {
    out += " partition=[" + std::to_string(partition_start) + ", " +
           std::to_string(partition_end) + ")";
  }
  return out;
}

void TransportModel::validate() const {
  require(drop_probability >= 0.0 && drop_probability < 1.0,
          "TransportModel: drop probability must lie in [0, 1)");
  require(max_retries <= 16, "TransportModel: retry budget capped at 16");
  if (max_retries > 0) {
    require(retry_timeout > 0.0,
            "TransportModel: retry timeout must be positive");
    require(retry_backoff >= 1.0, "TransportModel: retry backoff must be >= 1");
  }
  require(zone_count >= 1, "TransportModel: need at least one zone");
  require(partition_end >= partition_start,
          "TransportModel: partition window end precedes start");
  switch (kind) {
    case LatencyKind::kFixed:
      require(max_latency > 0.0, "TransportModel: fixed latency must be > 0");
      break;
    case LatencyKind::kUniform:
      require(min_latency >= 0.0 && max_latency >= min_latency &&
                  max_latency > 0.0,
              "TransportModel: bad uniform latency range");
      break;
    case LatencyKind::kLogNormal:
      require(log_sigma > 0.0, "TransportModel: lognormal sigma must be > 0");
      require(cap > 0.0 && cap >= min_latency,
              "TransportModel: lognormal cap must bound the floor");
      break;
    case LatencyKind::kZoned:
      require(zone_count >= 2, "TransportModel: zoned latency needs >= 2 zones");
      require(intra_min >= 0.0 && intra_max >= intra_min && intra_max > 0.0,
              "TransportModel: bad intra-zone latency range");
      require(inter_min >= 0.0 && inter_max >= inter_min && inter_max > 0.0,
              "TransportModel: bad inter-zone latency range");
      break;
  }
}

double TransportModel::max_single_latency() const {
  switch (kind) {
    case LatencyKind::kFixed:
    case LatencyKind::kUniform:
      return max_latency;
    case LatencyKind::kLogNormal:
      return cap;
    case LatencyKind::kZoned:
      return intra_max > inter_max ? intra_max : inter_max;
  }
  return max_latency;
}

double TransportModel::min_single_latency() const {
  switch (kind) {
    case LatencyKind::kUniform:
      return min_latency;
    case LatencyKind::kFixed:
      return max_latency;  // the constant
    case LatencyKind::kLogNormal:
      return min_latency;  // the truncation floor (0 when unset)
    case LatencyKind::kZoned:
      return intra_min < inter_min ? intra_min : inter_min;
  }
  return min_latency;
}

double TransportModel::retry_delay_sum() const {
  double sum = 0.0;
  double delay = retry_timeout;
  for (std::size_t i = 0; i < max_retries; ++i) {
    sum += delay;
    delay *= retry_backoff;
  }
  return sum;
}

bool TransportModel::guarantees_exact_delivery(double holding_period,
                                               double assembly_delay) const {
  if (has_partition()) return false;
  return retry_delay_sum() + max_single_latency() + assembly_delay <
         holding_period;
}

double TransportModel::reap_slack(std::size_t path_length) const {
  // Pure-latency transports need no slack: the session constructor
  // precondition (th > assembly + 4L) already confines every event to tr.
  if (!can_drop() && max_retries == 0) return 0.0;
  // Worst per-hop lateness: a message retried to exhaustion arrives at most
  // retry_delay_sum + L after its deadline and is processed assembly later;
  // lateness can cascade once per column. The partition window is already
  // bounded by the retry ladder but is added as explicit margin.
  return static_cast<double>(path_length) *
             (retry_delay_sum() + max_single_latency() + 1.0) +
         partition_length();
}

std::size_t TransportModel::compute_zone(const NodeId& id) const {
  // Stream id: the id's first 8 bytes (big-endian). fork() is a pure
  // function of (zone_seed, stream), so the assignment is identical across
  // worlds, threads and reruns.
  std::uint64_t stream = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    stream = (stream << 8) | id.bytes()[i];
  }
  return Rng(zone_seed).fork(stream).index(zone_count);
}

std::size_t TransportModel::zone_of(const NodeId& id) const {
  if (zone_count <= 1) return 0;
  const auto cached = zone_cache_.find(id);
  if (cached != zone_cache_.end()) return cached->second;
  // Unprimed id (a test probing an arbitrary id): compute without
  // memoizing. Inserting here from a const path was the zone-cache data
  // race; correctness never depended on the memo, only speed.
  return compute_zone(id);
}

void TransportModel::prime_zone(const NodeId& id) {
  if (zone_count <= 1) return;
  zone_cache_.emplace(id, compute_zone(id));
}

bool TransportModel::cross_zone(const NodeId& from, const NodeId& to) const {
  if (zone_count <= 1) return false;
  return zone_of(from) != zone_of(to);
}

double TransportModel::sample_latency(Rng& rng, bool cross) const {
  switch (kind) {
    case LatencyKind::kUniform:
      return min_latency + rng.real() * (max_latency - min_latency);
    case LatencyKind::kFixed:
      return max_latency;  // no draw: constant links stay draw-free
    case LatencyKind::kLogNormal: {
      // Box-Muller from two uniform draws; 1-u1 keeps the log argument in
      // (0, 1]. Truncated to [min_latency, cap] so worst case stays bounded.
      const double u1 = rng.real();
      const double u2 = rng.real();
      const double n = std::sqrt(-2.0 * std::log(1.0 - u1)) *
                       std::cos(2.0 * 3.14159265358979323846 * u2);
      const double sample = std::exp(log_mu + log_sigma * n);
      if (sample < min_latency) return min_latency;
      if (sample > cap) return cap;
      return sample;
    }
    case LatencyKind::kZoned: {
      const double lo = cross ? inter_min : intra_min;
      const double hi = cross ? inter_max : intra_max;
      return lo + rng.real() * (hi - lo);
    }
  }
  return max_latency;
}

namespace {

/// The id's first 8 bytes, big-endian — the same prefix compute_zone keys
/// its fork on. Feeds the hop-span sampling key.
std::uint64_t id_prefix(const NodeId& id) {
  std::uint64_t prefix = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    prefix = (prefix << 8) | id.bytes()[i];
  }
  return prefix;
}

}  // namespace

void TransportModel::send(sim::Simulator& sim, Rng& rng, TransportStats& stats,
                          const NodeId& from, const NodeId& to,
                          std::function<void()> deliver,
                          obs::TraceShard* trace) const {
  ++stats.messages;
  const bool cross = kind == LatencyKind::kZoned && cross_zone(from, to);
  // Hop-span sampling is decided ONCE per logical message, keyed purely on
  // content (endpoint prefixes + send time) via the tracer's own forked
  // stream — no draw from `rng`, so schedules and stats are bit-identical
  // with tracing on or off, and the decision is independent of the domain
  // and thread layout. Retransmits inherit the decision through the
  // closure.
  std::string link;
  if (trace != nullptr &&
      trace->sample(obs::hop_sample_key(id_prefix(from), id_prefix(to),
                                        sim.now()))) {
    link = from.to_hex().substr(0, 8) + ">" + to.to_hex().substr(0, 8);
  } else {
    trace = nullptr;
  }
  attempt(sim, rng, stats, cross, std::move(deliver), 0, trace,
          std::move(link));
}

void TransportModel::attempt(sim::Simulator& sim, Rng& rng,
                             TransportStats& stats, bool cross,
                             std::function<void()> deliver,
                             std::size_t attempt_index, obs::TraceShard* trace,
                             std::string link) const {
  ++stats.attempts;
  bool lost = false;
  if (partition_active(sim.now()) && (zone_count <= 1 || cross)) {
    lost = true;  // deterministic outage: no draw, so heals replay exactly
  } else if (drop_probability > 0.0) {
    // Guarded so the no-loss path consumes zero extra draws — the ideal()
    // bit-identity contract (Rng::chance always draws for p in (0, 1)).
    lost = rng.chance(drop_probability);
  }
  auto hop_event = [&](const char* name, std::int64_t dur_us) {
    obs::TraceEvent e;
    e.ts_us = std::llround(sim.now() * 1e6);
    e.dur_us = dur_us;
    e.name = name;
    e.cat = "transport";
    e.args = {{"link", link},
              {"attempt", std::to_string(attempt_index)}};
    trace->record(std::move(e));
  };
  if (lost) {
    ++stats.dropped;
    if (attempt_index < max_retries) {
      ++stats.retried;
      if (trace != nullptr) hop_event("hop_drop", 0);
      const double rto = retry_timeout *
                         std::pow(retry_backoff,
                                  static_cast<double>(attempt_index));
      sim.schedule_in(rto, [this, &sim, &rng, &stats, cross,
                            deliver = std::move(deliver), attempt_index,
                            trace, link = std::move(link)]() mutable {
        attempt(sim, rng, stats, cross, std::move(deliver), attempt_index + 1,
                trace, std::move(link));
      });
    } else {
      ++stats.timed_out;
      if (trace != nullptr) hop_event("hop_timeout", 0);
    }
    return;
  }
  const double latency = sample_latency(rng, cross);
  const std::int64_t latency_us = std::llround(latency * 1e6);
  stats.hop_latency_us.add(latency_us);
  if (trace != nullptr) hop_event("hop", latency_us);
  sim.schedule_in(latency, std::move(deliver));
}

}  // namespace emergence::dht
