// The metrics registry: one read model for every counter in the system.
//
// The repository accumulates its hot-path statistics in small lock-free
// structs (dht::TransportStats, dht::LookupStats, service::WireStats,
// workload::FleetTally) — per-domain / per-world
// shards merged commutatively at barriers, exactly-integer so any sharding
// reproduces the serial totals bit-identically. A MetricsRegistry is the
// uniform surface those structs are published onto (obs/bridge.hpp): named
// counters, gauges and Histogram64-backed histograms with optional label
// sets, themselves merged with the same commutative rules
//   counters: sum    gauges: max    histograms: Histogram64::merge
// so per-domain registries folded in ANY order produce one canonical
// registry (property-tested under permuted merge orders in
// tests/test_obs.cpp, mirroring the PR 7 merge-order tests).
//
// Sinks: to_prometheus() renders the text exposition format the live
// daemon dumps and `emerged status --metrics` prints; write_json() renders
// the "metrics" block every BENCH_*.json artifact carries (bench_common);
// flatten() is the wire form a MetricsResponse frame ships. Iteration
// order is the std::map key order, so every sink is deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace emergence::obs {

/// Optional label set attached to a metric series, rendered
/// prometheus-style: name{key="value",...}. Keys are sorted at attach time
/// so the same labels always produce the same series identity.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Renders "name" or "name{k=\"v\",...}" with labels sorted by key.
/// Throws PreconditionError when `name` is not a valid metric name
/// ([a-zA-Z_][a-zA-Z0-9_]*) — the prometheus sink must never emit a line
/// a scraper would reject.
std::string series_key(const std::string& name, const Labels& labels);

class MetricsRegistry {
 public:
  /// The counter cell for (name, labels), created at zero on first use.
  /// Counters merge by summation.
  std::uint64_t& counter(const std::string& name, const Labels& labels = {});
  /// The gauge cell for (name, labels). Gauges merge by max — the one
  /// reduction that keeps real-valued level readings (peak live sessions,
  /// horizon) commutative and associative across shards.
  double& gauge(const std::string& name, const Labels& labels = {});
  /// The histogram cell for (name, labels); Histogram64 merges exactly.
  Histogram64& histogram(const std::string& name, const Labels& labels = {});

  /// Folds `other` in with the commutative rules above.
  void merge(const MetricsRegistry& other);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram64>& histograms() const {
    return histograms_;
  }

  /// Every series as (key, value) rows in deterministic key order:
  /// counters as exact doubles, gauges verbatim, histograms expanded to
  /// _count/_min/_max/_mean/_p50/_p99 pseudo-series. This is the payload a
  /// MetricsResponse wire frame carries.
  std::vector<std::pair<std::string, double>> flatten() const;

  /// Prometheus text exposition format: "# TYPE" lines plus one sample per
  /// series (histograms as the expanded pseudo-series, since the exact
  /// sparse Histogram64 has no native prometheus shape).
  std::string to_prometheus() const;

  /// The "metrics" JSON object for BENCH artifacts:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,...}}}.
  void write_json(std::ostream& os, const std::string& indent = "  ") const;

  /// Order-independent digest over every series (common/fingerprint.hpp):
  /// equal registries <=> equal fingerprints, used by the merge-order
  /// property tests.
  std::uint64_t fingerprint() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram64> histograms_;
};

}  // namespace emergence::obs
