// Shared plumbing for the bench drivers: the p sweep of the paper's
// evaluation, the one flag parser every driver goes through, headers that
// echo the experimental setup, and the machine-readable BENCH_*.json
// artifact every driver emits for trajectory tracking.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/options.hpp"
#include "common/stats.hpp"
#include "emerge/experiment/table.hpp"
#include "emerge/monte_carlo.hpp"
#include "emerge/sweep.hpp"
#include "obs/metrics.hpp"

namespace emergence::bench {

/// The paper sweeps the malicious rate p over [0, 0.5].
inline std::vector<double> paper_p_sweep(double step = 0.05) {
  std::vector<double> ps;
  for (double p = 0.0; p <= 0.5 + 1e-9; p += step) ps.push_back(p);
  return ps;
}

/// Parses argv through `flags`, the one flag parser of every driver.
/// --help prints the flag table and exits 0; an unknown flag, a malformed
/// value or a positional argument prints OptionTable's diagnostic and
/// exits 2.
inline void parse_flags(int argc, char** argv, OptionTable flags = {}) {
  bool help = false;
  flags.add_flag("help", "print this flag table and exit", &help);
  try {
    const std::vector<std::string> positional = flags.parse_cli(argc, argv);
    if (!positional.empty()) {
      throw PreconditionError("unexpected argument '" + positional.front() +
                              "'");
    }
  } catch (const Error& e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    std::exit(2);
  }
  if (help) {
    std::cout << "usage: " << argv[0] << " [--flag=VALUE ...]\n"
              << flags.help();
    std::exit(0);
  }
}

/// --runs and --threads, the flags every Monte-Carlo driver takes.
struct SweepFlags {
  std::size_t runs;
  std::size_t threads = 0;  ///< 0 = auto; never changes a number
};

/// Parses the sweep flags, with `runs` as the default, plus a driver's own
/// `extra` flags, as parse_flags does.
inline SweepFlags parse_sweep_flags(int argc, char** argv, std::size_t runs,
                                    OptionTable extra = {}) {
  SweepFlags flags{runs};
  extra.add_size("runs",
                 "Monte-Carlo runs per point (default " +
                     std::to_string(runs) + ")",
                 &flags.runs);
  extra.add_size("threads",
                 "worker threads (0 = auto; never changes a number)",
                 &flags.threads);
  parse_flags(argc, argv, std::move(extra));
  return flags;
}

inline void print_setup(const std::string& figure, std::size_t runs) {
  std::cout << "# == " << figure << " ==\n"
            << "# setup: Monte Carlo over a simulated DHT population, "
            << runs << " runs per point (paper: 1000), seed fixed.\n"
            << "# columns: analytic model prediction and simulated estimate "
               "(R = min(Rr, Rd)).\n\n";
}

/// Wall-clock stopwatch for the sweep timing recorded in the JSON artifact.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double>(elapsed).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// -- machine-readable sweep artifacts ----------------------------------------
//
// Every bench driver writes one BENCH_<name>.json next to its stdout tables
// so the bench trajectory can be tracked run-over-run. Schema (versioned;
// bump kBenchSchemaVersion on breaking changes):
//   { "schema_version": int, "bench": str, "scenario": str,
//     "root_seed": int, "runs": int, "threads": int, "wall_seconds": num,
//     "extra": { str: num, ... },
//     "metrics": { "counters": {...}, "gauges": {...},
//                  "histograms": { str: {count, min, max, mean, p50, p99} } },
//     "tables": [ { "name": str, "caption": str,
//                   "columns": [str, ...], "rows": [[num, ...], ...] } ] }
//
// "scenario" names what was run (a workload scenario, a figure, a pinned
// matrix) and "root_seed" is the seed the whole artifact derives from, so
// any tracked run can be replayed exactly. BenchReport below is the one
// writer.

/// Bumped whenever the artifact layout changes shape: 2 added
/// schema_version itself, scenario and root_seed; 3 added the "metrics"
/// block (an obs::MetricsRegistry snapshot, always present — empty maps
/// when the driver publishes nothing).
inline constexpr int kBenchSchemaVersion = 3;

inline void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default: os << c;
    }
  }
  os << '"';
}

inline void json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";  // JSON has no NaN/Inf
    return;
  }
  const auto old_precision = os.precision();
  os.precision(std::numeric_limits<double>::max_digits10);
  os << v;
  os.precision(old_precision);
}

/// The one writer of bench artifacts: collects tables, extra scalars and
/// a metrics block under the run's context (scenario + root seed), times
/// the run from construction, and writes BENCH_<bench>.json once.
class BenchReport {
 public:
  BenchReport(std::string bench, std::size_t runs, std::size_t threads,
              std::string scenario, std::uint64_t root_seed)
      : bench_(std::move(bench)),
        scenario_(std::move(scenario)),
        root_seed_(root_seed),
        runs_(runs),
        threads_(threads) {}

  void add_table(const core::FigureTable& table) { tables_.push_back(table); }

  /// Extra top-level scalar (e.g. "speedup": 4.2).
  void set_extra(const std::string& key, double value) {
    extra_.emplace_back(key, value);
  }

  /// The artifact's metrics block (schema v3): publish stats structs onto
  /// it via obs::publish before finish().
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Writes BENCH_<bench>.json into the working directory
  /// (EMERGENCE_BENCH_JSON_DIR overrides); wall_seconds defaults to this
  /// report's lifetime.
  void finish() const { finish(timer_.seconds()); }
  void finish(double wall_seconds) const {
    std::string dir = ".";
    if (const char* env = std::getenv("EMERGENCE_BENCH_JSON_DIR")) dir = env;
    const std::string path = dir + "/BENCH_" + bench_ + ".json";
    std::ofstream os(path);
    if (!os) {
      std::cerr << "# warning: could not open " << path
                << " for writing; no JSON artifact emitted\n";
      return;
    }
    os << "{\n  \"schema_version\": " << kBenchSchemaVersion
       << ",\n  \"bench\": ";
    json_escape(os, bench_);
    os << ",\n  \"scenario\": ";
    json_escape(os, scenario_);
    os << ",\n  \"root_seed\": " << root_seed_;
    os << ",\n  \"runs\": " << runs_ << ",\n  \"threads\": " << threads_
       << ",\n  \"wall_seconds\": ";
    json_number(os, wall_seconds);
    os << ",\n  \"extra\": {";
    for (std::size_t i = 0; i < extra_.size(); ++i) {
      if (i > 0) os << ", ";
      json_escape(os, extra_[i].first);
      os << ": ";
      json_number(os, extra_[i].second);
    }
    os << "},\n  \"metrics\": ";
    metrics_.write_json(os, "  ");
    os << ",\n  \"tables\": [";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const core::FigureTable& table = tables_[t];
      os << (t > 0 ? "," : "") << "\n    {\n      \"name\": ";
      json_escape(os, table.title());
      os << ",\n      \"caption\": ";
      json_escape(os, table.caption());
      os << ",\n      \"columns\": [";
      for (std::size_t c = 0; c < table.headers().size(); ++c) {
        if (c > 0) os << ", ";
        json_escape(os, table.headers()[c]);
      }
      os << "],\n      \"rows\": [";
      for (std::size_t r = 0; r < table.rows().size(); ++r) {
        os << (r > 0 ? "," : "") << "\n        [";
        const std::vector<double>& row = table.rows()[r];
        for (std::size_t c = 0; c < row.size(); ++c) {
          if (c > 0) os << ", ";
          json_number(os, row[c]);
        }
        os << "]";
      }
      os << "\n      ]\n    }";
    }
    os << "\n  ]\n}\n";
    std::cout << "# json: " << path << "\n";
  }

 private:
  WallTimer timer_;
  std::string bench_;
  std::string scenario_;
  std::uint64_t root_seed_;
  std::size_t runs_;
  std::size_t threads_;
  std::vector<std::pair<std::string, double>> extra_;
  std::vector<core::FigureTable> tables_;
  obs::MetricsRegistry metrics_;
};

/// Appends delivery-latency percentiles (p50/p99/max, in virtual seconds
/// and in holding periods) to a table caption — the shared surfacing of
/// the e2e/fleet latency histograms in BENCH artifacts.
inline std::string latency_caption(const Histogram64& latency_us,
                                   double holding_period) {
  auto seconds = [](std::int64_t us) { return static_cast<double>(us) * 1e-6; };
  const double p50 = seconds(latency_us.percentile(0.50));
  const double p99 = seconds(latency_us.percentile(0.99));
  const double max = seconds(latency_us.max());
  std::string out = "latency_p50_s=" + std::to_string(p50) +
                    ", latency_p99_s=" + std::to_string(p99) +
                    ", latency_max_s=" + std::to_string(max);
  if (holding_period > 0.0) {
    out += ", latency_p50_periods=" + std::to_string(p50 / holding_period) +
           ", latency_p99_periods=" + std::to_string(p99 / holding_period) +
           ", latency_max_periods=" + std::to_string(max / holding_period);
  }
  return out;
}

}  // namespace emergence::bench
