// Streaming statistics for Monte-Carlo experiment aggregation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

namespace emergence {

/// Accumulates Bernoulli outcomes (success counts) and reports the success
/// frequency; used for resilience probabilities.
class RateStat {
 public:
  void add(bool success);

  /// Folds another accumulator into this one. Integer counters only, so the
  /// merge is exact and order-independent: any sharding of the same trials
  /// reproduces the serial tallies bit-identically.
  void merge(const RateStat& other);

  std::size_t trials() const { return trials_; }
  std::size_t successes() const { return successes_; }
  double rate() const;
  /// Standard error of the estimated rate.
  double stderr_rate() const;

 private:
  std::size_t trials_ = 0;
  std::size_t successes_ = 0;
};

/// Exact histogram over 64-bit integer keys (e.g. latencies quantized to
/// microseconds). Counters only, so merge() is associative and commutative
/// and any sharding of the same samples reproduces the serial histogram
/// bit-identically — the property that lets the sweep/fleet layers carry
/// latency percentiles without breaking thread-count invariance. Bins are
/// sparse (a service scenario sees a handful of distinct delivery offsets),
/// so an ordered map costs O(distinct keys), not O(range).
class Histogram64 {
 public:
  void add(std::int64_t key, std::uint64_t weight = 1);
  void merge(const Histogram64& other);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::int64_t min() const;  ///< smallest key (0 when empty)
  std::int64_t max() const;  ///< largest key (0 when empty)
  /// Nearest-rank percentile: the smallest key whose cumulative count
  /// reaches ceil(q * count). q is clamped to [0, 1]; 0 when empty.
  std::int64_t percentile(double q) const;
  double mean() const;

  const std::map<std::int64_t, std::uint64_t>& bins() const { return bins_; }

 private:
  std::map<std::int64_t, std::uint64_t> bins_;
  std::uint64_t count_ = 0;
};

}  // namespace emergence
