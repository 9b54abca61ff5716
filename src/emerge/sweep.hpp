// Parallel deterministic Monte-Carlo sweep engine.
//
// The paper's evaluation averages 1000 independent runs per parameter point
// (Figs. 6-8). SweepRunner shards those runs across a fixed pool of worker
// threads and aggregates per-shard tallies, with two hard guarantees:
//
//  1. Determinism: a point's result is a pure function of the EvalPoint —
//     bit-identical at any thread count, shard size, or scheduling order.
//  2. Serial equivalence: the result equals a flat serial loop over the same
//     runs — the pre-engine monte_carlo.cpp loop structure with one change:
//     run i is now seeded counter-based (fork(i)) instead of by drawing from
//     the master engine sequentially, which is what makes the runs
//     relocatable across threads. The estimates therefore sample the same
//     distributions as the old serial code but are not numerically equal to
//     pre-engine outputs at the same seed.
//
// Both rest on two rules (docs/architecture.md, "Concurrency and
// reproducibility"):
//
//  * Fork-per-run seeding: run i draws from Rng(point.seed).fork(i), a
//    counter-based stream that depends only on (seed, i) — never on which
//    thread runs it or how many runs preceded it.
//  * Exact tallies, fixed merge order: per-run outcomes are booleans and
//    small integers, so shard tallies are integer counters (RateStat plus
//    integer moment sums for the compromised suffix). Integer merges are
//    associative and commutative, so any sharding reproduces the serial
//    tallies exactly; shards are still merged in ascending index order so
//    the rule stays safe if a floating-point accumulator is ever added.
//
// evaluate_point / evaluate_fixed_shape in monte_carlo.hpp are thin wrappers
// over SweepRunner::shared(), so the whole test suite and every bench driver
// go through this engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/stats.hpp"
#include "emerge/monte_carlo.hpp"
#include "emerge/stat_engine.hpp"

namespace emergence::core {

/// Construction-time knobs of a SweepRunner.
struct SweepOptions {
  /// Worker threads for the Monte-Carlo shards. 0 means auto:
  /// std::thread::hardware_concurrency(). Any value is capped at 256. It
  /// never affects results, only wall-clock time.
  std::size_t threads = 0;

  /// Runs per shard. The shard decomposition is a function of the run count
  /// and this value only (never of the thread count). Smaller shards balance
  /// load better; larger shards amortize per-shard setup.
  std::size_t shard_size = 64;
};

/// Exact aggregate of StatRunOutcome over a set of runs. All counters are
/// integers, so merge() is associative and commutative and any sharding of
/// the same runs reproduces the serial tallies bit-identically.
struct RunTally {
  RateStat release;  ///< release-ahead attack successes
  RateStat drop;     ///< drop attack successes
  /// suffix_histogram[s] counts runs whose longest fully-compromised column
  /// suffix had length s (bounded by the path length l, so the vector stays
  /// tiny). The histogram keeps the tally lossless for the suffix metric:
  /// any "restore >= x periods early" statistic derives from it exactly.
  std::vector<std::uint64_t> suffix_histogram;

  void add(const StatRunOutcome& outcome);
  void merge(const RunTally& other);

  std::size_t runs() const { return release.trials(); }
  std::uint64_t suffix_sum() const;
  double mean_suffix() const;
  /// Number of runs with compromised_suffix >= x.
  std::uint64_t suffix_at_least(std::size_t x) const;
};

/// Parallel Monte-Carlo evaluator. Owns a fixed thread pool (created once,
/// reused by every evaluation); safe to share between caller threads — a
/// mutex serializes evaluations on one runner.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  /// The resolved worker count (>= 1; includes the calling thread).
  std::size_t threads() const { return threads_; }

  /// Plans `kind` for the point and evaluates it analytically and by
  /// Monte Carlo. Same contract as core::evaluate_point.
  EvalResult evaluate_point(SchemeKind kind, const EvalPoint& point);

  /// Monte-Carlo evaluation of an explicit geometry. Same contract as
  /// core::evaluate_fixed_shape.
  EvalResult evaluate_fixed_shape(SchemeKind kind, const PathShape& shape,
                                  const EvalPoint& point);

  /// Runs only the Monte-Carlo phase for an already-planned scheme and
  /// returns the exact tallies. `share_plan` must be set iff kind == kShare.
  RunTally run_tallies(SchemeKind kind, const PathShape& shape,
                       const std::optional<SharePlan>& share_plan,
                       const EvalPoint& point);

  /// Generic shard fan-out: executes `shard_fn(shard)` for every index in
  /// [0, shard_count) across the pool workers and the calling thread. The
  /// claim order depends on the thread count but the decomposition must
  /// not: callers give each shard a self-contained, index-seeded job and
  /// merge per-shard results in ascending index order afterwards — the two
  /// rules that make any client of this method bit-identical at any thread
  /// count. The first exception a shard throws abandons the remaining
  /// shards and is rethrown here once every participant has stopped.
  /// Serializes with other evaluations on this runner. Reused by the
  /// workload fleets (session_fleet.hpp) so full-stack protocol sweeps
  /// inherit the same determinism guarantees as the stat-engine sweeps.
  void run_shards(std::size_t shard_count,
                  const std::function<void(std::size_t shard)>& shard_fn);

  /// Process-wide runner with auto-sized thread pool; what the
  /// evaluate_point / evaluate_fixed_shape free functions use.
  static SweepRunner& shared();

 private:
  class Pool;

  SweepOptions options_;
  std::size_t threads_ = 1;
  std::unique_ptr<Pool> pool_;  ///< null when threads_ == 1
  std::mutex evaluate_mutex_;
};

}  // namespace emergence::core
