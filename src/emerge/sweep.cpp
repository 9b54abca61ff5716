#include "emerge/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "emerge/resilience.hpp"

namespace emergence::core {
namespace {

StatEnvironment make_environment(const EvalPoint& point) {
  StatEnvironment env;
  env.population = point.population;
  env.malicious_count = static_cast<std::size_t>(
      std::floor(point.p * static_cast<double>(point.population)));
  env.churn = point.churn;
  return env;
}

StatRunOutcome dispatch_run(SchemeKind kind, const PathShape& shape,
                            const std::optional<SharePlan>& share_plan,
                            const StatEnvironment& env, Rng& rng) {
  switch (kind) {
    case SchemeKind::kCentralized:
      return run_centralized_stat(env, rng);
    case SchemeKind::kDisjoint:
    case SchemeKind::kJoint:
      return run_multipath_stat(kind, shape, env, rng);
    case SchemeKind::kShare:
      return run_share_stat(*share_plan, env, rng);
  }
  return StatRunOutcome{};  // unreachable
}

std::size_t resolve_threads(std::size_t requested) {
  if (requested == 0) requested = std::thread::hardware_concurrency();
  if (requested == 0) requested = 1;
  return std::min<std::size_t>(requested, 256);
}

}  // namespace

void RunTally::add(const StatRunOutcome& outcome) {
  release.add(outcome.release_success);
  drop.add(outcome.drop_success);
  if (outcome.compromised_suffix >= suffix_histogram.size()) {
    suffix_histogram.resize(outcome.compromised_suffix + 1, 0);
  }
  ++suffix_histogram[outcome.compromised_suffix];
}

void RunTally::merge(const RunTally& other) {
  release.merge(other.release);
  drop.merge(other.drop);
  if (other.suffix_histogram.size() > suffix_histogram.size()) {
    suffix_histogram.resize(other.suffix_histogram.size(), 0);
  }
  for (std::size_t s = 0; s < other.suffix_histogram.size(); ++s) {
    suffix_histogram[s] += other.suffix_histogram[s];
  }
}

std::uint64_t RunTally::suffix_sum() const {
  std::uint64_t sum = 0;
  for (std::size_t s = 0; s < suffix_histogram.size(); ++s) {
    sum += suffix_histogram[s] * static_cast<std::uint64_t>(s);
  }
  return sum;
}

double RunTally::mean_suffix() const {
  if (runs() == 0) return 0.0;
  return static_cast<double>(suffix_sum()) / static_cast<double>(runs());
}

std::uint64_t RunTally::suffix_at_least(std::size_t x) const {
  std::uint64_t count = 0;
  for (std::size_t s = x; s < suffix_histogram.size(); ++s) {
    count += suffix_histogram[s];
  }
  return count;
}

/// Fixed pool of worker threads. Workers sleep until run() publishes a task,
/// execute it to completion (the task loops over an external shard counter),
/// and report back; run() also executes the task on the calling thread, so a
/// runner with T threads uses T-1 pool workers.
class SweepRunner::Pool {
 public:
  explicit Pool(std::size_t worker_count) {
    workers_.reserve(worker_count);
    for (std::size_t i = 0; i < worker_count; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }

  /// Executes `task` on every pool worker and on the calling thread;
  /// returns once all of them have finished it.
  void run(const std::function<void()>& task) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      task_ = &task;
      ++generation_;
      busy_ = workers_.size();
    }
    work_cv_.notify_all();
    task();
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return busy_ == 0; });
    task_ = nullptr;
  }

 private:
  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void()>* task = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        task = task_;
      }
      (*task)();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (--busy_ == 0) done_cv_.notify_all();
      }
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void()>* task_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t busy_ = 0;
  bool stop_ = false;
};

SweepRunner::SweepRunner(SweepOptions options)
    : options_(options), threads_(resolve_threads(options.threads)) {
  if (threads_ > 1) pool_ = std::make_unique<Pool>(threads_ - 1);
}

SweepRunner::~SweepRunner() = default;

SweepRunner& SweepRunner::shared() {
  static SweepRunner runner{SweepOptions{}};
  return runner;
}

void SweepRunner::run_shards(
    std::size_t shard_count,
    const std::function<void(std::size_t shard)>& shard_fn) {
  std::lock_guard<std::mutex> lock(evaluate_mutex_);

  std::atomic<std::size_t> next_shard{0};
  // A shard job can throw (e.g. PreconditionError on a degenerate shape or
  // an exhausted sampler). The task itself must never leak the exception —
  // out of a worker it would std::terminate, out of the calling thread it
  // would unwind this frame while workers still use it — so the first one
  // is captured, the remaining shards are abandoned, and it rethrows below
  // after every participant has stopped.
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto work = [&] {
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t s = next_shard.fetch_add(1, std::memory_order_relaxed);
      if (s >= shard_count) return;
      try {
        shard_fn(s);
      } catch (...) {
        const std::lock_guard<std::mutex> error_lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  if (pool_ && shard_count > 1) {
    pool_->run(work);
  } else {
    work();
  }
  if (error) std::rethrow_exception(error);
}

RunTally SweepRunner::run_tallies(SchemeKind kind, const PathShape& shape,
                                  const std::optional<SharePlan>& share_plan,
                                  const EvalPoint& point) {
  require((kind == SchemeKind::kShare) == share_plan.has_value(),
          "SweepRunner::run_tallies: share_plan iff share scheme");

  const StatEnvironment env = make_environment(point);
  const Rng master(point.seed);
  const std::size_t shard_size = std::max<std::size_t>(1, options_.shard_size);
  const std::size_t shard_count = (point.runs + shard_size - 1) / shard_size;

  // The decomposition into shards depends on (runs, shard_size) only; the
  // thread count decides which worker claims which shard, never the shard
  // boundaries or the per-run streams.
  std::vector<RunTally> tallies(shard_count);
  run_shards(shard_count, [&](std::size_t s) {
    RunTally tally;
    const std::size_t begin = s * shard_size;
    const std::size_t end = std::min(point.runs, begin + shard_size);
    for (std::size_t run = begin; run < end; ++run) {
      Rng rng = master.fork(run);
      tally.add(dispatch_run(kind, shape, share_plan, env, rng));
    }
    tallies[s] = tally;
  });

  // Merge rule: ascending shard index. With today's all-integer tallies any
  // order is exact; the fixed order keeps determinism if a floating-point
  // accumulator joins the tally later.
  RunTally total;
  for (const RunTally& tally : tallies) total.merge(tally);
  return total;
}

namespace {

void fill_monte_carlo(EvalResult& result, const RunTally& tally) {
  result.monte_carlo.release_ahead = 1.0 - tally.release.rate();
  result.monte_carlo.drop = 1.0 - tally.drop.rate();
  result.release_stderr = tally.release.stderr_rate();
  result.drop_stderr = tally.drop.stderr_rate();
  result.mean_compromised_suffix = tally.mean_suffix();
}

}  // namespace

EvalResult SweepRunner::evaluate_point(SchemeKind kind,
                                       const EvalPoint& point) {
  require(point.p >= 0.0 && point.p <= 1.0, "evaluate_point: p out of range");
  EvalResult result;
  result.kind = kind;

  std::optional<SharePlan> share_plan;
  if (kind == SchemeKind::kShare) {
    share_plan =
        plan_share(point.p, point.planner, point.churn, point.alg1_mode);
    result.shape = share_plan->base.shape;
    result.alg1 = share_plan->alg1;
    result.analytic = share_plan->alg1.resilience;
    // Columns 1..l-1 carry n holders; the terminal column only the k slots.
    result.nodes_used =
        share_plan->alg1.n * (result.shape.l - 1) + result.shape.k;
  } else {
    // The sender plans with the no-churn formulas (the paper evaluates churn
    // against parameters chosen for the attack model; see docs/design-notes.md §7).
    const Plan plan = plan_scheme(kind, point.p, point.planner);
    result.shape = plan.shape;
    result.nodes_used = plan.nodes_used;
    result.analytic = point.churn.enabled
                          ? analytic_churn_resilience(kind, point.p,
                                                      plan.shape, point.churn)
                          : plan.resilience;
  }

  fill_monte_carlo(result,
                   run_tallies(kind, result.shape, share_plan, point));
  return result;
}

EvalResult SweepRunner::evaluate_fixed_shape(SchemeKind kind,
                                             const PathShape& shape,
                                             const EvalPoint& point) {
  EvalResult result;
  result.kind = kind;
  result.shape = shape;
  result.nodes_used = shape.holder_count();

  std::optional<SharePlan> share_plan;
  if (kind == SchemeKind::kShare) {
    SharePlan plan;
    plan.base.kind = SchemeKind::kJoint;
    plan.base.shape = shape;
    Alg1Inputs inputs;
    inputs.shape = shape;
    inputs.node_budget = point.planner.node_budget;
    inputs.emerging_time =
        point.churn.enabled ? point.churn.emerging_time : 1.0;
    inputs.mean_lifetime =
        point.churn.enabled ? point.churn.mean_lifetime : 1e9;
    inputs.p = point.p;
    inputs.mode = point.alg1_mode;
    plan.alg1 = run_algorithm1(inputs);
    result.alg1 = plan.alg1;
    result.analytic = plan.alg1.resilience;
    result.nodes_used = plan.alg1.n * (shape.l - 1) + shape.k;
    share_plan = plan;
  } else if (kind == SchemeKind::kCentralized) {
    result.analytic = point.churn.enabled
                          ? centralized_churn_resilience(point.p, point.churn)
                          : analytic_resilience(kind, point.p, shape);
  } else {
    result.analytic =
        point.churn.enabled
            ? analytic_churn_resilience(kind, point.p, shape, point.churn)
            : analytic_resilience(kind, point.p, shape);
  }

  fill_monte_carlo(result, run_tallies(kind, shape, share_plan, point));
  return result;
}

}  // namespace emergence::core
