// Conservative-window parallel execution of ONE world: the PDES layer every
// session fleet world runs on.
//
// Model (docs/architecture.md, "Parallel execution model"): the world's
// shared state — DHT ring, node storage, dispatcher tables, churn,
// arrivals, reaps — lives on the GLOBAL simulator; the embarrassingly
// session-local event traffic (package deliveries, assembly, forwards,
// transport retransmits, adversary probes) is partitioned across D domain
// queues by session affinity. Execution alternates:
//
//   round:  W      = max(now, earliest pending event anywhere)
//           W_end  = W + lookahead            (half-open window [W, W_end))
//   1. BARRIER (serial, driver thread): global.run_before(W_end) — every
//      shared-state mutation commits here, in (timestamp, sequence) order,
//      while all domain queues are quiescent. Setup events redirect their
//      session's future events into its domain queue through an
//      ExecutionContext.
//   2. WINDOW (parallel): every domain runs run_before(W_end) on its own
//      queue. Window events see a FROZEN world (reads only), draw from
//      per-session streams, and accumulate into per-domain stats.
//
// The lookahead is derived from the transport's minimum single-attempt
// latency: it is the soonest a message sent at the barrier can become a
// domain event, and windows this short keep the barrier-eager global
// ordering skew (a global event at t in [W, W_end) commits before window
// events with timestamps < t run) below one message latency — far inside
// the protocol's reap-grace separation, so a reap can never share a window
// with its session's pending events. A transport with no latency floor
// admits no window: ScenarioSpec::validate rejects it, and the constructor
// rejects lookahead <= 0.
//
// Determinism: the window partition depends only on the merged set of
// pending event timestamps (invariant under partitioning), every window
// event's behavior depends only on its own session's state + stream + the
// frozen world, and all cross-domain aggregates merge commutatively — so
// results are bit-identical for ANY domain count and ANY worker count,
// which is what the 1/2/4/8-domain fingerprint gates pin.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"

namespace emergence::sim {

/// Window-barrier driver over one global Simulator plus D domain queues.
class DomainExecutor {
 public:
  /// `lookahead` must be > 0 (virtual seconds); `threads` = 0 sizes the
  /// worker pool to min(domains, hardware_concurrency). Workers are only
  /// spawned when both domains and threads exceed 1 — a serial window pass
  /// is bit-identical by construction, so small hosts lose nothing but
  /// wall-clock.
  DomainExecutor(Simulator& global, std::size_t domains, double lookahead,
                 std::size_t threads = 0);
  ~DomainExecutor();

  DomainExecutor(const DomainExecutor&) = delete;
  DomainExecutor& operator=(const DomainExecutor&) = delete;

  Simulator& global() { return global_; }
  Simulator& domain(std::size_t index) { return domains_[index]; }
  std::size_t domain_count() const { return domains_.size(); }
  double lookahead() const { return lookahead_; }
  std::size_t worker_count() const { return workers_.size(); }

  /// One conservative round (barrier + parallel window). Returns false when
  /// no event is pending anywhere (nothing ran).
  bool run_round();

  /// Rounds until `stop()` returns true (checked after every round) or
  /// every queue drains. Returns true when stopped by the predicate, false
  /// when drained first.
  bool run(const std::function<bool()>& stop);

  std::uint64_t rounds() const { return rounds_; }
  /// Window events executed across all domains (the global simulator keeps
  /// its own executed_events()).
  std::uint64_t domain_events_executed() const;
  std::vector<std::uint64_t> events_per_domain() const;

 private:
  void run_window(Time end);
  void worker_loop(std::size_t worker_index);

  Simulator& global_;
  double lookahead_;
  std::deque<Simulator> domains_;  ///< stable addresses for contexts
  std::uint64_t rounds_ = 0;

  // -- persistent worker pool (generation-counted round barrier) --------------
  struct PoolState;
  std::unique_ptr<PoolState> pool_;
  std::vector<std::thread> workers_;
};

}  // namespace emergence::sim
