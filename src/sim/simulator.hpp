// Discrete-event simulator driving the DHT and the self-emerging protocol.
//
// Virtual time is a double in seconds. Events scheduled for the same instant
// execute in scheduling order (a monotonically increasing sequence number
// breaks ties), which makes every run deterministic for a fixed seed. The
// events themselves live in a sim::TimerQueue (timer_queue.hpp), the same
// queue the daemon's WallClock runs on; Simulator adds virtual time, the
// run loops and the ExecutionContext redirect.
//
// Window semantics (pinned; the domain executor depends on them):
//   - run_until(deadline) runs events with timestamp <= deadline — the
//     inclusive primitive that tests and examples drive.
//   - run_before(end) runs events with timestamp strictly < end: windows are
//     half-open [start, end), so an event landing exactly on a barrier
//     belongs to the NEXT window, never to two windows at once.
//   - schedule_at clamps `at` below now deterministically to now (an event
//     can never time-travel; protocol.cpp's max(now, ...) forwards and the
//     transport retry ladder rely on the clamp, regression-tested in
//     tests/test_sim.cpp).
//
// Thread ownership: a Simulator is single-threaded by construction. Debug
// builds bind the instance to the first thread that uses it and assert on
// every mutating call; the domain executor rebinds explicitly at window
// barriers when queues hand over between the driver and its workers.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <thread>

#include "sim/clock.hpp"
#include "sim/timer_queue.hpp"

namespace emergence::sim {

/// Deterministic discrete-event loop: the virtual-time driver of the Clock
/// seam (clock.hpp). `final` so direct calls through Simulator& devirtualize
/// on the event-loop hot paths.
class Simulator final : public Clock {
 public:
  /// Schedules `action` to run at absolute time `at`. A time in the past is
  /// clamped to now (deterministic, never reordered before already-pending
  /// same-time events thanks to the FIFO tie-break). Returns an id usable
  /// with cancel().
  ///
  /// When an ExecutionContext is active on this simulator (domain-sharded
  /// execution; see sim/execution_context.hpp), the event is redirected to
  /// the context's domain queue instead and carries the context with it.
  EventId schedule_at(Time at, std::function<void()> action) override;

  /// Schedules `action` to run `delay` seconds from now. Throws
  /// PreconditionError on a negative delay.
  EventId schedule_in(Time delay, std::function<void()> action) override;

  /// Lanes for timers re-armed at one fixed delay (TimerQueue::Lane): a
  /// lane keeps the (time, seq) order of schedule_in() and saves the heap
  /// whenever its timers arrive in deadline order.
  using Lane = TimerQueue::Lane;
  Lane add_lane() { return queue_.add_lane(); }
  /// schedule_in() through `lane`. Redirected like schedule_at() under an
  /// active ExecutionContext (domain queues have no lanes).
  EventId schedule_in_lane(Lane lane, Time delay,
                           std::function<void()> action);

  /// Cancels a pending event. Cancelling an already-fired or unknown event is
  /// a no-op.
  void cancel(EventId id) override;

  /// Runs events until the queue empties.
  void run();

  /// Runs events with timestamp <= deadline, then sets now to the deadline.
  void run_until(Time deadline);

  /// Runs events with timestamp strictly < end, then sets now to end: the
  /// half-open [now, end) window primitive of the domain executor. Events
  /// scheduled exactly at `end` stay queued for the next window.
  void run_before(Time end);

  /// Executes at most `max_events` pending events; returns how many ran.
  std::size_t step(std::size_t max_events);

  /// Timestamp of the earliest live pending event, or nullopt when none.
  /// Drops the cancelled tombstones that reached the queue heads first (an
  /// explicit queue mutation, hence non-const; run()/run_until()/
  /// run_before() purge the same way), so, like them, it must never run
  /// while another thread touches the queue (debug builds assert thread
  /// ownership). The domain executor sizes its windows off it to skip
  /// idle gaps instead of spinning.
  std::optional<Time> next_event_time();

  /// Current virtual time. Under an active ExecutionContext this is the
  /// context's clock (the executing domain event's logical time).
  Time now() const override;
  /// This instance's own clock, ignoring any execution-context redirection
  /// (the executor and the context itself read this).
  Time raw_now() const { return now_; }
  std::size_t pending() const { return queue_.pending(); }
  std::uint64_t executed_events() const { return queue_.executed(); }

  // -- cheap instrumentation (counters the queue keeps anyway; the perf
  // suite and tests/test_perf_scale.cpp read them) ---------------------------
  /// Total events ever scheduled.
  std::uint64_t scheduled_events() const { return queue_.scheduled(); }
  /// Total effective cancellations (of still-pending events).
  std::uint64_t cancelled_events() const { return queue_.cancelled(); }
  /// High-water mark of the event queue, heap plus lanes (includes
  /// tombstones).
  std::size_t max_queue_depth() const { return queue_.max_depth(); }
  /// Events served by a lane head instead of the heap.
  std::uint64_t lane_fires() const { return queue_.lane_fires(); }
  /// High-water mark of the heap alone (includes tombstones).
  std::size_t max_heap_depth() const { return queue_.max_heap_depth(); }

  /// Debug builds bind the queue to the first thread that mutates it and
  /// assert on every mutating call from another thread. rebind_owner()
  /// transfers ownership to the calling thread — the domain executor calls
  /// it at every barrier/window handoff. No-op in release builds.
  void rebind_owner();

 private:
  /// Fires the earliest live event. Precondition: next_event_time() (or
  /// queue_.next_time()) just returned a value.
  void fire_head();
  /// Debug-only: binds on first use, asserts the caller owns the queue.
  void assert_owner() const;

  Time now_ = 0.0;
  TimerQueue queue_;
#ifndef NDEBUG
  mutable std::thread::id owner_{};  ///< default-constructed = unbound
#endif
};

}  // namespace emergence::sim
