// Wall-time driver of the Clock seam (clock.hpp): the clock the `emerged`
// node daemon runs on. Its events live in a sim::TimerQueue
// (timer_queue.hpp), the same queue as the Simulator's.
//
// now() is seconds since the Unix epoch (CLOCK_REALTIME), so timestamps are
// comparable across localhost daemon processes — the wire protocol's
// session metadata (start time, release time) is stated on this axis.
// Unlike the simulator, a WallClock never advances time itself: fire_due()
// runs exactly the events whose deadline has passed on the real clock, and
// the daemon's poll loop alternates socket reads with fire_due() using
// seconds_until_next() as the poll timeout. Single-threaded by contract,
// like the Simulator.
//
// Determinism note: none. Real clocks jitter; code that must be testable
// bit-for-bit runs against the Simulator driver instead (the loopback
// service tests do exactly that). See docs/architecture.md, "Service
// deployment".
#pragma once

#include <optional>
#include <utility>

#include "sim/clock.hpp"
#include "sim/timer_queue.hpp"

namespace emergence::sim {

/// The real clock over a TimerQueue: the queue keeps the Clock contract
/// (past deadlines clamp to now, negative delays throw, FIFO ties); this
/// class only reads the real clock.
class WallClock final : public Clock {
 public:
  EventId schedule_at(Time at, std::function<void()> action) override {
    return queue_.push(at, now(), std::move(action));
  }
  EventId schedule_in(Time delay, std::function<void()> action) override {
    const Time t = now();
    return queue_.push(TimerQueue::deadline_in(t, delay), t,
                       std::move(action));
  }
  void cancel(EventId id) override { queue_.cancel(id); }

  /// Seconds since the Unix epoch.
  Time now() const override;

  /// Runs every pending event whose deadline is <= now(), in deadline order
  /// (FIFO among equal deadlines). Events scheduled while firing run too if
  /// already due. Returns how many events ran.
  std::size_t fire_due();

  /// Seconds until the earliest pending deadline, clamped to >= 0; nullopt
  /// when no events are pending. The daemon uses this as its poll timeout.
  std::optional<double> seconds_until_next();

  std::size_t pending() const { return queue_.pending(); }
  std::uint64_t executed_events() const { return queue_.executed(); }
  std::uint64_t cancelled_events() const { return queue_.cancelled(); }

 private:
  TimerQueue queue_;
};

}  // namespace emergence::sim
