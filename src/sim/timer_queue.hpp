// The one timer queue behind both Clock drivers (clock.hpp): the simulator's
// virtual-time loop and the daemon's wall clock store and order their events
// here, so both keep the same contract — (at, seq) order with FIFO ties,
// past deadlines clamped to now, negative delays rejected, and cancels of
// fired or unknown ids as no-ops.
//
// Layout:
//   * Callables live in a slot arena. They are moved in on push and moved
//     out on pop, never copied; a slot returns to a LIFO free list when its
//     item leaves the queue.
//   * A 4-ary min-heap orders compact (at, seq, slot) items.
//   * FIFO lanes hold timers re-armed at one fixed delay. Such a timer lands
//     at now + d and now never decreases, so a lane is sorted by
//     construction (libevent's "common timeouts"). A lane push whose
//     deadline is not below the lane's tail joins the lane; any other push
//     goes to the heap. The next event is the least (at, seq) among the
//     heap top and the lane heads: exactly the order one heap would give.
//   * An EventId is the slot index (low 32 bits) tagged with the slot's
//     generation (high 32 bits, never 0), so ids are opaque, never 0, and a
//     stale id cannot cancel the slot's next occupant. A cancel leaves its
//     item in place as a tombstone, dropped when it reaches a head.
//
// Single-threaded, like both drivers.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "sim/clock.hpp"

namespace emergence::sim {

class TimerQueue {
 public:
  using Action = std::function<void()>;
  /// A FIFO lane for timers re-armed at one fixed delay (see add_lane()).
  enum class Lane : std::uint32_t {};

  /// The earliest event, moved out of the queue by pop().
  struct Fired {
    Time at;
    Action action;
  };

  /// `now + delay`; throws PreconditionError on a negative or NaN delay (a
  /// negative duration is a caller bug, not rounding).
  static Time deadline_in(Time now, Time delay);

  /// Opens a lane. Pushes to it keep the (at, seq) order whatever their
  /// delay; the lane only pays off when they arrive in deadline order.
  Lane add_lane();

  /// Queues `action` at `at`, clamped up to `now` (an event never
  /// time-travels; FIFO orders it after everything pending at now).
  EventId push(Time at, Time now, Action action);
  /// push() onto `lane`: joins it when `at` (after the clamp) is not below
  /// the lane's tail, else goes to the heap.
  EventId push(Lane lane, Time at, Time now, Action action);

  /// Cancels a pending event; fired, cancelled and unknown ids are no-ops.
  void cancel(EventId id);

  /// Deadline of the earliest live event, or nullopt when none is pending.
  /// Drops tombstones that reached a head (hence non-const).
  std::optional<Time> next_time();
  /// Removes the earliest live event. Precondition: next_time() has a value.
  Fired pop();

  /// Events pushed but neither fired nor cancelled.
  std::size_t pending() const { return live_; }
  std::uint64_t scheduled() const { return next_seq_; }
  std::uint64_t executed() const { return executed_; }
  /// Effective cancels (of then-pending events).
  std::uint64_t cancelled() const { return cancelled_; }
  /// Pops served by a lane head instead of the heap top.
  std::uint64_t lane_fires() const { return lane_fires_; }
  /// High-water mark of heap plus lanes, tombstones included.
  std::size_t max_depth() const { return max_depth_; }
  /// High-water mark of the heap alone, tombstones included.
  std::size_t max_heap_depth() const { return max_heap_depth_; }

 private:
  struct Item {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    Action action;
    std::uint32_t generation = 1;
    bool pending = false;
  };
  /// Sources head() picks from: the heap, or lane 0..lanes_.size()-1.
  static constexpr int kHeap = -1;
  static constexpr int kEmpty = -2;

  static bool earlier(const Item& a, const Item& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }
  /// Moves `action` into a free slot and stamps the item; shared by both
  /// push() forms.
  Item admit(Time at, Time now, Action&& action);
  EventId id_of(std::uint32_t slot) const;
  void release(std::uint32_t slot);
  void heap_push(const Item& item);
  void heap_pop();
  /// Drops tombstones at every head, then picks the source of the least
  /// live item (kHeap, a lane index, or kEmpty).
  int head();
  const Item& item_at(int source) const;

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<Item> heap_;
  std::vector<std::deque<Item>> lanes_;
  std::size_t items_ = 0;  ///< heap plus lanes, tombstones included
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t lane_fires_ = 0;
  std::size_t max_depth_ = 0;
  std::size_t max_heap_depth_ = 0;
};

}  // namespace emergence::sim
