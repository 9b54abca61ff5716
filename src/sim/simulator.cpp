#include "sim/simulator.hpp"

#include <cassert>

#include "common/error.hpp"
#include "sim/execution_context.hpp"

namespace emergence::sim {

void Simulator::assert_owner() const {
#ifndef NDEBUG
  // Binds to the first mutating thread; the executor rebinds explicitly at
  // every barrier/window handoff, so a genuine cross-thread touch of a
  // queue mid-window trips here instead of racing silently.
  if (owner_ == std::thread::id{}) owner_ = std::this_thread::get_id();
  assert(owner_ == std::this_thread::get_id() &&
         "Simulator used from a thread that does not own its queue");
#endif
}

void Simulator::rebind_owner() {
#ifndef NDEBUG
  owner_ = std::this_thread::get_id();
#endif
}

EventId Simulator::schedule_at(Time at, std::function<void()> action) {
  if (ExecutionContext* ctx = ExecutionContext::active_on(this)) {
    return ctx->schedule_at(at, std::move(action));
  }
  assert_owner();
  return queue_.push(at, now_, std::move(action));
}

EventId Simulator::schedule_in(Time delay, std::function<void()> action) {
  // now() (not now_) so a redirected schedule offsets from the context
  // clock — the executing domain event's logical time.
  return schedule_at(TimerQueue::deadline_in(now(), delay),
                     std::move(action));
}

EventId Simulator::schedule_in_lane(Lane lane, Time delay,
                                    std::function<void()> action) {
  if (ExecutionContext* ctx = ExecutionContext::active_on(this)) {
    return ctx->schedule_at(TimerQueue::deadline_in(ctx->now(), delay),
                            std::move(action));
  }
  assert_owner();
  return queue_.push(lane, TimerQueue::deadline_in(now_, delay), now_,
                     std::move(action));
}

Time Simulator::now() const {
  if (const ExecutionContext* ctx = ExecutionContext::active_on(this)) {
    return ctx->now();
  }
  return now_;
}

void Simulator::cancel(EventId id) {
  assert_owner();
  queue_.cancel(id);
}

std::optional<Time> Simulator::next_event_time() {
  assert_owner();
  return queue_.next_time();
}

void Simulator::fire_head() {
  assert_owner();
  TimerQueue::Fired fired = queue_.pop();
  now_ = fired.at;
  fired.action();
}

void Simulator::run() {
  while (queue_.next_time()) fire_head();
}

void Simulator::run_until(Time deadline) {
  require(deadline >= now_, "Simulator::run_until: deadline in the past");
  for (std::optional<Time> at; (at = queue_.next_time()) && *at <= deadline;) {
    fire_head();
  }
  now_ = deadline;
}

void Simulator::run_before(Time end) {
  require(end >= now_, "Simulator::run_before: window end in the past");
  assert_owner();
  // Strictly <: the window owns [now, end), an event exactly at the barrier
  // belongs to the next window. Events the actions schedule inside the
  // window are picked up by the same loop.
  for (std::optional<Time> at; (at = queue_.next_time()) && *at < end;) {
    fire_head();
  }
  now_ = end;
}

std::size_t Simulator::step(std::size_t max_events) {
  std::size_t ran = 0;
  for (; ran < max_events && queue_.next_time(); ++ran) fire_head();
  return ran;
}

}  // namespace emergence::sim
