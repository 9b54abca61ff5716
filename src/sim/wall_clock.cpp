#include "sim/wall_clock.hpp"

#include <chrono>

namespace emergence::sim {

Time WallClock::now() const {
  const auto epoch = std::chrono::system_clock::now().time_since_epoch();
  return std::chrono::duration<double>(epoch).count();
}

std::size_t WallClock::fire_due() {
  std::size_t ran = 0;
  // The real clock is re-read each iteration so events scheduled by a
  // firing action run immediately when already due.
  for (std::optional<Time> at; (at = queue_.next_time()) && *at <= now();) {
    queue_.pop().action();
    ++ran;
  }
  return ran;
}

std::optional<double> WallClock::seconds_until_next() {
  const std::optional<Time> at = queue_.next_time();
  if (!at) return std::nullopt;
  const double delta = *at - now();
  return delta < 0.0 ? 0.0 : delta;
}

}  // namespace emergence::sim
