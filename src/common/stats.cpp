#include "common/stats.hpp"

#include <cmath>

namespace emergence {

void RateStat::add(bool success) {
  ++trials_;
  if (success) ++successes_;
}

void RateStat::merge(const RateStat& other) {
  trials_ += other.trials_;
  successes_ += other.successes_;
}

double RateStat::rate() const {
  if (trials_ == 0) return 0.0;
  return static_cast<double>(successes_) / static_cast<double>(trials_);
}

double RateStat::stderr_rate() const {
  if (trials_ == 0) return 0.0;
  const double r = rate();
  return std::sqrt(r * (1.0 - r) / static_cast<double>(trials_));
}

void Histogram64::add(std::int64_t key, std::uint64_t weight) {
  if (weight == 0) return;
  bins_[key] += weight;
  count_ += weight;
}

void Histogram64::merge(const Histogram64& other) {
  for (const auto& [key, weight] : other.bins_) bins_[key] += weight;
  count_ += other.count_;
}

std::int64_t Histogram64::min() const {
  return bins_.empty() ? 0 : bins_.begin()->first;
}

std::int64_t Histogram64::max() const {
  return bins_.empty() ? 0 : bins_.rbegin()->first;
}

std::int64_t Histogram64::percentile(double q) const {
  if (count_ == 0) return 0;
  q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  const double target_real = q * static_cast<double>(count_);
  std::uint64_t target = static_cast<std::uint64_t>(std::ceil(target_real));
  if (target == 0) target = 1;
  if (target > count_) target = count_;
  std::uint64_t cumulative = 0;
  for (const auto& [key, weight] : bins_) {
    cumulative += weight;
    if (cumulative >= target) return key;
  }
  return bins_.rbegin()->first;  // unreachable: counts sum to count_
}

double Histogram64::mean() const {
  if (count_ == 0) return 0.0;
  double sum = 0.0;
  for (const auto& [key, weight] : bins_) {
    sum += static_cast<double>(key) * static_cast<double>(weight);
  }
  return sum / static_cast<double>(count_);
}

}  // namespace emergence
