// Helpers shared by the bench binaries: one-line JSON results, order
// statistics, process resource usage, the batch-median probe timer and the
// CPU speed probe.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <queue>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bench {

inline double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of `values` (q in [0, 1]); 0 when empty.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// CPU and memory of the calling process (all threads).
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double max_rss_mb = 0.0;
  std::uint64_t ctx_switches = 0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
    u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
    return u;
  }
  double cpu_s() const { return user_s + sys_s; }
};

/// Flat JSON object printed as one line: the binaries' only output format.
class Json {
 public:
  Json& num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    fields_.emplace_back(key, buf);
    return *this;
  }
  Json& count(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
    return *this;
  }
  Json& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' ? ' ' : c);
    }
    fields_.emplace_back(key, quoted + "\"");
    return *this;
  }
  Json& list(const std::string& key, const std::vector<double>& values) {
    std::string text = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", values[i]);
      text += buf;
    }
    fields_.emplace_back(key, text + "]");
    return *this;
  }

  void print(std::ostream& os = std::cout) const {
    os << "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      os << (i ? ", " : "") << "\"" << fields_[i].first
         << "\": " << fields_[i].second;
    }
    os << "}" << std::endl;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Per-call cost of `call` in microseconds: the median over `batches`
/// batches of `per_batch` back-to-back calls. The median keeps one
/// descheduled batch from moving the probe.
template <typename Call>
double probe_us(std::size_t batches, std::size_t per_batch, Call&& call) {
  std::vector<double> per_call;
  per_call.reserve(batches);
  call();  // warm caches and lazily built tables
  for (std::size_t b = 0; b < batches; ++b) {
    const double t0 = steady_seconds();
    for (std::size_t i = 0; i < per_batch; ++i) call();
    per_call.push_back((steady_seconds() - t0) * 1e6 /
                       static_cast<double>(per_batch));
  }
  return median(per_call);
}

// -- CPU speed ----------------------------------------------------------------

inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The last `count` CPUs the process may run on (all of them when it may
/// run on fewer).
inline std::vector<int> last_cpus(std::size_t count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.size() > count)
    cpus.erase(cpus.begin(), cpus.end() - static_cast<std::ptrdiff_t>(count));
  return cpus;
}

/// Pins the calling thread, and the threads it starts afterwards, to `cpus`.
inline void pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// The speed probe's fixed work: a priority queue and a hash map larger than
/// a core's L2 share, driven by one pseudo-random key stream, the kind of
/// work a simulated fleet spends its time in. The same work on every call.
inline std::uint64_t speed_kernel() {
  std::priority_queue<std::uint64_t> queue;
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  map.reserve(400000);
  std::mt19937_64 gen(7);
  for (int i = 0; i < 15000; ++i) {
    const std::uint64_t key = gen();
    queue.push(key);
    map[key % 400000] += key;
    if (queue.size() > 5000) queue.pop();
  }
  return map.size() + queue.top();
}

/// How fast the CPUs a measurement runs on are going, sampled while it runs.
///
/// On a VM whose vCPUs share physical cores with other tenants the same
/// work takes up to twice as long from one minute to the next, on one vCPU
/// and not another (README.md, Observations). One sampler thread pinned to
/// each measured CPU runs speed_kernel(), records kReferenceSeconds / its
/// thread CPU time (1 at the reference speed, 0.5 when the CPU runs at half
/// of it) and sleeps kPeriod, over and over. A time multiplied by the mean
/// factor over its interval is the time the work would have taken at the
/// reference speed.
class SpeedProbe {
 public:
  /// speed_kernel()'s CPU time at the reference speed: the fastest samples
  /// on a 4-vCPU Intel Xeon (Emerald Rapids) VM.
  static constexpr double kReferenceSeconds = 2.4e-3;
  static constexpr double kPeriod = 0.06;
  /// The shortest interval factor() averages over.
  static constexpr double kMinWindow = 1.0;

  /// Returns once every sampler has recorded its first sample.
  explicit SpeedProbe(const std::vector<int>& cpus) {
    for (int cpu : cpus) threads_.emplace_back([this, cpu] { sample(cpu); });
    while (sample_count() < threads_.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;
  ~SpeedProbe() { stop(); }

  void stop() {
    stop_ = true;
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  /// Mean factor of the samples taken in [t0, t1] (steady seconds), the
  /// interval first widened to the kMinWindow before t1 so that a short
  /// measurement still averages several samples; the mean of all samples
  /// when that window holds none.
  double factor(double t0, double t1) const {
    t0 = std::min(t0, t1 - kMinWindow);
    std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0, all = 0.0;
    std::size_t n = 0;
    for (const Sample& s : samples_) {
      all += s.factor;
      if (s.at < t0 || s.at > t1) continue;
      sum += s.factor;
      ++n;
    }
    return n ? sum / static_cast<double>(n)
             : all / static_cast<double>(samples_.size());
  }

  std::size_t sample_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_.size();
  }

  /// CPU seconds the samplers have spent in speed_kernel(), to take out of
  /// the process's own CPU time.
  double cpu_seconds() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return cpu_s_;
  }

  std::vector<double> sample_times() const { return column(&Sample::at); }
  std::vector<double> sample_factors() const {
    return column(&Sample::factor);
  }

 private:
  struct Sample {
    double at, factor;
  };

  void sample(int cpu) {
    pin_thread({cpu});
    sink_ += speed_kernel();  // unrecorded: the thread's first page faults
    while (!stop_) {
      const double at = steady_seconds();
      const double c0 = thread_cpu_seconds();
      sink_ += speed_kernel();
      const double used = thread_cpu_seconds() - c0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        samples_.push_back({at, kReferenceSeconds / used});
        cpu_s_ += used;
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(kPeriod));
    }
  }

  std::vector<double> column(double Sample::*field) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    out.reserve(samples_.size());
    for (const Sample& s : samples_) out.push_back(s.*field);
    return out;
  }

  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> sink_{0};
  mutable std::mutex mutex_;
  std::vector<Sample> samples_;
  double cpu_s_ = 0.0;
  std::vector<std::thread> threads_;
};

}  // namespace bench
