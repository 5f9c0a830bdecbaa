// bench.h - Shared vocabulary of the end-to-end matchmaker benchmark:
// run options, the wall clock, the seeded generator, quantiles and the
// result record every workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the benchmark process entered main() (set by main).
double processSeconds();
void markProcessStart();

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Open-loop rate of the pool queries every workload issues.
inline constexpr double kQueriesPerSecond = 40.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// splitmix64: tiny, seedable, and identical on every platform, so one
/// seed always yields the same ads.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed ^ 0x9E3779B97F4A7C15ull) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  bool chance(double p) { return uniform() < p; }
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(next() % v.size())];
  }

 private:
  std::uint64_t state_;
};

/// Linear-interpolated quantile (the same rule as numpy's default).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Splits a timed phase into whole windows of fixed length and keeps, per
/// window, the number of events and the median and 90th percentile of
/// their values. Reporting the median over windows keeps a brief stall of
/// the machine from moving a run's figure, and the memory kept does not
/// grow with the run's length. Events must arrive in time order.
class WindowStats {
 public:
  static constexpr double kWidth = 2.0;  ///< seconds

  explicit WindowStats(double start = 0.0) : start_(start) {}
  void add(double t, double value) {
    if (t < start_) return;
    while (t >= start_ + static_cast<double>(index_ + 1) * kWidth) close();
    current_.push_back(value);
  }
  /// Closes every window that ended by `end`; a partial last window is
  /// kept only if no whole window exists.
  void finish(double end) {
    while (end >= start_ + static_cast<double>(index_ + 1) * kWidth) close();
    if (counts_.empty()) {
      counts_.push_back(static_cast<double>(current_.size()) * kWidth /
                        std::max(1e-9, end - start_));
      closeQuantiles();
    }
  }
  /// Median over windows of events per second.
  double rate() const { return quantile(counts_, 0.5) / kWidth; }
  double p50() const { return quantile(p50s_, 0.5); }
  double p90() const { return quantile(p90s_, 0.5); }
  std::size_t windows() const noexcept { return counts_.size(); }

 private:
  void close() {
    counts_.push_back(static_cast<double>(current_.size()));
    closeQuantiles();
    ++index_;
  }
  void closeQuantiles() {
    if (!current_.empty()) {
      p50s_.push_back(quantile(current_, 0.5));
      p90s_.push_back(quantile(current_, 0.9));
    }
    current_.clear();
  }
  double start_;
  std::size_t index_ = 0;
  std::vector<double> current_;
  std::vector<double> counts_;
  std::vector<double> p50s_;
  std::vector<double> p90s_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `problems` lists every failed correctness
/// check; the run is correct iff it is empty.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  /// End-to-end metrics (printed when tracing is off).
  std::map<std::string, Metric> endToEnd;
  /// Per-layer metrics (printed by the traced run).
  std::map<std::string, Metric> perLayer;
};

/// Peak resident set of this process, MB (getrusage ru_maxrss).
double peakRssMb();

/// Pins the calling thread to each CPU it may run on, in turn, at every
/// next(). On a shared machine one CPU can run slower than the others for
/// tens of seconds; a thread the scheduler leaves on that CPU would give
/// the whole run a slow figure, while a run that visits every CPU gives
/// each of them the same weight. Restores the thread's CPU set when
/// destroyed. Does nothing where the CPU set cannot be read or set.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t index_ = 0;
};

}  // namespace perfbench
