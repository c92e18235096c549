// perfbench: sample distributions, counter deltas and run context.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "json.hpp"

namespace perfbench {

/// A set of timing samples. Quantiles use linear interpolation between
/// order statistics (Python's statistics.quantiles "inclusive" rule).
class Dist {
 public:
  void add(double v) { v_.push_back(v); }
  [[nodiscard]] std::size_t count() const { return v_.size(); }
  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const;
  /// The highest of p90 / p99 / p99.9 that has at least ten samples
  /// beyond it (0 when even p90 has fewer).
  [[nodiscard]] double top_supported_percentile() const;
  /// {"n", "p50", "pXX" for the top supported percentile, "max"} in
  /// `unit`, values scaled by `scale`.
  [[nodiscard]] Json summary(const std::string& unit,
                             double scale = 1.0) const;

 private:
  std::vector<double> v_;
};

/// Global counter values at one instant; `delta` gives the change
/// since then (counters are monotone within a run).
class CounterMark {
 public:
  CounterMark();
  [[nodiscard]] std::uint64_t delta(const std::string& name) const;

 private:
  std::map<std::string, std::uint64_t> at_;
};

/// ratio with its base: {"value", "num", "den"}; value 0 when den is 0.
Json ratio_json(double num, double den);
[[nodiscard]] inline double safe_ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Samples this process's resident set (MiB) every 20 ms on its own
/// thread until stop(). The daemon-shaped workloads hold one across
/// their measured phases and report the median as rss_mb: the steady
/// footprint, without set-up, warm-up or verification.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  RssSampler(RssSampler&&) = delete;
  RssSampler& operator=(RssSampler&&) = delete;

  /// Stop sampling (idempotent) and return the samples.
  Dist stop();

 private:
  std::atomic<bool> stop_{false};
  Dist samples_;  // written only by thread_ until it is joined
  std::thread thread_;
};

/// CPU time (user + system) this process, or the calling thread, has
/// run so far, in seconds. The kernel (PARAVIRT_TIME_ACCOUNTING) leaves
/// out the time the hypervisor ran someone else on our CPUs, so unlike
/// wall time this figure does not grow on a busy shared host.
double process_cpu_s();
double thread_cpu_s();

/// The host's CPU time so far, all CPUs (/proc/stat), in jiffies.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  static CpuTimes now();
};

/// Steal time between two instants, with its share of all CPU time: a
/// run with steal time was measured on a busy host.
Json steal_json(const CpuTimes& start, const CpuTimes& end);

/// nproc, CPU model, build type, SIMD level, ChunkCache budget, seed:
/// recorded in every result.
Json run_context(std::uint64_t seed);

}  // namespace perfbench
