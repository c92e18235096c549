// DASSA common: latency histograms and the unified metrics registry.
//
// Counters (counters.hpp) answer "how many"; the paper's figures also
// need "how long, and how skewed". LatencyHistogram buckets durations
// by power of two nanoseconds -- recording is two relaxed atomic adds,
// cheap enough for span-exit paths -- and reports interpolated
// p50/p95/p99. MetricsRegistry unifies both worlds: every completed
// trace span feeds the histogram of its name, and write_report() emits
// counters and quantiles as one flat document (the das_analyze
// "metrics:" block).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "dassa/common/sync.hpp"

namespace dassa {

/// Non-atomic copy of a histogram for reporting. `count` is the bucket
/// sum: every producer (LatencyHistogram::snapshot, merge, diff, the
/// Snapshot decoder) derives it from `buckets`, and no format stores it.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::array<std::uint64_t, 64> buckets{};  ///< bucket i: [2^i, 2^(i+1)) ns

  /// Interpolated quantile in nanoseconds, q in [0, 1]. The estimate
  /// interpolates linearly *within* the landing bucket (never just its
  /// upper bound). Returns 0 for an empty histogram.
  [[nodiscard]] double quantile_ns(double q) const;

  /// Bucket-wise sum with `other`. Histograms share the same 64 pow2
  /// bins by construction, so snapshots from different ranks merge
  /// exactly -- this is what the cross-rank telemetry reduction uses.
  void merge(const HistogramSnapshot& other);

  /// Bucket-exact difference against an `older` snapshot of the same
  /// histogram: what was recorded between the two samples. Exact by
  /// construction -- `older.diff-result` merged back onto `older`
  /// reproduces *this bucket for bucket (das_top's interval view is
  /// built on this). Guarded against counter resets: if `older` is not
  /// bucket-wise contained in *this (the process restarted or the
  /// registry was reset between samples), the whole newer snapshot is
  /// returned -- everything in it was recorded since the reset -- so a
  /// delta can never go negative.
  [[nodiscard]] HistogramSnapshot diff(const HistogramSnapshot& older) const;

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

/// Thread-safe power-of-two latency histogram. All methods may be
/// called concurrently; record() is two relaxed atomic adds. There is
/// no separate count: a snapshot's count is its bucket sum, so no
/// snapshot -- however it races record_ns() -- can disagree with itself.
class LatencyHistogram {
 public:
  void record_ns(std::uint64_t ns) {
    buckets_[bucket_index(ns)].fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

  /// Samples recorded so far (the bucket sum).
  [[nodiscard]] std::uint64_t count() const { return snapshot().count; }

  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// Add every bucket of `other` into this histogram (atomic; safe
  /// against concurrent record_ns).
  void merge(const HistogramSnapshot& other);

  void reset();

  /// Bucket index of a duration: floor(log2(ns)), clamped to [0, 63].
  [[nodiscard]] static std::size_t bucket_index(std::uint64_t ns) {
    if (ns <= 1) return 0;
    return static_cast<std::size_t>(63 - __builtin_clzll(ns));
  }

 private:
  std::array<std::atomic<std::uint64_t>, 64> buckets_{};
  std::atomic<std::uint64_t> total_ns_{0};
};

/// Named histograms, created on first use, living for the registry's
/// lifetime. Lookups of existing histograms take a shared lock and do
/// not allocate (transparent comparator), so the span-exit path stays
/// allocation-free in steady state.
class MetricsRegistry {
 public:
  [[nodiscard]] LatencyHistogram& histogram(std::string_view name);

  [[nodiscard]] std::map<std::string, HistogramSnapshot> snapshot() const;

  /// Merge a snapshot map (e.g. another rank's histograms) into this
  /// registry, creating histograms as needed.
  void merge(const std::map<std::string, HistogramSnapshot>& other);

  /// Zero every histogram (names are retained). Pipelines call this
  /// between stages to attribute latencies per stage.
  void reset();

  /// Unified flat report: every global counter, then every histogram
  /// with count / total ms / p50 / p95 / p99.
  void write_report(std::ostream& os) const;

 private:
  mutable SharedMutex mu_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      hists_ DASSA_GUARDED_BY(mu_);
};

/// Process-global registry; trace spans feed it by span name.
[[nodiscard]] MetricsRegistry& global_metrics();

}  // namespace dassa
