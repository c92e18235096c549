#include "dassa/common/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"

namespace dassa {

double HistogramSnapshot::quantile_ns(double q) const {
  DASSA_CHECK(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  if (count == 0) return 0.0;
  const double target = q * static_cast<double>(count);
  double seen = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= target) {
      // Interpolate linearly inside the power-of-two bucket
      // [2^i, 2^(i+1)): bucket 0 also holds 0 ns and 1 ns durations.
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
      const double hi = std::ldexp(1.0, static_cast<int>(i) + 1);
      const double frac =
          in_bucket > 0.0 ? (target - seen) / in_bucket : 0.0;
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
    }
    seen += in_bucket;
  }
  return std::ldexp(1.0, 63);  // everything landed in the top bucket
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  DASSA_CHECK(count <= std::numeric_limits<std::uint64_t>::max() - other.count,
              "histogram merge would overflow the sample count");
  count += other.count;
  total_ns += other.total_ns;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
}

namespace {

/// Reset-guard containment test: a live histogram only ever grows, so
/// an "older" snapshot with more in any field than the newer one means
/// the process (or registry) was reset between the two samples.
bool check_reset_between(const HistogramSnapshot& newer,
                         const HistogramSnapshot& older) {
  if (older.count > newer.count || older.total_ns > newer.total_ns) {
    return true;
  }
  for (std::size_t i = 0; i < newer.buckets.size(); ++i) {
    if (older.buckets[i] > newer.buckets[i]) return true;
  }
  return false;
}

}  // namespace

HistogramSnapshot HistogramSnapshot::diff(
    const HistogramSnapshot& older) const {
  // After a reset the newer snapshot IS the delta: everything in it
  // was recorded since, and a delta must never go negative.
  if (check_reset_between(*this, older)) return *this;
  HistogramSnapshot d;
  d.count = count - older.count;
  d.total_ns = total_ns - older.total_ns;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    d.buckets[i] = buckets[i] - older.buckets[i];
  }
  return d;
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot s;
  s.total_ns = total_ns_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    s.count += s.buckets[i];
  }
  return s;
}

void LatencyHistogram::merge(const HistogramSnapshot& other) {
  DASSA_CHECK(
      count() <= std::numeric_limits<std::uint64_t>::max() - other.count,
      "histogram merge would overflow the sample count");
  for (std::size_t i = 0; i < other.buckets.size(); ++i) {
    if (other.buckets[i] != 0) {
      buckets_[i].fetch_add(other.buckets[i], std::memory_order_relaxed);
    }
  }
  total_ns_.fetch_add(other.total_ns, std::memory_order_relaxed);
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  total_ns_.store(0, std::memory_order_relaxed);
}

LatencyHistogram& MetricsRegistry::histogram(std::string_view name) {
  DASSA_CHECK(!name.empty(), "histogram name must be non-empty");
  {
    ReaderLock lock(mu_);
    const auto it = hists_.find(name);
    if (it != hists_.end()) return *it->second;
  }
  WriterLock lock(mu_);
  auto& slot = hists_[std::string(name)];
  if (!slot) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

std::map<std::string, HistogramSnapshot> MetricsRegistry::snapshot() const {
  ReaderLock lock(mu_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, hist] : hists_) {
    out.emplace(name, hist->snapshot());
  }
  return out;
}

void MetricsRegistry::merge(
    const std::map<std::string, HistogramSnapshot>& other) {
  for (const auto& [name, snap] : other) {
    DASSA_CHECK(!name.empty(), "merged histogram name must be non-empty");
    histogram(name).merge(snap);
  }
}

void MetricsRegistry::reset() {
  WriterLock lock(mu_);
  for (auto& [_, hist] : hists_) hist->reset();
}

void MetricsRegistry::write_report(std::ostream& os) const {
  DASSA_CHECK(os.good(), "metrics report stream is not writable");
  for (const auto& [name, value] : global_counters().snapshot()) {
    os << "  " << name << " = " << value << "\n";
  }
  for (const auto& [name, h] : snapshot()) {
    if (h.count == 0) continue;
    char line[160];
    std::snprintf(line, sizeof line,
                  "  %s: count=%llu total_ms=%.3f p50_us=%.1f p95_us=%.1f "
                  "p99_us=%.1f",
                  name.c_str(), static_cast<unsigned long long>(h.count),
                  static_cast<double>(h.total_ns) / 1e6,
                  h.quantile_ns(0.50) / 1e3, h.quantile_ns(0.95) / 1e3,
                  h.quantile_ns(0.99) / 1e3);
    os << line << "\n";
  }
}

MetricsRegistry& global_metrics() {
  static MetricsRegistry reg;
  return reg;
}

}  // namespace dassa
