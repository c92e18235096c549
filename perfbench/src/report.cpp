#include "report.hpp"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <numeric>
#include <thread>

#include "common.hpp"
#include "dassa/common/counters.hpp"
#include "dassa/common/simd.hpp"
#include "dassa/io/chunk_cache.hpp"

namespace perfbench {

double Dist::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + (s[hi] - s[lo]) * frac;
}

double Dist::max() const {
  return v_.empty() ? 0.0 : *std::max_element(v_.begin(), v_.end());
}

double Dist::sum() const { return std::accumulate(v_.begin(), v_.end(), 0.0); }

double Dist::top_supported_percentile() const {
  double best = 0.0;
  for (const double p : {90.0, 99.0, 99.9}) {
    // (100 - p) first: n x (1 - 0.9) falls just short of 10 at n = 100.
    const double beyond = static_cast<double>(v_.size()) * (100.0 - p) / 100.0;
    if (beyond >= 10.0 - 1e-9) best = p;
  }
  return best;
}

Json Dist::summary(const std::string& unit, double scale) const {
  Json j = Json::object();
  j["n"] = static_cast<std::uint64_t>(v_.size());
  j["unit"] = unit;
  j["p50"] = median() * scale;
  const double top = top_supported_percentile();
  if (top > 0.0) {
    char key[16];
    std::snprintf(key, sizeof key, "p%g", top);
    j[key] = quantile(top / 100.0) * scale;
  }
  j["max"] = max() * scale;
  return j;
}

CounterMark::CounterMark() : at_(dassa::global_counters().snapshot()) {}

std::uint64_t CounterMark::delta(const std::string& name) const {
  const std::uint64_t now = dassa::global_counters().get(name);
  const auto it = at_.find(name);
  const std::uint64_t then = it == at_.end() ? 0 : it->second;
  return now >= then ? now - then : 0;
}

Json ratio_json(double num, double den) {
  Json j = Json::object();
  j["value"] = safe_ratio(num, den);
  j["num"] = num;
  j["den"] = den;
  return j;
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

Json run_context(std::uint64_t seed) {
  Json j = Json::object();
  j["nproc"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  j["cpu_model"] = cpu_model();
  j["build_type"] = PERFBENCH_BUILD_TYPE;
  j["simd_level"] =
      dassa::simd::level_name(dassa::simd::active_level());
  j["chunk_cache_budget_bytes"] =
      static_cast<std::uint64_t>(dassa::io::ChunkCache::global().budget());
  j["seed"] = seed;
  j["storage"] =
      "archives are generated just before the run and read back through "
      "the OS page cache, not from disk";
  return j;
}

RssSampler::RssSampler()
    : thread_([this] {
        const double page_mib = static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
        while (!stop_.load()) {
          std::ifstream statm("/proc/self/statm");
          double size = 0.0;
          double resident = 0.0;
          if (statm >> size >> resident) samples_.add(resident * page_mib);
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }) {}

RssSampler::~RssSampler() { stop(); }

Dist RssSampler::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return samples_;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // in kB
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

CpuTimes CpuTimes::now() {
  // "cpu  user nice system idle iowait irq softirq steal ..." in jiffies.
  std::ifstream stat("/proc/stat");
  std::string cpu;
  CpuTimes t;
  std::uint64_t v = 0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

Json steal_json(const CpuTimes& start, const CpuTimes& end) {
  Json j = Json::object();
  const double steal = static_cast<double>(end.steal - start.steal);
  const double total = static_cast<double>(end.total - start.total);
  j["steal_jiffies"] = steal;
  j["all_cpu_jiffies"] = total;
  j["steal_share"] = safe_ratio(steal, total);
  return j;
}

}  // namespace perfbench
