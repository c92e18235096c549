#include "dassa/common/telemetry.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <ostream>
#include <string_view>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__linux__)
#include <unistd.h>
#endif

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/log.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/common/wire.hpp"

namespace dassa::telemetry {

// ---------------------------------------------------------------------------
// Resources and gauges
// ---------------------------------------------------------------------------

ResourceUsage sample_resources() {
  ResourceUsage res;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    // Linux reports ru_maxrss in KiB (macOS in bytes; we only gate on
    // the Linux convention since that is the deployment target).
    res.peak_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;
    const auto tv_ns = [](const timeval& tv) {
      return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000u +
             static_cast<std::uint64_t>(tv.tv_usec) * 1'000u;
    };
    res.user_cpu_ns = tv_ns(ru.ru_utime);
    res.sys_cpu_ns = tv_ns(ru.ru_stime);
  }
#endif
#if defined(__linux__)
  // statm field 2 is resident pages; cheaper than parsing /proc/self/status.
  if (std::ifstream statm("/proc/self/statm"); statm.good()) {
    std::uint64_t total_pages = 0;
    std::uint64_t resident_pages = 0;
    if (statm >> total_pages >> resident_pages) {
      res.rss_bytes = resident_pages *
                      static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
    }
  }
#endif
  return res;
}

namespace {

struct GaugeRegistry {
  Mutex mu;
  std::map<std::string, GaugeFn> gauges DASSA_GUARDED_BY(mu);
};

GaugeRegistry& gauge_registry() {
  static GaugeRegistry reg;
  // Built-in gauges: the tracer's in-flight and dropped spans (the
  // stall detector keys off open spans) and the log record count.
  static const bool builtins_installed = [] {
    MutexLock lock(reg.mu);
    reg.gauges["trace.open_spans"] = [] {
      return static_cast<double>(trace::open_spans());
    };
    reg.gauges["trace.dropped_spans"] = [] {
      return static_cast<double>(trace::dropped_spans());
    };
    reg.gauges["log.records"] = [] {
      return static_cast<double>(log_records_emitted());
    };
    return true;
  }();
  (void)builtins_installed;
  return reg;
}

}  // namespace

void register_gauge(const std::string& name, GaugeFn fn) {
  DASSA_CHECK(!name.empty(), "gauge name must be non-empty");
  DASSA_CHECK(static_cast<bool>(fn), "gauge function must be callable");
  GaugeRegistry& reg = gauge_registry();
  MutexLock lock(reg.mu);
  reg.gauges[name] = std::move(fn);
}

std::map<std::string, double> read_gauges() {
  std::map<std::string, GaugeFn> fns;
  {
    GaugeRegistry& reg = gauge_registry();
    MutexLock lock(reg.mu);
    fns = reg.gauges;
  }
  // Call outside the lock: a gauge may itself take locks (queue depth,
  // cache occupancy) and must not order against registration.
  std::map<std::string, double> out;
  for (const auto& [name, fn] : fns) out.emplace(name, fn());
  return out;
}

Snapshot collect() {
  Snapshot s;
  s.wall_ns = trace::detail::now_ns();
  s.res = sample_resources();
  s.counters = global_counters().snapshot();
  s.gauges = read_gauges();
  s.hists = global_metrics().snapshot();
  return s;
}

// ---------------------------------------------------------------------------
// TelemetrySampler
// ---------------------------------------------------------------------------

TelemetrySampler::TelemetrySampler(SamplerConfig cfg) : cfg_(cfg) {
  DASSA_CHECK(cfg_.period.count() > 0, "sampler period must be positive");
  DASSA_CHECK(cfg_.max_samples > 0, "sampler max_samples must be positive");
}

TelemetrySampler::~TelemetrySampler() { stop(); }

void TelemetrySampler::start() {
  MutexLock lock(mu_);
  DASSA_CHECK(!running_, "sampler already started");
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { run_loop(); });
}

void TelemetrySampler::stop() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  MutexLock lock(mu_);
  running_ = false;
}

bool TelemetrySampler::running() const {
  MutexLock lock(mu_);
  return running_;
}

void TelemetrySampler::tick() {
  // One ticker at a time, charge through append: without this, a
  // manual tick() racing the background loop could snapshot earlier
  // counter values but append later, producing a timeline whose
  // counters go backwards.
  MutexLock tick_lock(tick_mu_);

  // Charge the sample counter first so the sample we are about to take
  // already reflects it: consecutive samples differ by exactly one,
  // which is how a reader spots a gap.
  global_counters().add(counters::kTelemetrySamples);
  Snapshot s = collect();

  MutexLock lock(mu_);
  // Evict the oldest, never the newest: the timeline stays contiguous
  // (its rules only compare neighbours) and ends at the latest tick.
  if (samples_.size() >= cfg_.max_samples) {
    samples_.pop_front();
    ++evicted_;
  }
  samples_.push_back(std::move(s));
}

std::vector<Snapshot> TelemetrySampler::timeline() const {
  MutexLock lock(mu_);
  return {samples_.begin(), samples_.end()};
}

std::uint64_t TelemetrySampler::evicted() const {
  MutexLock lock(mu_);
  return evicted_;
}

void TelemetrySampler::run_loop() {
  while (true) {
    const auto deadline = std::chrono::steady_clock::now() + cfg_.period;
    {
      MutexLock lock(mu_);
      while (!stop_requested_) {
        if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
      }
      if (stop_requested_) return;
    }
    tick();
  }
}

// ---------------------------------------------------------------------------
// Telemetry file
// ---------------------------------------------------------------------------

namespace {

constexpr char kFileMagic[8] = {'D', 'A', 'S', 'T', 'L', 'M', '\0', '\2'};

void put_frame(wire::Encoder& enc, const Snapshot& s) {
  const std::vector<std::byte> frame = encode_snapshot(s);
  enc.varint(frame.size());
  enc.raw(frame.data(), frame.size());
}

Snapshot get_frame(wire::Decoder& dec) {
  const std::uint64_t len = dec.varint();
  if (len > dec.remaining()) throw FormatError("truncated telemetry file");
  const std::size_t end = dec.position() + static_cast<std::size_t>(len);
  Snapshot s = decode_snapshot(dec);
  if (dec.position() != end) {
    throw FormatError("telemetry frame length disagrees with its snapshot");
  }
  return s;
}

/// The work behind a stage row, from counters the producers already
/// put in every rank frame: bytes moved (a counter times its unit) and
/// rows retired, both summed over ranks -- except rows_shared ones,
/// which every rank reports whole (the merged output's rows).
struct StageWork {
  std::string_view stage;  ///< the "<ns>.stage.<name>_ns" rank counter
  const char* bytes;       ///< nullptr: no byte volume for the stage
  std::uint64_t bytes_unit;
  const char* rows;
  bool rows_shared;
};
constexpr StageWork kStageWork[] = {
    {"haee.stage.read_ns", "haee.read_bytes", 1, "haee.rows_owned", false},
    {"haee.stage.compute_ns", nullptr, 0, "haee.rows_owned", false},
    {"haee.stage.write_ns", "haee.output_values", sizeof(double),
     "haee.rows_owned", false},
    {"io.repack.stage.repack_ns", "io.repack.source_bytes", 1,
     "io.repack.rows", true},
};

/// The timeline rules a sampler guarantees: each tick charges
/// telemetry.samples by one before it collects, the trace clock never
/// runs backwards, and counters only grow.
void check_timeline(const std::vector<Snapshot>& timeline) {
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    const Snapshot& prev = timeline[i - 1];
    const Snapshot& cur = timeline[i];
    const std::string at = " at sample " + std::to_string(i);
    if (cur.wall_ns < prev.wall_ns) {
      throw FormatError("telemetry timeline goes backwards in time" + at);
    }
    const std::uint64_t seq = cur.counter(counters::kTelemetrySamples);
    const std::uint64_t prev_seq = prev.counter(counters::kTelemetrySamples);
    if (seq != prev_seq + 1) {
      throw FormatError("telemetry timeline has a sample gap" + at + " (" +
                        counters::kTelemetrySamples + " " +
                        std::to_string(prev_seq) + " -> " +
                        std::to_string(seq) + ")");
    }
    for (const auto& [name, value] : cur.counters) {
      if (value < prev.counter(name)) {
        throw FormatError("counter '" + name + "' decreases" + at);
      }
    }
  }
}

}  // namespace

std::vector<std::byte> encode_telemetry_file(const TelemetryFile& file) {
  wire::Encoder enc;
  enc.raw(kFileMagic, sizeof kFileMagic);
  enc.varint(file.meta.size());
  for (const auto& [key, value] : file.meta) {
    enc.text(key);
    enc.text(value);
  }
  enc.varint(file.timeline.size());
  enc.varint(file.ranks.size());
  for (const Snapshot& s : file.timeline) put_frame(enc, s);
  for (const Snapshot& s : file.ranks) put_frame(enc, s);
  enc.u32(wire::crc32(enc.bytes().data(), enc.bytes().size()));
  return enc.bytes();
}

TelemetryFile decode_telemetry_file(std::span<const std::byte> bytes) {
  if (bytes.size() < sizeof kFileMagic + sizeof(std::uint32_t) ||
      std::memcmp(bytes.data(), kFileMagic, sizeof kFileMagic) != 0) {
    throw FormatError("not a telemetry file (bad magic)");
  }
  const std::span<const std::byte> body =
      bytes.first(bytes.size() - sizeof(std::uint32_t));
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + body.size(), sizeof stored_crc);
  if (wire::crc32(body.data(), body.size()) != stored_crc) {
    throw FormatError("telemetry file CRC mismatch (corrupt or truncated)");
  }

  wire::Decoder dec(body.subspan(sizeof kFileMagic));
  TelemetryFile file;
  for (std::uint64_t n_meta = dec.varint(); n_meta > 0; --n_meta) {
    std::string key = dec.text();
    if (!file.meta.emplace(std::move(key), dec.text()).second) {
      throw FormatError("duplicate telemetry meta key");
    }
  }
  const std::uint64_t n_timeline = dec.varint();
  const std::uint64_t n_ranks = dec.varint();
  for (std::uint64_t i = 0; i < n_timeline; ++i) {
    file.timeline.push_back(get_frame(dec));
  }
  for (std::uint64_t i = 0; i < n_ranks; ++i) {
    file.ranks.push_back(get_frame(dec));
  }
  if (dec.remaining() != 0) {
    throw FormatError("trailing bytes after the telemetry frames");
  }
  check_timeline(file.timeline);
  return file;
}

void write_telemetry_file(const std::string& path, const TelemetryFile& file) {
  const std::vector<std::byte> bytes = encode_telemetry_file(file);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw IoError("cannot open telemetry output file: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out.flush()) throw IoError("cannot write telemetry file: " + path);
}

TelemetryFile read_telemetry_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open telemetry file: " + path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return decode_telemetry_file(std::as_bytes(std::span(text)));
}

std::map<std::string, HistogramSnapshot> final_histograms(
    const TelemetryFile& file) {
  if (!file.ranks.empty()) return reduce_ranks(file.ranks).hists;
  if (!file.timeline.empty()) return file.timeline.back().hists;
  return {};
}

// ---------------------------------------------------------------------------
// Health report
// ---------------------------------------------------------------------------

void write_health_report(std::ostream& os, const TelemetryFile& file) {
  DASSA_CHECK(os.good(), "health report stream is not writable");
  char buf[256];

  os << "== dassa pipeline health ==\n";
  for (const auto& [k, v] : file.meta) os << "  " << k << " = " << v << "\n";

  const ClusterTelemetry cluster = reduce_ranks(file.ranks);
  const auto cluster_agg = [&cluster](const char* name) {
    const auto it = cluster.counters.find(name);
    return it == cluster.counters.end() ? CounterAggregate{} : it->second;
  };
  // Stage rows: "<ns>.stage.<name>_ns" rank counters, slowest rank wins
  // (the paper's figures report the slowest rank's stage times); the
  // work behind a stage comes from its kStageWork counters.
  struct StageRow {
    double seconds = 0.0;
    std::uint64_t bytes = 0;
    std::uint64_t rows = 0;
  };
  constexpr std::string_view kStage = ".stage.";
  constexpr std::string_view kNs = "_ns";
  std::map<std::string, StageRow> stages;
  double total_s = 0.0;
  for (const auto& [name, agg] : cluster.counters) {
    const std::size_t at = name.find(kStage);
    if (at == std::string::npos || !name.ends_with(kNs)) continue;
    const std::size_t begin = at + kStage.size();
    StageRow row;
    row.seconds = static_cast<double>(agg.max) / 1e9;
    for (const StageWork& w : kStageWork) {
      if (w.stage != name) continue;
      if (w.bytes != nullptr) {
        row.bytes = cluster_agg(w.bytes).sum * w.bytes_unit;
      }
      const CounterAggregate rows = cluster_agg(w.rows);
      row.rows = w.rows_shared ? rows.max : rows.sum;
    }
    stages[name.substr(begin, name.size() - kNs.size() - begin)] = row;
    total_s += row.seconds;
  }
  if (!stages.empty()) {
    os << "\nstages:\n"
       << "  stage        seconds   share      MB/s        rows/s\n";
    for (const auto& [name, row] : stages) {
      const auto per_s = [&row](double work) {
        return row.seconds > 0 ? work / row.seconds : 0.0;
      };
      std::snprintf(buf, sizeof buf, "  %-10s %9.3f  %5.1f%%  %8.1f  %12.1f\n",
                    name.c_str(), row.seconds,
                    total_s > 0 ? row.seconds / total_s * 100.0 : 0.0,
                    per_s(static_cast<double>(row.bytes) / 1e6),
                    per_s(static_cast<double>(row.rows)));
      os << buf;
    }
  }

  if (!file.timeline.empty()) {
    const Snapshot& last = file.timeline.back();
    std::snprintf(buf, sizeof buf,
                  "\nresources (final of %zu samples):\n"
                  "  rss=%.1f MiB peak_rss=%.1f MiB user_cpu=%.2fs "
                  "sys_cpu=%.2fs\n",
                  file.timeline.size(),
                  static_cast<double>(last.res.rss_bytes) / (1024.0 * 1024.0),
                  static_cast<double>(last.res.peak_rss_bytes) /
                      (1024.0 * 1024.0),
                  static_cast<double>(last.res.user_cpu_ns) / 1e9,
                  static_cast<double>(last.res.sys_cpu_ns) / 1e9);
    os << buf;

    const std::uint64_t hits = last.counter(counters::kIoCacheHits);
    const std::uint64_t lookups = hits + last.counter(counters::kIoCacheMisses);
    const std::uint64_t raw = last.counter(counters::kIoCodecBytesRaw);
    const std::uint64_t stored = last.counter(counters::kIoCodecBytesStored);
    if (lookups > 0 || stored > 0) os << "\nefficiency:\n";
    if (lookups > 0) {
      std::snprintf(buf, sizeof buf,
                    "  cache hit ratio: %.1f%% (%" PRIu64 " hits / %" PRIu64
                    " lookups)\n",
                    static_cast<double>(hits) / static_cast<double>(lookups) *
                        100.0,
                    hits, lookups);
      os << buf;
    }
    if (stored > 0) {
      std::snprintf(buf, sizeof buf,
                    "  codec ratio: %.2fx (%" PRIu64 " raw -> %" PRIu64
                    " stored bytes)\n",
                    static_cast<double>(raw) / static_cast<double>(stored),
                    raw, stored);
      os << buf;
    }
  }

  if (!cluster.counters.empty()) {
    os << "\nrank balance (" << cluster.world_size << " ranks):\n"
       << "  counter                        sum        min(rank)"
       << "        max(rank)  imbalance\n";
    for (const auto& [name, a] : cluster.counters) {
      std::snprintf(buf, sizeof buf,
                    "  %-24s %10" PRIu64 " %10" PRIu64 " (r%d) %10" PRIu64
                    " (r%d)      %5.2fx\n",
                    name.c_str(), a.sum, a.min, a.min_rank, a.max, a.max_rank,
                    a.imbalance(cluster.world_size));
      os << buf;
    }
  }

  bool latency_header = false;
  for (const auto& [name, h] : final_histograms(file)) {
    if (h.count == 0) continue;
    if (!latency_header) {
      os << (file.ranks.empty() ? "\nlatency (final sample):\n"
                                : "\nlatency (cluster-merged):\n")
         << "  span                                  count     p50_us"
         << "     p95_us     p99_us\n";
      latency_header = true;
    }
    std::snprintf(buf, sizeof buf,
                  "  %-36s %6" PRIu64 " %10.1f %10.1f %10.1f\n",
                  name.c_str(), h.count, h.quantile_ns(0.50) / 1e3,
                  h.quantile_ns(0.95) / 1e3, h.quantile_ns(0.99) / 1e3);
    os << buf;
  }

  std::size_t stalls = 0;
  for (std::size_t i = 1; i < file.timeline.size(); ++i) {
    const Snapshot& prev = file.timeline[i - 1];
    const Snapshot& cur = file.timeline[i];
    if (!stall(prev, cur)) continue;
    ++stalls;
    std::snprintf(buf, sizeof buf,
                  "WARNING: stall: no counter progress in sample interval "
                  "%zu -> %zu (%.1f ms) while %.0f span(s) open\n",
                  i - 1, i,
                  static_cast<double>(cur.wall_ns - prev.wall_ns) / 1e6,
                  cur.gauge("trace.open_spans"));
    os << buf;
  }
  if (file.timeline.size() > 1) {
    os << "\n";
    if (stalls == 0) {
      os << "no stalls detected";
    } else {
      os << stalls << " stall(s)";
    }
    os << " across " << file.timeline.size() - 1 << " sample intervals\n";
  }
}

}  // namespace dassa::telemetry
