// DASSA common: telemetry sampling, the telemetry file, and the run
// report.
//
// Spans (trace.hpp) answer "where did the time go" after a run;
// counters answer "how much work happened" in total. Neither answers
// the operator's question *during* a long HAEE campaign: is the
// pipeline still making progress, and at what rate? The TelemetrySampler
// closes that gap -- a background thread takes a Snapshot
// (snapshot.hpp: every global counter, registered gauge, exact latency
// histogram, and the process's resource usage) into an in-memory
// timeline at a configurable period.
//
// The telemetry file is that timeline plus the per-rank Snapshots a run
// gathered over MiniMPI, behind a small meta header:
//   8 B magic "DASTLM\0\2" | v n_meta, n_meta x (v len, key, v len, value)
//   | v n_timeline | v n_ranks | (n_timeline + n_ranks) x (v len, frame)
//   | u32 CRC32 of everything before it
// ("v" a strict LEB128 varint, each frame one Snapshot). Nothing
// derivable is stored: aggregates, imbalance, merged histograms,
// percentiles and stage rows are computed when the file is read.
// `das_top --file` reads (fully decodes and checks) a file and renders
// write_health_report().
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dassa/common/snapshot.hpp"
#include "dassa/common/sync.hpp"

namespace dassa::telemetry {

/// Process resource usage now. Peak RSS and CPU come from
/// getrusage(RUSAGE_SELF); current RSS from /proc/self/statm (0 where
/// unavailable).
[[nodiscard]] ResourceUsage sample_resources();

/// A gauge is a point-in-time reading (queue depth, cache occupancy)
/// as opposed to a monotonic counter. Subsystems register one function
/// per name; registering an existing name replaces the reader (so
/// re-created singletons stay current). Gauge functions must be
/// thread-safe: the sampler thread calls them.
using GaugeFn = std::function<double()>;
void register_gauge(const std::string& name, GaugeFn fn);

/// Read every registered gauge now. Built-in gauges
/// (trace.open_spans, trace.dropped_spans, log.records) are always
/// present.
[[nodiscard]] std::map<std::string, double> read_gauges();

/// Snapshot this process now: trace clock, resources, global counters,
/// registered gauges, and every histogram in global_metrics(). What
/// kStats answers and what each sampler tick records.
[[nodiscard]] Snapshot collect();

struct SamplerConfig {
  std::chrono::milliseconds period{250};
  /// Timeline cap: past it each tick evicts the oldest sample, so the
  /// newest (a daemon's final shutdown sample included) always stays.
  std::size_t max_samples = 1 << 14;
};

/// Periodic sampler. start() launches one background thread; stop()
/// (or destruction) joins it. tick() takes one sample synchronously
/// and is the deterministic injection point the tests drive -- the
/// background loop calls exactly the same code. Each tick charges
/// telemetry.samples before it collects, so a timeline's
/// telemetry.samples values are consecutive integers.
class TelemetrySampler {
 public:
  explicit TelemetrySampler(SamplerConfig cfg = {});
  ~TelemetrySampler();

  TelemetrySampler(const TelemetrySampler&) = delete;
  TelemetrySampler& operator=(const TelemetrySampler&) = delete;

  void start();
  void stop();
  [[nodiscard]] bool running() const;

  /// Take one sample now (any thread; also the background loop body).
  void tick();

  /// Copy of the retained timeline (the newest max_samples), oldest
  /// first.
  [[nodiscard]] std::vector<Snapshot> timeline() const;

  /// Oldest samples evicted because the timeline hit max_samples.
  [[nodiscard]] std::uint64_t evicted() const;

 private:
  void run_loop();

  SamplerConfig cfg_;
  // Serializes whole ticks (a manual tick() racing the background
  // loop's): the counter charge, the snapshot and the timeline append
  // must be atomic per sample or racing ticks can append in opposite
  // order and break the timeline's consecutive-telemetry.samples and
  // monotone-counter rules. Always acquired before mu_; nothing else
  // takes it, so no ordering hazard.
  Mutex tick_mu_;
  mutable Mutex mu_;
  CondVar cv_;
  std::deque<Snapshot> samples_ DASSA_GUARDED_BY(mu_);
  std::uint64_t evicted_ DASSA_GUARDED_BY(mu_) = 0;
  // Joined outside mu_ in stop() (joining under the lock would deadlock
  // against run_loop's own locking); start/stop are single-owner calls.
  std::thread thread_;
  bool running_ DASSA_GUARDED_BY(mu_) = false;
  bool stop_requested_ DASSA_GUARDED_BY(mu_) = false;
};

// ---- telemetry file ----------------------------------------------------

/// Everything a telemetry file carries.
struct TelemetryFile {
  std::map<std::string, std::string> meta;  ///< tool, pipeline, ...
  std::vector<Snapshot> timeline;           ///< sampler, oldest first
  std::vector<Snapshot> ranks;              ///< one per rank, by rank

  friend bool operator==(const TelemetryFile&,
                         const TelemetryFile&) = default;
};

[[nodiscard]] std::vector<std::byte> encode_telemetry_file(
    const TelemetryFile& file);

/// Decode and check a whole file. Throws dassa::FormatError on a bad
/// magic, a CRC mismatch (any flipped byte), truncation or trailing
/// bytes, any malformed Snapshot frame, and a timeline that breaks its
/// rules: telemetry.samples consecutive (no gap), wall clock
/// non-decreasing (no time travel), counters non-decreasing.
[[nodiscard]] TelemetryFile decode_telemetry_file(
    std::span<const std::byte> bytes);

/// File forms of the two above; IoError if the path cannot be opened.
void write_telemetry_file(const std::string& path, const TelemetryFile& file);
[[nodiscard]] TelemetryFile read_telemetry_file(const std::string& path);

/// The merged latency view of a file: bucket-merged rank histograms if
/// the file has rank frames, else the final timeline sample's.
[[nodiscard]] std::map<std::string, HistogramSnapshot> final_histograms(
    const TelemetryFile& file);

/// Render the run report: meta, stage rows (seconds = max over ranks
/// of each "<ns>.stage.<name>_ns" rank counter; MB/s and rows/s from
/// the cluster sums of the stage's work counters), resource ceiling,
/// cache/codec efficiency, the per-rank imbalance table, latency
/// percentiles, and one warning per stall() interval of the timeline.
void write_health_report(std::ostream& os, const TelemetryFile& file);

}  // namespace dassa::telemetry
