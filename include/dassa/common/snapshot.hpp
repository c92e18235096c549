// DASSA common: the metrics Snapshot -- one type, one codec.
//
// Everything observable about a process (or a MiniMPI rank) at one
// instant: cumulative counters, instantaneous gauges, bucket-exact
// latency histograms, and resource usage. Three places carry it, all
// through the one encode_snapshot / decode_snapshot pair below:
//   * the kStats wire (serve/stats.hpp): a type byte + one frame;
//   * the cross-rank gather (mpi/telemetry.hpp): one frame per rank;
//   * the telemetry file (telemetry.hpp): the sampler timeline and the
//     rank frames, each length-prefixed.
//
// Frame layout, version 2 (little-endian; "v" is a strict LEB128
// varint, "name" a v length + bytes, wire::Encoder::text):
//   u32 version | v wall_ns | v rss | v peak_rss | v user_cpu_ns |
//   v sys_cpu_ns | v n, n x (name, v value)           -- counters
//               | v n, n x (name, u64 f64 bits)       -- gauges
//               | v n, n x (name, v total_ns, u8 k,   -- histograms
//                           k x (u8 bucket, v value))
// Nothing derivable is stored: a histogram's count is its bucket sum.
//
// The decoder is an untrusted-byte boundary: entry counts are bounded
// before any allocation, names are bounded and strictly increasing (the
// encoder walks sorted maps, so anything else is a forgery), bucket
// indexes strictly increasing, bucket values non-zero with a sum that
// fits 64 bits. Every violation is dassa::FormatError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "dassa/common/metrics.hpp"
#include "dassa/common/wire.hpp"

namespace dassa {

inline constexpr std::uint32_t kSnapshotVersion = 2;

/// Ceilings a decoder enforces before allocating: entries per section
/// and bytes per metric name.
inline constexpr std::size_t kMaxSnapshotEntries = 4096;
inline constexpr std::size_t kMaxSnapshotNameBytes = 256;

/// Process resource usage at one instant (telemetry::sample_resources).
struct ResourceUsage {
  std::uint64_t rss_bytes = 0;
  std::uint64_t peak_rss_bytes = 0;
  std::uint64_t user_cpu_ns = 0;
  std::uint64_t sys_cpu_ns = 0;

  friend bool operator==(const ResourceUsage&, const ResourceUsage&) = default;
};

/// One observation. `wall_ns` is the observer's trace clock, so the
/// delta between two snapshots of one process is the exact interval
/// without any clock agreement between reader and writer.
struct Snapshot {
  std::uint64_t wall_ns = 0;
  ResourceUsage res;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> hists;

  /// A counter's value, 0 if absent (registry entries appear on first
  /// charge, so a missing counter has not moved yet).
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;
  /// A gauge's reading, 0 if absent.
  [[nodiscard]] double gauge(const std::string& name) const;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// Append one frame to `enc`. Throws InvalidArgument if a section
/// exceeds the entry ceiling or a name its length bounds.
void encode_snapshot(wire::Encoder& enc, const Snapshot& s);

/// Read one frame at the decoder's position (see the header comment
/// for every check).
[[nodiscard]] Snapshot decode_snapshot(wire::Decoder& dec);

/// Whole-buffer forms: exactly one frame, no trailing bytes.
[[nodiscard]] std::vector<std::byte> encode_snapshot(const Snapshot& s);
[[nodiscard]] Snapshot decode_snapshot(std::span<const std::byte> frame);

/// The stall rule, shared by das_top's live view and the telemetry
/// file report: between `prev` and `cur` no counter moved -- ignoring
/// the sampler's own telemetry.samples tick and the counters a kStats
/// poller advances by polling (stats.*, serve.bytes_*) -- while work
/// was nominally in flight (a span open, or a request/file queued).
[[nodiscard]] bool stall(const Snapshot& prev, const Snapshot& cur);

/// Cluster-wide aggregate of one counter across rank snapshots.
struct CounterAggregate {
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  int min_rank = 0;
  int max_rank = 0;

  /// max / mean: 1.0 is perfectly balanced. Returns 1.0 when the sum
  /// is zero (nothing to be imbalanced about).
  [[nodiscard]] double imbalance(int world_size) const;
};

/// The cluster view of a set of rank snapshots. Everything but
/// `per_rank` is derived.
struct ClusterTelemetry {
  int world_size = 0;
  std::vector<Snapshot> per_rank;  ///< indexed by rank
  std::map<std::string, CounterAggregate> counters;
  std::map<std::string, HistogramSnapshot> hists;  ///< bucket-merged
};

/// Derive the cluster view: per-counter sum/min/max with the owning
/// ranks (a counter a rank never charged counts as zero there) and
/// bucket-merged histograms.
[[nodiscard]] ClusterTelemetry reduce_ranks(std::vector<Snapshot> ranks);

}  // namespace dassa
