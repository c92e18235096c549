// DASS storage: the persistent time-interval index (.tix sidecar).
//
// A .vca names its members in concatenation order but stores no time
// metadata, so a time-range query historically touched every member
// (open + header parse: O(n) in the member count). The sidecar index
// stores one *fence pointer* per member -- its [begin, end) time
// extent in epoch seconds plus its column extent in the concatenated
// coordinate system -- sorted by begin time. A range query is then a
// binary search for the first overlapping member followed by a scan of
// the k hits: O(log n + k) entry touches, counter-pinned
// (io.index.entry_touches) by tests/io/test_interval_index.cpp.
//
// The file rides next to its array as "<path>.tix" and is republished
// atomically by the same writers that publish the .vca: `das_search
// --save-vca`, the das_ingest live-VCA republish, and `das_repack
// --save-vca`. Times are raw int64 epoch seconds (seconds since
// 2000-01-01, das::Timestamp::epoch_seconds()): the io layer does not
// depend on the das timestamp type; das-side helpers convert.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dassa/common/shape.hpp"

namespace dassa::io {

/// One member's fence pointer: its time extent and where its columns
/// land in the concatenated array.
struct IntervalEntry {
  std::int64_t begin_s = 0;  ///< inclusive, epoch seconds
  std::int64_t end_s = 0;    ///< exclusive, epoch seconds
  std::size_t member = 0;    ///< index into the VCA's members()
  std::size_t col_start = 0; ///< first column in VCA coordinates
  std::size_t cols = 0;      ///< member width
  friend bool operator==(const IntervalEntry&, const IntervalEntry&) = default;
};

/// Sorted fence-pointer index over the members of one concatenated
/// array. Immutable once built; writers publish a whole new sidecar
/// (save_atomic) the same way the live VCA republishes its .vca.
class IntervalIndex {
 public:
  IntervalIndex() = default;

  /// Build from entries (sorted internally by begin_s). Entries must
  /// have end_s > begin_s and, once sorted, non-decreasing end_s (true
  /// for contiguous acquisitions; nested intervals would break the
  /// fence-pointer binary search). Throws InvalidArgument otherwise.
  [[nodiscard]] static IntervalIndex build(std::vector<IntervalEntry> entries);

  /// Persist to / load from a .tix sidecar. load() treats the bytes as
  /// untrusted: bad magic, truncation, CRC mismatch, implausible entry
  /// counts, and unsorted or empty intervals all surface as
  /// dassa::FormatError naming the path.
  void save(const std::string& path) const;
  void save_atomic(const std::string& path) const;
  [[nodiscard]] static IntervalIndex load(const std::string& path);

  /// Entries whose time extent overlaps [begin_s, end_s). Charges
  /// io.index.entry_touches once per binary-search probe and once per
  /// scanned entry -- the counters the O(log n + k) pin reads.
  [[nodiscard]] std::vector<IntervalEntry> query(std::int64_t begin_s,
                                                 std::int64_t end_s) const;

  [[nodiscard]] const std::vector<IntervalEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Canonical sidecar location for an array index at `array_path`
  /// ("live.vca" -> "live.vca.tix").
  [[nodiscard]] static std::string sidecar_path(const std::string& array_path);

 private:
  std::vector<IntervalEntry> entries_;  // sorted by (begin_s, col_start)
};

}  // namespace dassa::io
