#include "dassa/io/interval_index.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/wire.hpp"
#include "dassa/io/file_io.hpp"

namespace dassa::io {

namespace {

constexpr char kTixMagic[8] = {'D', 'A', 'S', 'T', 'I', 'X', '\0', '\1'};

// Encoded size of one entry: five 64-bit fields.
constexpr std::size_t kEntryBytes = 40;

/// Shared structural validation: the builder reports InvalidArgument
/// (programming error), the loader FormatError (untrusted bytes).
template <typename Error>
void validate_entries(const std::vector<IntervalEntry>& entries,
                      const std::string& what) {
  std::int64_t prev_begin = 0;
  std::int64_t prev_end = 0;
  bool first = true;
  for (const IntervalEntry& e : entries) {
    if (e.end_s <= e.begin_s) {
      throw Error("empty or inverted interval in " + what);
    }
    if (!first && (e.begin_s < prev_begin || e.end_s < prev_end)) {
      // Non-decreasing begin *and* end is what makes the fence-pointer
      // binary search sound: a nested interval would hide behind its
      // container's end time.
      throw Error("intervals out of order in " + what);
    }
    prev_begin = e.begin_s;
    prev_end = e.end_s;
    first = false;
  }
}

}  // namespace

IntervalIndex IntervalIndex::build(std::vector<IntervalEntry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const IntervalEntry& a, const IntervalEntry& b) {
              return a.begin_s < b.begin_s ||
                     (a.begin_s == b.begin_s && a.col_start < b.col_start);
            });
  validate_entries<InvalidArgument>(entries, "interval index build");
  IntervalIndex idx;
  idx.entries_ = std::move(entries);
  return idx;
}

void IntervalIndex::save(const std::string& path) const {
  DASSA_CHECK(!path.empty(), "interval index save needs a path");
  wire::Encoder enc;
  enc.u64(entries_.size());
  for (const IntervalEntry& e : entries_) {
    enc.u64(static_cast<std::uint64_t>(e.begin_s));
    enc.u64(static_cast<std::uint64_t>(e.end_s));
    enc.u64(e.member);
    enc.u64(e.col_start);
    enc.u64(e.cols);
  }
  const std::vector<std::byte>& body = enc.bytes();
  const std::uint32_t crc = wire::crc32(body.data(), body.size());

  OutputFile out(path);
  out.write(kTixMagic, sizeof kTixMagic);
  const std::uint64_t size = body.size();
  out.write(&size, sizeof size);
  out.write(body.data(), body.size());
  out.write(&crc, sizeof crc);
  out.close();
  global_counters().add(counters::kIoIndexPublishes);
}

void IntervalIndex::save_atomic(const std::string& path) const {
  DASSA_CHECK(!path.empty(), "save_atomic needs a destination path");
  const std::string tmp = path + ".tmp";
  save(tmp);
  // rename(2) is atomic within a filesystem: a server re-opening the
  // sidecar while the ingest daemon republishes it sees the old or the
  // new complete index, never a torn write.
  std::filesystem::rename(tmp, path);
}

IntervalIndex IntervalIndex::load(const std::string& path) {
  InputFile in(path);
  // Anything shorter than magic + size + CRC cannot be a sidecar at
  // all; reject it as truncation before read_at can hit end-of-file.
  if (in.size() < 20) {
    throw FormatError("truncated interval index " + path);
  }
  char magic[8];
  in.read_at(0, magic, sizeof magic);
  if (std::memcmp(magic, kTixMagic, sizeof magic) != 0) {
    throw FormatError("bad interval-index magic in " + path);
  }
  std::uint64_t size = 0;
  in.read_at(8, &size, sizeof size);
  // Subtraction form: `16 + size + 4` wraps for a corrupted size near
  // 2^64 and would slip past the check into a huge allocation.
  if (size > in.size() - 20) {
    throw FormatError("truncated interval index " + path);
  }
  const std::vector<std::byte> body =
      in.read_vec(16, static_cast<std::size_t>(size));
  std::uint32_t stored_crc = 0;
  in.read_at(16 + size, &stored_crc, sizeof stored_crc);
  if (wire::crc32(body.data(), body.size()) != stored_crc) {
    throw FormatError("interval-index CRC mismatch in " + path);
  }

  wire::Decoder dec(body);
  const std::uint64_t n = dec.u64();
  // Each entry occupies exactly kEntryBytes, so any larger count is a
  // corrupted length -- reject it before reserve() turns it into a
  // std::bad_alloc.
  if (n > (body.size() - sizeof(std::uint64_t)) / kEntryBytes) {
    throw FormatError("implausible entry count in " + path);
  }
  IntervalIndex idx;
  idx.entries_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    IntervalEntry e;
    e.begin_s = static_cast<std::int64_t>(dec.u64());
    e.end_s = static_cast<std::int64_t>(dec.u64());
    e.member = dec.u64();
    e.col_start = dec.u64();
    e.cols = dec.u64();
    idx.entries_.push_back(e);
  }
  validate_entries<FormatError>(idx.entries_, path);
  global_counters().add(counters::kIoIndexLoads);
  return idx;
}

std::vector<IntervalEntry> IntervalIndex::query(std::int64_t begin_s,
                                                std::int64_t end_s) const {
  global_counters().add(counters::kIoIndexQueries);
  std::vector<IntervalEntry> out;
  if (begin_s >= end_s || entries_.empty()) return out;
  // Hand-rolled lower_bound over end_s so every comparator probe is
  // counted: the first entry still alive at `begin_s`. end_s is
  // non-decreasing (build/load invariant), so this is sound.
  std::size_t lo = 0;
  std::size_t hi = entries_.size();
  std::uint64_t touches = 0;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ++touches;
    if (entries_[mid].end_s <= begin_s) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  // Scan the k overlapping entries; the one extra touch is the probe
  // that terminates the scan.
  for (std::size_t i = lo; i < entries_.size(); ++i) {
    ++touches;
    if (entries_[i].begin_s >= end_s) break;
    out.push_back(entries_[i]);
  }
  global_counters().add(counters::kIoIndexEntryTouches, touches);
  return out;
}

std::string IntervalIndex::sidecar_path(const std::string& array_path) {
  DASSA_CHECK(!array_path.empty(), "sidecar_path needs an array path");
  return array_path + ".tix";
}

}  // namespace dassa::io
