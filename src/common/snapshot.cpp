#include "dassa/common/snapshot.hpp"

#include <bit>
#include <limits>
#include <utility>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"

namespace dassa {

namespace {

void put_name(wire::Encoder& enc, const std::string& name) {
  DASSA_CHECK(!name.empty() && name.size() <= kMaxSnapshotNameBytes,
              "snapshot metric name length out of bounds: '" + name + "'");
  enc.text(name);
}

template <typename Map>
void put_count(wire::Encoder& enc, const Map& section) {
  DASSA_CHECK(section.size() <= kMaxSnapshotEntries,
              "snapshot section exceeds the entry ceiling");
  enc.varint(section.size());
}

/// Section-entry count read with its ceiling enforced before any
/// allocation sized from it.
std::size_t get_count(wire::Decoder& dec) {
  const std::uint64_t n = dec.varint();
  if (n > kMaxSnapshotEntries) {
    throw FormatError("snapshot section entry count exceeds ceiling");
  }
  return static_cast<std::size_t>(n);
}

/// Names arrive sorted (the encoder walks std::map); strict ascent
/// rejects duplicates and forged orderings in one check.
std::string get_name(wire::Decoder& dec, const std::string& prev) {
  std::string name = dec.text();
  if (name.empty() || name.size() > kMaxSnapshotNameBytes) {
    throw FormatError("snapshot metric name length out of bounds");
  }
  if (!prev.empty() && name <= prev) {
    throw FormatError("snapshot metric names not strictly increasing");
  }
  return name;
}

HistogramSnapshot get_hist(wire::Decoder& dec) {
  HistogramSnapshot h;
  h.total_ns = dec.varint();
  const std::uint8_t nonzero = dec.u8();
  if (nonzero > h.buckets.size()) {
    throw FormatError("snapshot histogram bucket entry count out of range");
  }
  int prev_index = -1;
  for (std::uint8_t i = 0; i < nonzero; ++i) {
    const std::uint8_t index = dec.u8();
    if (index >= h.buckets.size() || static_cast<int>(index) <= prev_index) {
      throw FormatError("snapshot histogram bucket index out of order");
    }
    prev_index = static_cast<int>(index);
    const std::uint64_t bucket = dec.varint();
    // A zero entry contradicts the sparse encoding; the count is the
    // bucket sum, so it must fit (subtraction form cannot wrap).
    if (bucket == 0) {
      throw FormatError("snapshot histogram carries an empty bucket entry");
    }
    if (bucket > std::numeric_limits<std::uint64_t>::max() - h.count) {
      throw FormatError("snapshot histogram bucket sum overflows");
    }
    h.buckets[index] = bucket;
    h.count += bucket;
  }
  return h;
}

}  // namespace

void encode_snapshot(wire::Encoder& enc, const Snapshot& s) {
  enc.u32(kSnapshotVersion);
  enc.varint(s.wall_ns);
  enc.varint(s.res.rss_bytes);
  enc.varint(s.res.peak_rss_bytes);
  enc.varint(s.res.user_cpu_ns);
  enc.varint(s.res.sys_cpu_ns);
  put_count(enc, s.counters);
  for (const auto& [name, value] : s.counters) {
    put_name(enc, name);
    enc.varint(value);
  }
  put_count(enc, s.gauges);
  for (const auto& [name, value] : s.gauges) {
    put_name(enc, name);
    enc.u64(std::bit_cast<std::uint64_t>(value));
  }
  put_count(enc, s.hists);
  for (const auto& [name, h] : s.hists) {
    put_name(enc, name);
    enc.varint(h.total_ns);
    std::uint8_t nonzero = 0;
    for (const std::uint64_t b : h.buckets) {
      if (b != 0) ++nonzero;
    }
    enc.u8(nonzero);
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      enc.u8(static_cast<std::uint8_t>(i));
      enc.varint(h.buckets[i]);
    }
  }
}

Snapshot decode_snapshot(wire::Decoder& dec) {
  if (dec.u32() != kSnapshotVersion) {
    throw FormatError("unsupported snapshot version");
  }
  Snapshot s;
  s.wall_ns = dec.varint();
  s.res.rss_bytes = dec.varint();
  s.res.peak_rss_bytes = dec.varint();
  s.res.user_cpu_ns = dec.varint();
  s.res.sys_cpu_ns = dec.varint();
  std::string prev;
  for (std::size_t n = get_count(dec); n > 0; --n) {
    prev = get_name(dec, prev);
    s.counters.emplace_hint(s.counters.end(), prev, dec.varint());
  }
  prev.clear();
  for (std::size_t n = get_count(dec); n > 0; --n) {
    prev = get_name(dec, prev);
    s.gauges.emplace_hint(s.gauges.end(), prev,
                          std::bit_cast<double>(dec.u64()));
  }
  prev.clear();
  for (std::size_t n = get_count(dec); n > 0; --n) {
    prev = get_name(dec, prev);
    s.hists.emplace_hint(s.hists.end(), prev, get_hist(dec));
  }
  return s;
}

std::vector<std::byte> encode_snapshot(const Snapshot& s) {
  wire::Encoder enc;
  encode_snapshot(enc, s);
  return enc.bytes();
}

Snapshot decode_snapshot(std::span<const std::byte> frame) {
  wire::Decoder dec(frame);
  Snapshot s = decode_snapshot(dec);
  if (dec.remaining() != 0) {
    throw FormatError("trailing bytes after snapshot frame");
  }
  return s;
}

std::uint64_t Snapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double Snapshot::gauge(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

bool stall(const Snapshot& prev, const Snapshot& cur) {
  for (const auto& [name, value] : cur.counters) {
    // A kStats poll advances stats.* and, through the socket layer,
    // serve.bytes_*: counting those would let the poller mask a stall.
    if (name == counters::kTelemetrySamples || name.starts_with("stats.") ||
        name.starts_with("serve.bytes_")) {
      continue;
    }
    if (value != prev.counter(name)) return false;
  }
  return cur.gauge("trace.open_spans") > 0 ||
         cur.gauge("serve.queue.depth") > 0 ||
         cur.gauge("ingest.queue.depth") > 0;
}

double CounterAggregate::imbalance(int world_size) const {
  DASSA_CHECK(world_size > 0, "imbalance needs a positive world size");
  if (sum == 0) return 1.0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(world_size);
  return static_cast<double>(max) / mean;
}

ClusterTelemetry reduce_ranks(std::vector<Snapshot> ranks) {
  DASSA_CHECK(ranks.size() <= static_cast<std::size_t>(
                                  std::numeric_limits<int>::max()),
              "too many rank snapshots");
  ClusterTelemetry cluster;
  cluster.world_size = static_cast<int>(ranks.size());
  cluster.per_rank = std::move(ranks);
  for (const Snapshot& rank : cluster.per_rank) {
    for (const auto& [name, _] : rank.counters) cluster.counters[name];
    for (const auto& [name, h] : rank.hists) cluster.hists[name].merge(h);
  }
  for (auto& [name, agg] : cluster.counters) {
    for (int r = 0; r < cluster.world_size; ++r) {
      const std::uint64_t v =
          cluster.per_rank[static_cast<std::size_t>(r)].counter(name);
      DASSA_CHECK(agg.sum <= std::numeric_limits<std::uint64_t>::max() - v,
                  "counter '" + name + "' overflows its cluster sum");
      agg.sum += v;
      if (r == 0 || v < agg.min) {
        agg.min = v;
        agg.min_rank = r;
      }
      if (r == 0 || v > agg.max) {
        agg.max = v;
        agg.max_rank = r;
      }
    }
  }
  return cluster;
}

}  // namespace dassa
