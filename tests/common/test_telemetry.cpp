// Telemetry tests: deterministic sampling via tick(), the telemetry
// file round-trip through the strict reader and the reader's teeth,
// gauge registration, histogram merging, quantile interpolation, and
// the run report's stall detector.
#include "dassa/common/telemetry.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <span>
#include <sstream>
#include <thread>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/metrics.hpp"

namespace dassa::telemetry {
namespace {

// ---- deterministic sampling ------------------------------------------

TEST(TelemetrySampler, ManualTicksAreDeterministic) {
  global_counters().reset();
  TelemetrySampler sampler;
  for (int i = 0; i < 5; ++i) sampler.tick();

  const std::vector<Snapshot> timeline = sampler.timeline();
  ASSERT_EQ(timeline.size(), 5u);
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    // tick() charges the sample counter before snapshotting, so every
    // sample already includes itself.
    EXPECT_EQ(timeline[i].counter(counters::kTelemetrySamples), i + 1);
    if (i > 0) {
      EXPECT_GE(timeline[i].wall_ns, timeline[i - 1].wall_ns);
    }
  }
  EXPECT_EQ(sampler.evicted(), 0u);
}

TEST(TelemetrySampler, SamplesSeeCounterProgress) {
  global_counters().reset();
  TelemetrySampler sampler;
  sampler.tick();
  global_counters().add(counters::kIoReadBytes, 4096);
  sampler.tick();

  const std::vector<Snapshot> timeline = sampler.timeline();
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].counters.count(counters::kIoReadBytes), 0u);
  EXPECT_EQ(timeline[1].counters.at(counters::kIoReadBytes), 4096u);
}

TEST(TelemetrySampler, TimelineCapDropsExtraTicks) {
  global_counters().reset();
  SamplerConfig cfg;
  cfg.max_samples = 2;
  TelemetrySampler sampler(cfg);
  for (int i = 0; i < 5; ++i) sampler.tick();
  // The oldest ticks go; the newest two stay.
  const std::vector<Snapshot> timeline = sampler.timeline();
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].counter(counters::kTelemetrySamples), 4u);
  EXPECT_EQ(timeline[1].counter(counters::kTelemetrySamples), 5u);
  EXPECT_EQ(sampler.evicted(), 3u);
}

TEST(TelemetrySampler, FullTimelineStillEndsWithTheFinalSnapshot) {
  // A daemon outliving max_samples ticks once more at shutdown; the
  // exported file's final histograms must be that exact state.
  SamplerConfig cfg;
  cfg.max_samples = 3;
  TelemetrySampler sampler(cfg);
  LatencyHistogram& h = global_metrics().histogram("telemetry_test.final");
  for (std::uint64_t i = 0; i < 10; ++i) {
    h.record_ns(1000 * (i + 1));
    sampler.tick();
  }
  TelemetryFile file;
  file.timeline = sampler.timeline();
  const TelemetryFile back =
      decode_telemetry_file(encode_telemetry_file(file));  // still valid
  ASSERT_EQ(back.timeline.size(), 3u);
  EXPECT_EQ(final_histograms(back).at("telemetry_test.final"),
            global_metrics().snapshot().at("telemetry_test.final"));
  EXPECT_EQ(final_histograms(back).at("telemetry_test.final").count, 10u);
}

TEST(TelemetrySampler, RejectsNonPositivePeriod) {
  SamplerConfig cfg;
  cfg.period = std::chrono::milliseconds{0};
  EXPECT_THROW(TelemetrySampler{cfg}, Error);
}

TEST(TelemetrySampler, BackgroundThreadSamplesAndStops) {
  SamplerConfig cfg;
  cfg.period = std::chrono::milliseconds{1};
  TelemetrySampler sampler(cfg);
  EXPECT_FALSE(sampler.running());
  sampler.start();
  EXPECT_TRUE(sampler.running());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sampler.timeline().size() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.stop();
  EXPECT_FALSE(sampler.running());

  const std::vector<Snapshot> timeline = sampler.timeline();
  ASSERT_GE(timeline.size(), 3u);
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_EQ(timeline[i].counter(counters::kTelemetrySamples),
              timeline[i - 1].counter(counters::kTelemetrySamples) + 1);
  }
  // stop() is idempotent and the timeline is frozen afterwards.
  sampler.stop();
  EXPECT_EQ(sampler.timeline().size(), timeline.size());
}

TEST(TelemetrySampler, SamplesCarryExactHistograms) {
  global_metrics().histogram("telemetry_test.exact").record_ns(1 << 10);
  TelemetrySampler sampler;
  sampler.tick();
  const Snapshot s = sampler.timeline().back();
  const HistogramSnapshot& h = s.hists.at("telemetry_test.exact");
  EXPECT_GE(h.buckets[10], 1u);
  EXPECT_EQ(h, global_metrics().snapshot().at("telemetry_test.exact"));
}

// ---- gauges and resources --------------------------------------------

TEST(TelemetryGauges, BuiltinsAndRegistrationAndReplacement) {
  const std::map<std::string, double> before = read_gauges();
  EXPECT_TRUE(before.count("trace.open_spans"));
  EXPECT_TRUE(before.count("trace.dropped_spans"));
  EXPECT_TRUE(before.count("log.records"));

  register_gauge("telemetry_test.gauge", [] { return 41.0; });
  register_gauge("telemetry_test.gauge", [] { return 42.0; });  // replaces
  EXPECT_EQ(read_gauges().at("telemetry_test.gauge"), 42.0);

  EXPECT_THROW(register_gauge("", [] { return 0.0; }), Error);
  EXPECT_THROW(register_gauge("telemetry_test.null", GaugeFn{}), Error);
}

TEST(TelemetryResources, ReportsProcessUsage) {
  const ResourceUsage res = sample_resources();
#if defined(__linux__)
  EXPECT_GT(res.rss_bytes, 0u);
  EXPECT_GT(res.peak_rss_bytes, 0u);
  EXPECT_GE(res.peak_rss_bytes, res.rss_bytes / 2);  // same order
#endif
}

// ---- metrics: merge + quantile interpolation -------------------------

TEST(TelemetryMetrics, QuantileInterpolatesWithinBucket) {
  LatencyHistogram h;
  // 100 samples, all landing in bucket 4 ([16, 32) ns).
  for (int i = 0; i < 100; ++i) h.record_ns(20);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.quantile_ns(0.5), 24.0);   // 16 + 16 * 0.5
  EXPECT_DOUBLE_EQ(s.quantile_ns(0.25), 20.0);  // 16 + 16 * 0.25
  EXPECT_DOUBLE_EQ(s.quantile_ns(1.0), 32.0);   // bucket upper bound
  EXPECT_EQ(HistogramSnapshot{}.quantile_ns(0.5), 0.0);
  EXPECT_THROW((void)s.quantile_ns(1.5), Error);
}

TEST(TelemetryMetrics, SnapshotMergeIsExact) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.record_ns(2);    // bucket 1
  a.record_ns(100);  // bucket 6
  b.record_ns(2);
  b.record_ns(1 << 20);

  HistogramSnapshot sa = a.snapshot();
  sa.merge(b.snapshot());
  EXPECT_EQ(sa.count, 4u);
  EXPECT_EQ(sa.total_ns, 2u + 100u + 2u + (1u << 20));
  EXPECT_EQ(sa.buckets[1], 2u);

  // Live merge back into a histogram (the cross-rank path).
  LatencyHistogram c;
  c.merge(sa);
  EXPECT_EQ(c.count(), 4u);
  EXPECT_EQ(c.snapshot().buckets[1], 2u);
}

TEST(TelemetryMetrics, RegistryMergeAndReset) {
  MetricsRegistry reg;
  reg.histogram("a").record_ns(10);

  MetricsRegistry other;
  other.histogram("a").record_ns(10);
  other.histogram("b").record_ns(1000);

  reg.merge(other.snapshot());
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("a").count, 2u);
  EXPECT_EQ(snap.at("b").count, 1u);

  reg.reset();
  snap = reg.snapshot();
  EXPECT_EQ(snap.at("a").count, 0u);  // names retained, counts zeroed
  EXPECT_EQ(snap.at("b").count, 0u);
}

// ---- telemetry file round trip ----------------------------------------

TelemetryFile make_file() {
  TelemetryFile file;
  file.meta["tool"] = "test";
  file.meta["pipeline"] = "similarity";

  for (std::uint64_t i = 0; i < 3; ++i) {
    Snapshot s;
    s.wall_ns = 1000 * (i + 1);
    s.res.rss_bytes = 1 << 20;
    s.res.peak_rss_bytes = 2 << 20;
    s.res.user_cpu_ns = 5000 * (i + 1);
    s.res.sys_cpu_ns = 100 * (i + 1);
    s.counters["io.read_bytes"] = 4096 * (i + 1);
    s.counters["telemetry.samples"] = i + 1;
    s.gauges["trace.open_spans"] = 0.0;
    s.gauges["io.pool.queue_depth"] = static_cast<double>(i);
    file.timeline.push_back(std::move(s));
  }

  // Two ranks: stage clocks, an imbalanced counter, and a histogram.
  for (std::uint64_t r = 0; r < 2; ++r) {
    Snapshot rank;
    rank.counters["haee.rows_owned"] = 100 + 200 * r;
    rank.counters["haee.read_bytes"] = 4'000'000 * (r + 1);
    rank.counters["haee.stage.read_ns"] = 500'000'000;
    rank.counters["haee.stage.compute_ns"] = 1'000'000'000 + 500'000'000 * r;
    HistogramSnapshot h;
    h.buckets[3] = 2 + r;
    h.buckets[10] = 1 + r;
    h.count = h.buckets[3] + h.buckets[10];
    h.total_ns = 1000 * (r + 1);
    rank.hists["haee.stage_ns"] = h;
    file.ranks.push_back(std::move(rank));
  }
  return file;
}

/// Encode, then decode through the strict reader.
TelemetryFile round_trip(const TelemetryFile& file) {
  return decode_telemetry_file(encode_telemetry_file(file));
}

TEST(TelemetryFile, RoundTripPreservesEveryRecord) {
  const TelemetryFile file = make_file();
  EXPECT_EQ(round_trip(file), file);

  // Through the file system too, as the tools use it.
  const std::string path =
      ::testing::TempDir() + "/telemetry_round_trip.tlm";
  write_telemetry_file(path, file);
  EXPECT_EQ(read_telemetry_file(path), file);
  EXPECT_THROW((void)read_telemetry_file(path + ".absent"), IoError);
}

TEST(TelemetryFile, DerivesAggregatesAndMergedHistograms) {
  const ClusterTelemetry cluster = reduce_ranks(make_file().ranks);
  ASSERT_EQ(cluster.world_size, 2);
  const CounterAggregate& rows = cluster.counters.at("haee.rows_owned");
  EXPECT_EQ(rows.sum, 400u);
  EXPECT_EQ(rows.min, 100u);
  EXPECT_EQ(rows.min_rank, 0);
  EXPECT_EQ(rows.max, 300u);
  EXPECT_EQ(rows.max_rank, 1);
  EXPECT_DOUBLE_EQ(rows.imbalance(cluster.world_size), 1.5);

  const HistogramSnapshot& merged = cluster.hists.at("haee.stage_ns");
  EXPECT_EQ(merged.count, 8u);  // 3 + 5: the bucket sum
  EXPECT_EQ(merged.buckets[3], 5u);
  EXPECT_EQ(merged.buckets[10], 3u);
  EXPECT_EQ(final_histograms(make_file()).at("haee.stage_ns"), merged);
}

TEST(TelemetryFile, ParserRejectsGarbage) {
  const auto decode = [](const std::string& text) {
    return decode_telemetry_file(std::as_bytes(std::span(text)));
  };
  EXPECT_THROW((void)decode(""), FormatError);
  EXPECT_THROW((void)decode("not a telemetry file"), FormatError);
  // A line of the replaced JSONL format is not read.
  EXPECT_THROW((void)decode("{\"type\":\"meta\",\"schema\":"
                            "\"dassa.telemetry.v1\"}\n"),
               FormatError);
}

// ---- reader teeth ----------------------------------------------------

TEST(TelemetryValidate, RejectsMissingOrWrongSchema) {
  std::vector<std::byte> bytes = encode_telemetry_file(TelemetryFile{});
  EXPECT_EQ(decode_telemetry_file(bytes), TelemetryFile{});  // minimal
  bytes[7] = std::byte{1};  // the format version byte of the magic
  EXPECT_THROW((void)decode_telemetry_file(bytes), FormatError);
}

TEST(TelemetryValidate, RejectsSeqGapAndTimeTravel) {
  TelemetryFile file = make_file();
  file.timeline[2].counters["telemetry.samples"] = 7;  // 2 -> 7: a gap
  EXPECT_THROW((void)round_trip(file), FormatError);

  file = make_file();
  file.timeline[2].wall_ns = 1;  // earlier than sample 1
  EXPECT_THROW((void)round_trip(file), FormatError);
}

TEST(TelemetryValidate, RejectsDecreasingCounter) {
  TelemetryFile file = make_file();
  file.timeline[2].counters["io.read_bytes"] = 1;  // below sample 1
  EXPECT_THROW((void)round_trip(file), FormatError);
}

TEST(TelemetryValidate, RejectsTruncationAndFlippedBytes) {
  const std::vector<std::byte> bytes = encode_telemetry_file(make_file());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(
        (void)decode_telemetry_file(std::span(bytes).first(len)),
        FormatError)
        << "len=" << len;
  }
  std::vector<std::byte> padded = bytes;
  padded.push_back(std::byte{0});
  EXPECT_THROW((void)decode_telemetry_file(padded), FormatError);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<std::byte> flipped = bytes;
    flipped[i] ^= std::byte{0x5a};
    EXPECT_THROW((void)decode_telemetry_file(flipped), FormatError)
        << "byte " << i;
  }
}

// ---- health report ---------------------------------------------------

TEST(TelemetryHealth, ReportCoversStagesRanksAndLatency) {
  std::ostringstream os;
  write_health_report(os, make_file());
  const std::string report = os.str();
  EXPECT_NE(report.find("dassa pipeline health"), std::string::npos);
  EXPECT_NE(report.find("stages:"), std::string::npos);
  // Stage seconds are the slowest rank's: compute took 1.5 s on rank 1.
  EXPECT_NE(report.find("compute        1.500"), std::string::npos) << report;
  // read: 12 MB and 400 rows over the slowest rank's 0.5 s.
  EXPECT_NE(report.find("read           0.500   25.0%      24.0         800.0"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("rank balance (2 ranks)"), std::string::npos);
  EXPECT_NE(report.find("haee.rows_owned"), std::string::npos);
  EXPECT_NE(report.find("latency (cluster-merged)"), std::string::npos);
  EXPECT_NE(report.find("no stalls detected"), std::string::npos);
  EXPECT_EQ(report.find("WARNING: stall"), std::string::npos);
}

TEST(TelemetryHealth, FlagsIntervalWithOpenSpansButNoProgress) {
  TelemetryFile file = make_file();
  // Sample 1 -> 2: counters frozen (except the sampler's own), spans
  // open. That is the definition of a stall.
  file.timeline[2].counters = file.timeline[1].counters;
  file.timeline[2].counters["telemetry.samples"] =
      file.timeline[1].counters.at("telemetry.samples") + 1;
  file.timeline[2].gauges["trace.open_spans"] = 2.0;
  EXPECT_TRUE(stall(file.timeline[1], file.timeline[2]));
  EXPECT_FALSE(stall(file.timeline[0], file.timeline[1]));

  std::ostringstream os;
  write_health_report(os, round_trip(file));  // still a valid file
  EXPECT_NE(os.str().find("WARNING: stall"), std::string::npos);
  EXPECT_NE(os.str().find("1 stall(s) across 2 sample intervals"),
            std::string::npos);
}

TEST(TelemetryHealth, QueuedWorkWithoutProgressIsAStall) {
  Snapshot prev;
  prev.counters["serve.responses"] = 5;
  prev.counters["stats.requests"] = 1;
  prev.counters["serve.bytes_sent"] = 300;
  Snapshot cur = prev;
  cur.counters["stats.requests"] = 2;  // the poller's own traffic:
  cur.counters["serve.bytes_sent"] = 600;  // its reply frame counts too
  cur.gauges["serve.queue.depth"] = 3.0;
  EXPECT_TRUE(stall(prev, cur));
  cur.counters["serve.responses"] = 6;
  EXPECT_FALSE(stall(prev, cur));
  cur = prev;  // nothing in flight: idle, not stalled
  EXPECT_FALSE(stall(prev, cur));
}

}  // namespace
}  // namespace dassa::telemetry
