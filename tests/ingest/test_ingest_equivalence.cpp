// The streaming contract (docs/INGEST.md): the sliding-window driver's
// assembled similarity map is byte-identical to one offline pass over
// the same files -- at world size 1 and at world size 4, across window
// geometries, including windows that end mid-stream at drain time --
// and through the daemon's whole in-process pipeline (spool watcher,
// an undersized admission queue, driver) with no file lost.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "dassa/common/counters.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/common/telemetry.hpp"
#include "dassa/core/haee.hpp"
#include "dassa/das/local_similarity.hpp"
#include "dassa/das/synth.hpp"
#include "dassa/ingest/driver.hpp"
#include "dassa/ingest/queue.hpp"
#include "dassa/ingest/spool.hpp"
#include "dassa/io/vca.hpp"
#include "testing/tmpdir.hpp"

namespace dassa::ingest {
namespace {

std::vector<std::string> make_acquisition(
    const testing::TmpDir& dir, std::size_t files, double seconds_per_file,
    io::DType dtype = io::DType::kF32) {
  das::SynthDas synth = das::SynthDas::fig1b_scene(/*channels=*/12,
                                                   /*sampling_hz=*/50.0,
                                                   /*seed=*/20260809);
  das::AcquisitionSpec spec;
  spec.dir = dir.str();
  spec.file_count = files;
  spec.seconds_per_file = seconds_per_file;
  spec.dtype = dtype;
  return das::write_acquisition(synth, spec);
}

core::Array2D offline_similarity(const std::vector<std::string>& files,
                                 const das::LocalSimilarityParams& p,
                                 const core::EngineConfig& engine) {
  const io::Vca vca = io::Vca::build(files);
  return das::local_similarity_distributed(engine, vca, p).output;
}

core::Array2D streamed_similarity(const std::vector<std::string>& files,
                                  IngestConfig cfg,
                                  std::size_t* windows_out = nullptr) {
  IngestDriver driver(cfg);
  for (const std::string& f : files) driver.add_file(SpoolFile{f, 1});
  IngestResult r = driver.finish();
  if (windows_out != nullptr) *windows_out = r.windows;
  return std::move(r.similarity);
}

das::LocalSimilarityParams small_params() {
  das::LocalSimilarityParams p;
  p.window_half = 10;
  p.lag_half = 5;
  return p;
}

TEST(IngestEquivalenceTest, StreamedMatchesBatchWorldSize1) {
  testing::TmpDir dir("equiv_w1");
  const auto files = make_acquisition(dir, 5, 2.0);  // 5 x 100 cols

  IngestConfig cfg;
  cfg.window_files = 3;
  cfg.overlap_files = 1;
  cfg.similarity = small_params();
  cfg.detect = false;
  cfg.engine.nodes = 1;
  cfg.engine.cores_per_node = 1;

  std::size_t windows = 0;
  const core::Array2D streamed = streamed_similarity(files, cfg, &windows);
  EXPECT_GE(windows, 2u) << "geometry did not exercise multiple windows";
  const core::Array2D offline =
      offline_similarity(files, cfg.similarity, cfg.engine);
  EXPECT_EQ(streamed, offline);  // bitwise: Array2D compares data exactly
}

TEST(IngestEquivalenceTest, StreamedMatchesBatchWorldSize4) {
  testing::TmpDir dir("equiv_w4");
  const auto files = make_acquisition(dir, 6, 2.0);

  IngestConfig cfg;
  cfg.window_files = 4;
  cfg.overlap_files = 2;
  cfg.similarity = small_params();
  cfg.detect = false;
  cfg.engine.nodes = 4;
  cfg.engine.cores_per_node = 2;

  std::size_t windows = 0;
  const core::Array2D streamed = streamed_similarity(files, cfg, &windows);
  EXPECT_GE(windows, 2u);
  const core::Array2D offline =
      offline_similarity(files, cfg.similarity, cfg.engine);
  EXPECT_EQ(streamed, offline);
}

TEST(IngestEquivalenceTest, DrainMidWindowStillMatchesBatch) {
  testing::TmpDir dir("equiv_drain");
  // 4 files with a 3-file window: the last file only ever appears in
  // the drain-time final window.
  const auto files = make_acquisition(dir, 4, 2.0);

  IngestConfig cfg;
  cfg.window_files = 3;
  cfg.overlap_files = 1;
  cfg.similarity = small_params();
  cfg.detect = false;
  cfg.engine.nodes = 2;
  cfg.engine.cores_per_node = 1;

  const core::Array2D streamed = streamed_similarity(files, cfg);
  const core::Array2D offline =
      offline_similarity(files, cfg.similarity, cfg.engine);
  EXPECT_EQ(streamed, offline);
}

TEST(IngestEquivalenceTest, EmitNearUnalignedWindowStartMatchesBatch) {
  testing::TmpDir dir("equiv_origin");
  // 4 x 35 columns of f64 samples (f32 ones make most running sums
  // exact and would hide rounding differences), a 3-file window and a
  // 1-file overlap. The drain window starts at column 35 or 70, neither
  // a multiple of the kernel's restart block (2M+1 = 21), and emits from
  // the carry onward. Had the planner used the neighbourhood alone
  // (M+L = 15) as the margin, that window would start at column 70 and
  // emit from column 90, before the running sums' first aligned restart
  // inside it (column 105), so its cells would not match offline.
  const auto files = make_acquisition(dir, 4, 0.7, io::DType::kF64);

  IngestConfig cfg;
  cfg.window_files = 3;
  cfg.overlap_files = 1;
  cfg.similarity = small_params();
  cfg.detect = false;
  cfg.engine.nodes = 2;
  cfg.engine.cores_per_node = 1;

  std::size_t windows = 0;
  const core::Array2D streamed = streamed_similarity(files, cfg, &windows);
  EXPECT_EQ(windows, 2u);
  const core::Array2D offline =
      offline_similarity(files, cfg.similarity, cfg.engine);
  EXPECT_EQ(streamed, offline);
}

TEST(IngestEquivalenceTest, EventsMatchBatchDetection) {
  testing::TmpDir dir("equiv_events");
  const auto files = make_acquisition(dir, 5, 2.0);

  IngestConfig cfg;
  cfg.window_files = 3;
  cfg.overlap_files = 1;
  cfg.similarity = small_params();
  cfg.detect = true;
  cfg.engine.nodes = 1;
  cfg.engine.cores_per_node = 2;

  IngestDriver driver(cfg);
  for (const std::string& f : files) driver.add_file(SpoolFile{f, 1});
  const IngestResult r = driver.finish();

  const core::Array2D offline =
      offline_similarity(files, cfg.similarity, cfg.engine);
  const auto batch_events = das::detect_events(offline, cfg.detector);
  ASSERT_EQ(r.events.size(), batch_events.size());
  for (std::size_t i = 0; i < r.events.size(); ++i) {
    EXPECT_EQ(r.events[i].type, batch_events[i].type);
    EXPECT_EQ(r.events[i].channel_lo, batch_events[i].channel_lo);
    EXPECT_EQ(r.events[i].channel_hi, batch_events[i].channel_hi);
    EXPECT_EQ(r.events[i].time_lo, batch_events[i].time_lo);
    EXPECT_EQ(r.events[i].time_hi, batch_events[i].time_hi);
    EXPECT_EQ(r.events[i].peak_similarity, batch_events[i].peak_similarity);
  }
}

TEST(IngestEquivalenceTest, RecordsPerFileLatency) {
  testing::TmpDir dir("equiv_latency");
  const auto files = make_acquisition(dir, 4, 2.0);

  IngestConfig cfg;
  cfg.window_files = 2;
  cfg.overlap_files = 1;
  cfg.similarity = small_params();
  cfg.detect = false;
  cfg.engine.nodes = 1;
  cfg.engine.cores_per_node = 1;

  const std::uint64_t before =
      global_metrics().histogram("ingest.file_to_detection").snapshot().count;
  const core::Array2D streamed = streamed_similarity(files, cfg);
  EXPECT_GT(streamed.shape.size(), 0u);
  const auto after =
      global_metrics().histogram("ingest.file_to_detection").snapshot();
  // Every file's ingest-to-detection latency was recorded exactly once.
  EXPECT_EQ(after.count - before, files.size());
}

TEST(IngestEquivalenceTest, LiveVcaIndexRepublishesAtomically) {
  testing::TmpDir dir("equiv_index");
  const auto files = make_acquisition(dir, 3, 2.0);
  const std::string index = dir.file("live.vca");

  IngestConfig cfg;
  cfg.window_files = 2;
  cfg.overlap_files = 1;
  cfg.similarity = small_params();
  cfg.detect = false;
  cfg.engine.nodes = 1;
  cfg.engine.cores_per_node = 1;
  cfg.vca_index_path = index;

  IngestDriver driver(cfg);
  std::size_t n = 0;
  for (const std::string& f : files) {
    driver.add_file(SpoolFile{f, 1});
    ++n;
    // After every append the on-disk index is a loadable, complete
    // snapshot of everything ingested so far.
    const io::Vca loaded = io::Vca::load(index);
    EXPECT_EQ(loaded.members().size(), n);
    EXPECT_EQ(loaded.shape(), driver.live_vca().snapshot()->shape());
  }
  (void)driver.finish();
}

TEST(IngestEquivalenceTest, UndersizedQueuePipelineMatchesOfflineWithoutLoss) {
  // das_ingest --once in-process: the SpoolWatcher producer thread, a
  // BoundedQueue of capacity 2 and the IngestDriver consumer, with the
  // telemetry sampler running every 10 ms. Counters are compared as
  // deltas so the test holds when the whole binary runs as one process.
  testing::TmpDir dir("equiv_pipeline");
  constexpr std::size_t kFiles = 8;
  constexpr std::size_t kCapacity = 2;
  const auto files = make_acquisition(dir, kFiles, 4.0);  // 8 x 200 cols

  IngestConfig cfg;
  cfg.window_files = 3;
  cfg.overlap_files = 1;
  cfg.similarity = small_params();
  cfg.detect = true;
  cfg.engine.nodes = 2;
  cfg.engine.cores_per_node = 2;
  // Before the watcher runs: it moves any file it quarantines.
  const core::Array2D offline =
      offline_similarity(files, cfg.similarity, cfg.engine);

  const auto counter = [](const char* name) {
    return global_counters().get(name);
  };
  const std::uint64_t pushed0 = counter(counters::kIngestQueuePushed);
  const std::uint64_t popped0 = counter(counters::kIngestQueuePopped);
  const std::uint64_t blocked0 = counter(counters::kIngestQueuePushBlocked);
  const std::uint64_t quarantined0 =
      counter(counters::kIngestFilesQuarantined);
  ASSERT_LE(counter(counters::kIngestQueuePeakDepth), kCapacity);
  const HistogramSnapshot latency0 =
      global_metrics().histogram("ingest.file_to_detection").snapshot();

  telemetry::SamplerConfig sampler_config;
  sampler_config.period = std::chrono::milliseconds(10);
  telemetry::TelemetrySampler sampler(sampler_config);
  BoundedQueue<SpoolFile> queue(kCapacity);
  telemetry::register_gauge("ingest.queue.depth", [&queue] {
    return static_cast<double>(queue.depth());
  });
  SpoolWatcher watcher(SpoolConfig{dir.str()});
  IngestDriver driver(cfg);

  sampler.start();
  std::thread producer([&] {
    while (true) {
      const auto admitted = watcher.poll();
      for (auto f : admitted) {
        if (!queue.push(std::move(f))) return;
      }
      if (admitted.empty() && watcher.pending() == 0) break;
    }
    queue.close();
  });
  // The second poll admits all 8 files at once, so the producer's third
  // push finds the queue full. push() charges push_blocked before it
  // waits: holding the first pop until that charge lands makes the
  // backpressure deterministic. The deadline only keeps a queue that
  // never blocks from hanging the test.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counter(counters::kIngestQueuePushBlocked) == blocked0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  while (auto f = queue.pop()) driver.add_file(*f);
  producer.join();
  const IngestResult result = driver.finish();
  sampler.stop();
  sampler.tick();
  // The gauge registry is global: neutralise it before `queue` dies.
  telemetry::register_gauge("ingest.queue.depth", [] { return 0.0; });

  // The latency distribution as an operator reads it: off the telemetry
  // file, through the strict reader.
  const std::string telemetry_path = dir.file("ingest.tlm");
  telemetry::TelemetryFile file;
  file.timeline = sampler.timeline();
  telemetry::write_telemetry_file(telemetry_path, file);
  const auto hists = telemetry::final_histograms(
      telemetry::read_telemetry_file(telemetry_path));
  const auto it = hists.find("ingest.file_to_detection");
  ASSERT_NE(it, hists.end());
  const HistogramSnapshot latency = it->second.diff(latency0);

  EXPECT_EQ(result.similarity, offline);
  EXPECT_EQ(counter(counters::kIngestQueuePushed) - pushed0, kFiles);
  EXPECT_EQ(counter(counters::kIngestQueuePopped) - popped0, kFiles);
  EXPECT_EQ(counter(counters::kIngestFilesQuarantined) - quarantined0, 0u);
  EXPECT_LE(counter(counters::kIngestQueuePeakDepth), kCapacity);
  EXPECT_GE(counter(counters::kIngestQueuePushBlocked) - blocked0, 1u);
  EXPECT_EQ(latency.count, kFiles);
  EXPECT_LE(latency.quantile_ns(0.50), 1.0e9);
  EXPECT_LE(latency.quantile_ns(0.99), 2.0e9);
}

}  // namespace
}  // namespace dassa::ingest
