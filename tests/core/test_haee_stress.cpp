// Concurrency stress tests for ThreadPool + HAEE row-partitioned
// Apply, written to be run under -fsanitize=thread (scripts/check.sh
// tsan preset) but cheap enough to stay in the plain tier-1 suite.
//
// The interesting shared state is (a) the FFT plan cache -- a
// read-mostly std::shared_mutex map hit by every ApplyMT thread of
// every MiniMPI rank-thread at once, with misses racing to insert --
// and (b) the global counter registry, which the engine's haee.*
// counters and the dsp cache statistics update concurrently. PR 1's
// TSan coverage exercised the FFT engine alone; these tests drive the
// same state through the full engine stack.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "dassa/common/counters.hpp"
#include "dassa/common/thread_pool.hpp"
#include "dassa/core/haee.hpp"
#include "dassa/das/synth.hpp"
#include "dassa/dsp/fft.hpp"
#include "testing/tmpdir.hpp"

namespace dassa::core {
namespace {

using testing::TmpDir;

struct Fixture {
  io::Vca vca;
  Array2D truth;

  explicit Fixture(TmpDir& dir, std::size_t channels, std::size_t files,
                   double secs_per_file) {
    das::SynthDas synth = das::SynthDas::fig1b_scene(channels, 100.0, 7);
    das::AcquisitionSpec spec;
    spec.dir = dir.str();
    spec.start = das::Timestamp::parse("170728224510");
    spec.file_count = files;
    spec.seconds_per_file = secs_per_file;
    spec.dtype = io::DType::kF64;
    spec.per_channel_metadata = false;
    const std::vector<std::string> paths = das::write_acquisition(synth, spec);
    vca = io::Vca::build(paths);
    truth = Array2D(vca.shape(), vca.read_all());
  }
};

/// Row UDF that leans on the FFT plan cache: a full-row transform (one
/// shared plan, all threads hit it) plus a channel-dependent prefix
/// transform (several sizes, so cold-start insertions race under the
/// cache's exclusive lock). Returns a short spectral fingerprint.
RowUdf fft_row_udf() {
  return [](const Stencil& s) {
    const std::span<const double> row = s.row_span(0);
    const std::vector<dsp::cplx> full = dsp::rfft_half(row);
    // 4 distinct prefix lengths spread across channels (kept >= 8 so
    // Bluestein vs radix-2 both appear).
    const std::size_t prefix = row.size() / 2 + (s.channel() % 4);
    const std::vector<dsp::cplx> part =
        dsp::rfft_half(row.subspan(0, prefix));
    return std::vector<double>{std::abs(full[0]), std::abs(full[1]),
                               std::abs(part[0]), std::abs(part[1])};
  };
}

TEST(HaeeStressTest, ConcurrentRowApplySharesPlanCacheSafely) {
  TmpDir dir("haee_stress");
  Fixture fx(dir, 32, 2, 0.4);

  // Reference: serial, single rank.
  const Array2D ref =
      apply_rows(LocalBlock::whole(fx.truth), fft_row_udf(), 1);

  global_counters().reset();
  EngineConfig config;
  config.nodes = 4;
  config.cores_per_node = 4;  // 4 rank-threads x 4 pool threads
  config.mode = EngineMode::kHybrid;
  const EngineReport report = run_rows(
      config, fx.vca, [](const RankContext&) { return fft_row_udf(); });

  ASSERT_EQ(report.output.shape, ref.shape);
  for (std::size_t i = 0; i < ref.data.size(); ++i) {
    ASSERT_DOUBLE_EQ(report.output.data[i], ref.data[i]) << "i=" << i;
  }
  // The engine's own counters were bumped from inside the run.
  EXPECT_EQ(global_counters().get(counters::kHaeeRuns), 1u);
  EXPECT_EQ(global_counters().get(counters::kHaeeRanksLaunched), 4u);
}

TEST(HaeeStressTest, RepeatedHybridRunsWithHaloTraffic) {
  // Back-to-back engine runs with halo exchange: rank threads send and
  // receive ghost rows while pool threads transform; the haee.* halo
  // counter is updated from every rank concurrently.
  TmpDir dir("haee_stress");
  Fixture fx(dir, 24, 2, 0.3);
  global_counters().reset();

  EngineConfig config;
  config.nodes = 3;
  config.cores_per_node = 2;
  config.mode = EngineMode::kHybrid;
  config.halo_channels = 1;

  Array2D first;
  for (int round = 0; round < 3; ++round) {
    const EngineReport report = run_rows(
        config, fx.vca, [](const RankContext&) { return fft_row_udf(); });
    if (round == 0) {
      first = report.output;
    } else {
      ASSERT_EQ(report.output, first) << "round " << round;
    }
  }
  EXPECT_EQ(global_counters().get(counters::kHaeeRuns), 3u);
  // 3 ranks, interior rank exchanges both ways: 4 per run.
  EXPECT_EQ(global_counters().get(counters::kHaeeHaloExchanges), 12u);
}

TEST(HaeeStressTest, ThreadPoolHammersPlanCacheAndCounters) {
  // Pure ThreadPool stress, no engine: every pool thread transforms a
  // rotating set of lengths (shared-lock hits + racing insertions) and
  // bumps the same counter. Any lost update or data race shows up as a
  // wrong count / TSan report.
  ThreadPool pool(8);
  constexpr std::size_t kTasks = 256;
  std::atomic<std::size_t> ok{0};
  global_counters().reset();

  pool.parallel_for(kTasks, [&](std::size_t, std::size_t begin,
                                std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t n = 64 + (i % 7) * 13;  // 7 lengths, mixed radix
      std::vector<double> x(n);
      for (std::size_t j = 0; j < n; ++j) {
        x[j] = static_cast<double>((i + j) % 17) - 8.0;
      }
      const std::vector<dsp::cplx> spec = dsp::rfft_half(x);
      if (spec.size() == n / 2 + 1) ok.fetch_add(1);
      global_counters().add(counters::kHaeeRanksLaunched);
    }
  });
  pool.wait_idle();
  EXPECT_EQ(ok.load(), kTasks);
  EXPECT_EQ(global_counters().get(counters::kHaeeRanksLaunched), kTasks);
}

}  // namespace
}  // namespace dassa::core
