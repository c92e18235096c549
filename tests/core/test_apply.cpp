// Apply operator tests: apply_cells and apply_rows must give the same
// output at every thread count as at one thread (the inline serial
// reference), on cell and row UDFs, including blocks with ghost rows;
// and the operators' progress charges keep the telemetry stall rule
// quiet on a healthy run while it still flags a wedged UDF.
#include "dassa/core/apply.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <latch>
#include <random>
#include <thread>

#include "dassa/common/counters.hpp"
#include "dassa/common/telemetry.hpp"
#include "dassa/common/trace.hpp"

namespace dassa::core {
namespace {

Array2D random_array(Shape2D shape, std::uint64_t seed = 3) {
  Array2D a(shape);
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist;
  for (auto& v : a.data) v = dist(rng);
  return a;
}

/// Three-point moving average in time with edge clamping -- the paper's
/// introductory Stencil example, made edge-safe.
double moving_avg_udf(const Stencil& s) {
  const double left = s.in_bounds(-1, 0) ? s(-1, 0) : s(0, 0);
  const double right = s.in_bounds(1, 0) ? s(1, 0) : s(0, 0);
  return (left + s(0, 0) + right) / 3.0;
}

/// Moving average plus both channel neighbours, which a ghost block
/// supplies from its halo rows.
double cross_udf(const Stencil& s) {
  return moving_avg_udf(s) + s(0, -1) - 0.5 * s(0, 1);
}

/// Per-channel [sum, sum of the channel above]; the row above owned
/// row 0 is a halo row in a ghost block.
std::vector<double> row_sums_udf(const Stencil& s) {
  double own = 0.0;
  double above = 0.0;
  for (double v : s.row_span(0)) own += v;
  for (double v : s.row_span(-1)) above += v;
  return {own, above};
}

/// `owned` rows with one halo row on each side, cut from a random
/// array; the block starts at global row 4 of a taller array.
LocalBlock ghost_block(std::size_t owned, std::size_t cols) {
  const Array2D a = random_array({owned + 2, cols}, 11);
  return LocalBlock{a.data, a.shape, 4, Range{1, owned + 1},
                    Shape2D{owned + 20, cols}};
}

TEST(ApplySerialTest, MovingAverageMatchesNaive) {
  const Array2D a = random_array({4, 16});
  const Array2D out =
      apply_cells(LocalBlock::whole(a), moving_avg_udf, 1);
  ASSERT_EQ(out.shape, a.shape);
  for (std::size_t r = 0; r < a.shape.rows; ++r) {
    for (std::size_t c = 0; c < a.shape.cols; ++c) {
      const double left = c > 0 ? a.at(r, c - 1) : a.at(r, c);
      const double right = c + 1 < a.shape.cols ? a.at(r, c + 1) : a.at(r, c);
      EXPECT_NEAR(out.at(r, c), (left + a.at(r, c) + right) / 3.0, 1e-12);
    }
  }
}

class ApplyBackendTest : public ::testing::TestWithParam<int> {};

TEST_P(ApplyBackendTest, AllBackendsMatchSerial) {
  const int threads = GetParam();
  const Array2D a = random_array({7, 33});
  const LocalBlock block = LocalBlock::whole(a);
  const Array2D ref = apply_cells(block, moving_avg_udf, 1);
  EXPECT_EQ(apply_cells(block, moving_avg_udf, threads), ref);

  // Ghost rows: 7 owned channels whose neighbours include the halo.
  const LocalBlock ghosts = ghost_block(7, 33);
  EXPECT_EQ(apply_cells(ghosts, cross_udf, threads),
            apply_cells(ghosts, cross_udf, 1));
  const Array2D rows_ref = apply_rows(ghosts, row_sums_udf, 1);
  ASSERT_EQ(rows_ref.shape, (Shape2D{7, 2}));
  EXPECT_EQ(apply_rows(ghosts, row_sums_udf, threads), rows_ref);

  // Up to 8 threads over 3 rows: some threads get no row at all.
  const LocalBlock three = ghost_block(3, 5);
  EXPECT_EQ(apply_rows(three, row_sums_udf, threads),
            apply_rows(three, row_sums_udf, 1));
  EXPECT_EQ(apply_cells(three, cross_udf, threads),
            apply_cells(three, cross_udf, 1));
}

INSTANTIATE_TEST_SUITE_P(Threads, ApplyBackendTest,
                         ::testing::Values(1, 2, 3, 8));

TEST(ApplyMtTest, ResultOrderIsDeterministic) {
  // The prefix merge must place every thread's chunk at the right
  // offset regardless of completion order: value = linear cell index.
  const Shape2D shape{5, 101};
  Array2D a(shape);
  const LocalBlock block = LocalBlock::whole(a);
  const ScalarUdf idx_udf = [&shape](const Stencil& s) {
    return static_cast<double>(s.channel() * shape.cols + s.time());
  };
  for (int rep = 0; rep < 5; ++rep) {
    const Array2D out = apply_cells(block, idx_udf, 4);
    for (std::size_t i = 0; i < out.data.size(); ++i) {
      ASSERT_EQ(out.data[i], static_cast<double>(i));
    }
  }
}

TEST(ApplyTest, GhostRowsVisibleButNotIterated) {
  // 2 owned rows + 1 halo on each side; the UDF sums the channel
  // neighbours, which must read halo values, and the output has only
  // the owned rows.
  const Shape2D block_shape{4, 3};
  LocalBlock block;
  block.block_shape = block_shape;
  block.data.resize(block_shape.size());
  for (std::size_t i = 0; i < block.data.size(); ++i) {
    block.data[i] = static_cast<double>(i);
  }
  block.global_row0 = 9;              // halo row 0 is global row 9
  block.owned_local = Range{1, 3};    // owned global rows 10..11
  block.global_shape = {100, 3};

  const ScalarUdf udf = [](const Stencil& s) { return s(0, -1) + s(0, 1); };
  const Array2D out = apply_cells(block, udf, 1);
  ASSERT_EQ(out.shape, (Shape2D{2, 3}));
  // Owned row 0 (local 1): up = local 0, down = local 2.
  EXPECT_EQ(out.at(0, 0), block.data[0] + block.data[6]);
  EXPECT_EQ(out.at(1, 2), block.data[5] + block.data[11]);
}

TEST(ApplyRowsTest, RowUdfRunsOncePerOwnedChannel) {
  const Array2D a = random_array({6, 20});
  const LocalBlock block = LocalBlock::whole(a);
  // Output: [mean, max] per channel.
  const RowUdf udf = [](const Stencil& s) -> std::vector<double> {
    const std::span<const double> row = s.row_span(0);
    double mean = 0.0;
    double mx = -1e300;
    for (double v : row) {
      mean += v;
      mx = std::max(mx, v);
    }
    return {mean / static_cast<double>(row.size()), mx};
  };
  const Array2D out = apply_rows(block, udf, 1);
  ASSERT_EQ(out.shape, (Shape2D{6, 2}));
  for (std::size_t r = 0; r < 6; ++r) {
    double mean = 0.0;
    double mx = -1e300;
    for (double v : a.row(r)) {
      mean += v;
      mx = std::max(mx, v);
    }
    EXPECT_NEAR(out.at(r, 0), mean / 20.0, 1e-12);
    EXPECT_EQ(out.at(r, 1), mx);
  }
}

TEST(ApplyRowsTest, BackendsMatchAndLengthsEnforced) {
  const Array2D a = random_array({9, 17});
  const LocalBlock block = LocalBlock::whole(a);
  const RowUdf udf = [](const Stencil& s) -> std::vector<double> {
    const std::span<const double> row = s.row_span(0);
    std::vector<double> out(row.size());
    for (std::size_t i = 0; i < row.size(); ++i) out[i] = 2.0 * row[i];
    return out;
  };
  const Array2D ref = apply_rows(block, udf, 1);
  EXPECT_EQ(apply_rows(block, udf, 3), ref);

  // Inconsistent lengths must be rejected.
  const RowUdf bad = [](const Stencil& s) -> std::vector<double> {
    return std::vector<double>(s.channel() % 2 + 1, 0.0);
  };
  EXPECT_THROW((void)apply_rows(block, bad, 1), InvalidArgument);
  EXPECT_THROW((void)apply_rows(block, bad, 3), InvalidArgument);
}

TEST(ApplyTest, ValidatesBlockConsistency) {
  LocalBlock block;
  block.block_shape = {2, 3};
  block.data.resize(5);  // wrong size
  block.owned_local = Range{0, 2};
  block.global_shape = {2, 3};
  const ScalarUdf zero = [](const Stencil&) { return 0.0; };
  EXPECT_THROW((void)apply_cells(block, zero, 1), InvalidArgument);

  // A thread count is a count: zero or negative is rejected up front.
  block.data.resize(6);
  const RowUdf empty = [](const Stencil&) { return std::vector<double>{}; };
  for (const int threads : {0, -1}) {
    EXPECT_THROW((void)apply_cells(block, zero, threads), InvalidArgument);
    EXPECT_THROW((void)apply_rows(block, empty, threads), InvalidArgument);
  }
}

TEST(ApplyTest, EmptyOwnedRegionGivesEmptyOutput) {
  LocalBlock block;
  block.block_shape = {2, 3};
  block.data.resize(6, 0.0);
  block.owned_local = Range{1, 1};  // nothing owned
  block.global_shape = {2, 3};
  const Array2D out =
      apply_cells(block, [](const Stencil&) { return 1.0; }, 1);
  EXPECT_EQ(out.shape.rows, 0u);
  EXPECT_TRUE(out.data.empty());
}

// ---- progress charges vs the stall rule ---------------------------

std::size_t count_stalls(const std::vector<Snapshot>& timeline) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    if (stall(timeline[i - 1], timeline[i])) ++n;
  }
  return n;
}

/// Runs `body` with span tracing on (the stall rule needs open spans)
/// under a sampler ticking every `period`; returns the timeline.
template <typename Body>
std::vector<Snapshot> sampled(std::chrono::milliseconds period, Body body) {
  trace::set_enabled(true);
  telemetry::TelemetrySampler sampler(telemetry::SamplerConfig{period});
  sampler.tick();
  sampler.start();
  body();
  sampler.stop();
  sampler.tick();
  trace::set_enabled(false);
  return sampler.timeline();
}

TEST(ApplyProgressTest, HealthyComputeBoundRunShowsNoStalls) {
  // ~1 us of wall-clock work per cell over 1024 x 1024 cells: every
  // thread's chunk (1 s at 1 thread, 0.26 s at 4) outlasts the 100 ms
  // sampler period several times over, so only charges made inside a
  // chunk can show progress in every interval. The period is ~100x the
  // ~1 ms charge stride, so a stall needs every worker descheduled for
  // most of an interval -- not something a loaded host or TSan does.
  const Array2D a(Shape2D{1024, 1024});
  const ScalarUdf busy = [](const Stencil&) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::microseconds(1);
    while (std::chrono::steady_clock::now() < until) {
    }
    return 1.0;
  };
  for (const int threads : {1, 4}) {
    const std::uint64_t cells_before =
        global_counters().get(counters::kTelemetryCellsProcessed);
    const std::vector<Snapshot> timeline =
        sampled(std::chrono::milliseconds(100), [&] {
          (void)apply_cells(LocalBlock::whole(a), busy, threads);
        });
    ASSERT_GE(timeline.size(), 3u) << threads << " threads";
    EXPECT_EQ(count_stalls(timeline), 0u) << threads << " threads";
    // Charging in strides leaves the total unchanged.
    EXPECT_EQ(global_counters().get(counters::kTelemetryCellsProcessed) -
                  cells_before,
              a.data.size());
  }
}

TEST(ApplyProgressTest, ParkedUdfIsFlaggedAsStall) {
  // A UDF parked on a latch while the sampler ticks: a span is open
  // and nothing retires, which is exactly what the rule must flag.
  const Array2D a(Shape2D{2, 8});
  std::latch parked(1);
  std::latch release(1);
  const ScalarUdf wedged = [&](const Stencil& s) {
    if (s.channel() == 0 && s.time() == 0) {
      parked.count_down();
      release.wait();
    }
    return 0.0;
  };
  const std::vector<Snapshot> timeline =
      sampled(std::chrono::milliseconds(5), [&] {
        std::thread worker(
            [&] { (void)apply_cells(LocalBlock::whole(a), wedged, 1); });
        parked.wait();
        // Several sampler periods with the UDF parked.
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        release.count_down();
        worker.join();
      });
  EXPECT_GE(count_stalls(timeline), 1u);
}

}  // namespace
}  // namespace dassa::core
