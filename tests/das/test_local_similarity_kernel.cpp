// The sliding-window local-similarity kernel against Algorithm 2 as
// written (one dsp::abscorr per lag per cell), and its column origin:
// a run over a column sub-range reproduces the full run bitwise from
// margin_cols() columns in.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <span>
#include <tuple>

#include "dassa/das/local_similarity.hpp"
#include "dassa/dsp/correlate.hpp"

namespace dassa::das {
namespace {

/// Algorithm 2 cell by cell: for each lag, dsp::abscorr of the centre
/// window against each neighbour's shifted window.
core::Array2D reference_similarity(const core::Array2D& data,
                                   const LocalSimilarityParams& p) {
  const std::size_t rows = data.shape.rows;
  const std::size_t cols = data.shape.cols;
  const std::size_t M = p.window_half;
  const std::size_t L = p.lag_half;
  const std::size_t K = p.channel_offset;
  const std::size_t B = 2 * M + 1;
  core::Array2D out(data.shape);
  for (std::size_t ch = K; ch + K < rows; ++ch) {
    for (std::size_t t = M + L; t + M + L < cols; ++t) {
      const std::span<const double> w(data.row(ch).data() + t - M, B);
      double c_plus = 0.0;
      double c_minus = 0.0;
      for (std::size_t j = 0; j <= 2 * L; ++j) {
        const std::size_t start = t - M - L + j;
        c_plus = std::max(c_plus,
                          dsp::abscorr(w, std::span<const double>(
                                              data.row(ch + K).data() + start,
                                              B)));
        c_minus = std::max(c_minus,
                           dsp::abscorr(w, std::span<const double>(
                                               data.row(ch - K).data() + start,
                                               B)));
      }
      out.at(ch, t) = 0.5 * (c_plus + c_minus);
    }
  }
  return out;
}

/// Unquantized noise with a coherent arrival 1e4x the noise amplitude,
/// one all-zero channel and a 200-column zero stretch on every channel.
core::Array2D hard_scene(Shape2D shape) {
  core::Array2D data(shape);
  std::mt19937_64 rng(424242);
  std::normal_distribution<double> noise;
  for (auto& v : data.data) v = noise(rng);
  for (std::size_t ch = 0; ch < shape.rows; ++ch) {
    for (std::size_t t = 300; t < 340; ++t) {
      data.at(ch, t + ch) +=
          1e4 * std::sin(0.4 * static_cast<double>(t)) *
          std::exp(-0.01 * static_cast<double>((t - 320) * (t - 320)));
    }
    for (std::size_t t = 700; t < 900; ++t) data.at(ch, t) = 0.0;
  }
  for (std::size_t t = 0; t < shape.cols; ++t) data.at(4, t) = 0.0;
  return data;
}

class LocalSimilarityOracle
    : public ::testing::TestWithParam<
          std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(LocalSimilarityOracle, MatchesPerCellAbscorr) {
  LocalSimilarityParams p;
  std::tie(p.window_half, p.lag_half, p.channel_offset) = GetParam();
  const core::Array2D data = hard_scene(Shape2D{10, 1200});
  const core::Array2D expected = reference_similarity(data, p);
  const core::Array2D got = local_similarity(data, p, 2);
  ASSERT_EQ(got.shape, expected.shape);

  double max_diff = 0.0;
  for (std::size_t i = 0; i < got.data.size(); ++i) {
    EXPECT_GE(got.data[i], 0.0);
    EXPECT_LE(got.data[i], 1.0);
    max_diff = std::max(max_diff, std::abs(got.data[i] - expected.data[i]));
  }
  EXPECT_LE(max_diff, 1e-12);
  // Zero windows score exactly 0, as abscorr defines them.
  for (std::size_t t = 0; t < data.shape.cols; ++t) {
    if (expected.at(4, t) == 0.0) {
      EXPECT_EQ(got.at(4, t), 0.0) << t;
    }
  }
  for (std::size_t t = 700 + p.window_half + p.lag_half;
       t + p.window_half + p.lag_half < 900; ++t) {
    EXPECT_EQ(got.at(5, t), 0.0) << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LocalSimilarityOracle,
    ::testing::Values(std::make_tuple(25, 10, 1), std::make_tuple(10, 5, 2),
                      std::make_tuple(4, 2, 1)));

TEST(LocalSimilarityOrigin, SubRangeMatchesFullRunPastTheMargin) {
  LocalSimilarityParams p;
  p.window_half = 6;
  p.lag_half = 3;
  const core::Array2D data = hard_scene(Shape2D{6, 1000});
  const core::Array2D full = local_similarity(data, p, 1);
  const std::size_t block = 2 * p.window_half + 1;
  const std::size_t margin = p.margin_cols();
  EXPECT_EQ(margin, 3 * p.window_half + p.lag_half);

  for (std::size_t s = 1; s <= 2 * block; ++s) {
    core::Array2D tail(Shape2D{data.shape.rows, data.shape.cols - s});
    for (std::size_t ch = 0; ch < data.shape.rows; ++ch) {
      std::copy(data.row(ch).begin() + static_cast<std::ptrdiff_t>(s),
                data.row(ch).end(), tail.row(ch).begin());
    }
    const core::Array2D part = local_similarity(tail, p, 1, s);
    for (std::size_t ch = 0; ch < data.shape.rows; ++ch) {
      for (std::size_t g = s + margin; g < data.shape.cols; ++g) {
        ASSERT_EQ(part.at(ch, g - s), full.at(ch, g))
            << "start " << s << " channel " << ch << " column " << g;
      }
    }
  }
}

TEST(LocalSimilarityOrigin, RejectsInvalidParameters) {
  const core::Array2D data(Shape2D{4, 40}, 1.0);
  LocalSimilarityParams p;
  p.window_half = 0;
  EXPECT_THROW((void)local_similarity(data, p, 1), InvalidArgument);
  p.window_half = 3;
  p.channel_offset = 0;
  EXPECT_THROW((void)local_similarity(data, p, 1), InvalidArgument);
  p.channel_offset = 1;
  p.window_half = std::numeric_limits<std::size_t>::max() / 3;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p.window_half = 3;
  p.lag_half = std::numeric_limits<std::size_t>::max() / 2;
  EXPECT_THROW((void)local_similarity(data, p, 1), InvalidArgument);
}

}  // namespace
}  // namespace dassa::das
