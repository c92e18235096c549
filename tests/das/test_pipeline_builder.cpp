// ChannelPipeline builder tests: stage composition, equivalence with
// the hand-written Algorithm 3 chain, immutability of built UDFs,
// validation, HAEE execution.
#include "dassa/das/pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

#include "dassa/das/interferometry.hpp"
#include "dassa/das/synth.hpp"
#include "dassa/dsp/daslib.hpp"
#include "testing/tmpdir.hpp"

namespace dassa::das {
namespace {

using testing::TmpDir;

std::vector<double> noisy_signal(std::size_t n, std::uint64_t seed = 5) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 3.0 + 0.01 * static_cast<double>(i) + dist(rng) +
           2.0 * std::sin(2.0 * std::numbers::pi * 10.0 *
                          static_cast<double>(i) / 100.0);
  }
  return x;
}

TEST(PipelineBuilderTest, EmptyPipelineIsIdentity) {
  const ChannelPipeline p(100.0);
  const std::vector<double> x = noisy_signal(64);
  EXPECT_EQ(p.run(x), x);
  EXPECT_TRUE(p.stage_names().empty());
}

TEST(PipelineBuilderTest, StagesComposeInOrder) {
  ChannelPipeline p(100.0);
  p.detrend().bandpass(2, 2.0, 30.0).resample(1, 2);
  EXPECT_EQ(p.stage_names(),
            (std::vector<std::string>{"detrend", "bandpass", "resample"}));

  // Composition equals applying the kernels by hand in order.
  const std::vector<double> x = noisy_signal(400);
  const auto coeffs = dsp::butter_bandpass(2, 2.0 / 50.0, 30.0 / 50.0);
  const std::vector<double> manual = dsp::resample(
      dsp::filtfilt(coeffs, dsp::detrend_linear(x)), 1, 2);
  EXPECT_EQ(p.run(x), manual);
}

TEST(PipelineBuilderTest, ResampleTracksSamplingRate) {
  ChannelPipeline p(500.0);
  EXPECT_DOUBLE_EQ(p.current_sampling_hz(), 500.0);
  p.resample(1, 2);
  EXPECT_DOUBLE_EQ(p.current_sampling_hz(), 250.0);
  p.resample(3, 1);
  EXPECT_DOUBLE_EQ(p.current_sampling_hz(), 750.0);
  // Band edges validate against the ORIGINAL rate at build time of the
  // stage: adding a 200 Hz lowpass at 750 Hz effective rate is fine.
  EXPECT_NO_THROW(p.lowpass(2, 200.0));
}

TEST(PipelineBuilderTest, ValidatesParameters) {
  ChannelPipeline p(100.0);
  EXPECT_THROW(p.bandpass(2, 0.0, 30.0), InvalidArgument);
  EXPECT_THROW(p.bandpass(2, 30.0, 2.0), InvalidArgument);
  EXPECT_THROW(p.lowpass(2, 50.0), InvalidArgument);  // at Nyquist
  EXPECT_THROW(p.taper(1.5), InvalidArgument);
  EXPECT_THROW(p.despike(3, 0.0), InvalidArgument);
  EXPECT_THROW(p.resample(0, 1), InvalidArgument);
  EXPECT_THROW(p.whiten(0), InvalidArgument);
  EXPECT_THROW(p.custom("null", nullptr), InvalidArgument);
  EXPECT_THROW(ChannelPipeline bad(0.0), InvalidArgument);
}

TEST(PipelineBuilderTest, BuiltUdfIsImmutableSnapshot) {
  ChannelPipeline p(100.0);
  p.demean();
  const core::RowUdf udf = p.build();
  p.one_bit();  // added AFTER build: must not affect `udf`

  core::Array2D data(Shape2D{1, 32});
  for (std::size_t i = 0; i < 32; ++i) {
    data.at(0, i) = 5.0 + static_cast<double>(i % 2);
  }
  const core::Array2D out =
      core::apply_rows(core::LocalBlock::whole(data), udf, 1);
  // demean only: values are +-0.5, not +-1 (one_bit would give that).
  EXPECT_NEAR(std::abs(out.at(0, 0)), 0.5, 1e-12);
}

TEST(PipelineBuilderTest, MatchesHandWrittenInterferometry) {
  // The builder expression of Algorithm 3 must equal the hand-coded
  // pipeline in interferometry.cpp, bit for bit.
  InterferometryParams ip;
  ip.sampling_hz = 100.0;
  ip.butter_order = 2;
  ip.band_lo_hz = 2.0;
  ip.band_hi_hz = 30.0;
  ip.resample_down = 2;

  ChannelPipeline p(ip.sampling_hz);
  p.detrend().bandpass(ip.butter_order, ip.band_lo_hz, ip.band_hi_hz)
      .resample(ip.resample_up, ip.resample_down);

  const std::vector<double> x = noisy_signal(500, 8);
  EXPECT_EQ(p.run(x), interferometry_preprocess(x, ip));

  // And the correlate-with-master terminal matches too.
  const std::vector<double> master = noisy_signal(500, 9);
  const core::RowUdf theirs =
      make_interferometry_udf(ip, interferometry_spectrum(master, ip));
  const core::RowUdf ours = p.correlate_with_master(p.spectrum(master));

  core::Array2D data(Shape2D{1, 500});
  std::copy(x.begin(), x.end(), data.data.begin());
  const core::LocalBlock block = core::LocalBlock::whole(data);
  const core::Array2D a = core::apply_rows(block, theirs, 1);
  const core::Array2D b = core::apply_rows(block, ours, 1);
  ASSERT_EQ(a.shape, b.shape);
  EXPECT_NEAR(a.at(0, 0), b.at(0, 0), 1e-12);
}

TEST(PipelineBuilderTest, MismatchedMasterLengthRejected) {
  ChannelPipeline p(100.0);
  p.resample(1, 2);
  const core::RowUdf udf =
      p.correlate_with_master(std::vector<dsp::cplx>(10));  // wrong length

  core::Array2D data(Shape2D{1, 100}, 1.0);
  EXPECT_THROW(
      (void)core::apply_rows(core::LocalBlock::whole(data), udf, 1),
      InvalidArgument);
}

TEST(PipelineBuilderTest, CustomStageParticipates) {
  ChannelPipeline p(100.0);
  p.custom("double", [](std::vector<double> x) {
    for (double& v : x) v *= 2.0;
    return x;
  }).custom("add_one", [](std::vector<double> x) {
    for (double& v : x) v += 1.0;
    return x;
  });
  EXPECT_EQ(p.run({1.0, 2.0}), (std::vector<double>{3.0, 5.0}));
  EXPECT_EQ(p.stage_names(),
            (std::vector<std::string>{"double", "add_one"}));
}

TEST(PipelineBuilderTest, RunsThroughHaeeEngine) {
  TmpDir dir("pipe");
  const SynthDas synth = SynthDas::fig1b_scene(12, 50.0, 3);
  AcquisitionSpec spec;
  spec.dir = dir.str();
  spec.start = Timestamp::parse("170728224510");
  spec.file_count = 2;
  spec.seconds_per_file = 2.0;
  spec.dtype = io::DType::kF64;
  spec.per_channel_metadata = false;
  io::Vca vca = io::Vca::build(write_acquisition(synth, spec));

  ChannelPipeline p(50.0);
  p.detrend().bandpass(2, 2.0, 20.0).envelope();
  const core::RowUdf udf = p.build();

  core::EngineConfig config;
  config.nodes = 3;
  config.cores_per_node = 2;
  const core::EngineReport report = core::run_rows(
      config, vca, [&](const core::RankContext&) { return udf; });
  ASSERT_EQ(report.output.shape, vca.shape());

  // Envelopes are non-negative by construction.
  for (double v : report.output.data) EXPECT_GE(v, -1e-12);
}

TEST(PipelineBuilderTest, OneBitAndWhitenAndDespike) {
  ChannelPipeline p(100.0);
  p.despike(5, 6.0).whiten(5).one_bit();
  std::vector<double> x = noisy_signal(256, 12);
  x[50] = 1000.0;  // spike for the despiker
  const std::vector<double> y = p.run(x);
  ASSERT_EQ(y.size(), x.size());
  for (double v : y) {
    EXPECT_TRUE(v == 1.0 || v == -1.0 || v == 0.0) << v;
  }
}

}  // namespace
}  // namespace dassa::das
