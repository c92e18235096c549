// Randomized property tests across modules: for arbitrary shapes, file
// splits, halos and engine configurations, the distributed result must
// equal the serial reference; storage round trips must be lossless for
// arbitrary metadata; resolve/assemble must be a bijection.
#include <gtest/gtest.h>

#include <random>

#include "dassa/core/haee.hpp"
#include "dassa/io/dash5.hpp"
#include "dassa/io/vca.hpp"
#include "testing/tmpdir.hpp"

namespace dassa {
namespace {

using testing::TmpDir;

/// Deterministic RNG per test-case index.
std::mt19937_64 rng_for(std::size_t trial) {
  return std::mt19937_64(0xD0551E5ULL * (trial + 1));
}

/// Write a random global array as randomly-split member files.
struct RandomAcquisition {
  Shape2D shape;
  std::vector<double> data;
  std::vector<std::string> files;

  RandomAcquisition(TmpDir& dir, std::mt19937_64& rng) {
    shape.rows = 3 + rng() % 14;        // 3..16 channels
    const std::size_t n_files = 1 + rng() % 5;
    std::vector<std::size_t> widths;
    shape.cols = 0;
    for (std::size_t f = 0; f < n_files; ++f) {
      widths.push_back(4 + rng() % 29);  // 4..32 samples per file
      shape.cols += widths.back();
    }
    data.resize(shape.size());
    std::normal_distribution<double> dist;
    for (auto& v : data) v = dist(rng);

    std::size_t col0 = 0;
    for (std::size_t f = 0; f < n_files; ++f) {
      const Shape2D fshape{shape.rows, widths[f]};
      std::vector<double> fdata(fshape.size());
      for (std::size_t r = 0; r < shape.rows; ++r) {
        for (std::size_t c = 0; c < widths[f]; ++c) {
          fdata[fshape.at(r, c)] = data[shape.at(r, c + col0)];
        }
      }
      io::Dash5Header h;
      h.shape = fshape;
      // Randomly chunk some members: layout must be invisible.
      if (rng() % 2 == 0) {
        h.layout = io::Layout::kChunked;
        h.chunk = {1 + rng() % fshape.rows, 1 + rng() % fshape.cols};
      }
      const std::string path =
          dir.file("m" + std::to_string(f) + ".dh5");
      io::dash5_write(path, h, fdata);
      files.push_back(path);
      col0 += widths[f];
    }
  }
};

class PropertyTrial : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PropertyTrial, VcaReadsEqualSourceForRandomSplitsAndSlabs) {
  TmpDir dir("prop");
  auto rng = rng_for(GetParam());
  RandomAcquisition acq(dir, rng);
  io::Vca vca = io::Vca::build(acq.files);
  ASSERT_EQ(vca.shape(), acq.shape);
  EXPECT_EQ(vca.read_all(), acq.data);

  for (int i = 0; i < 10; ++i) {
    const std::size_t r0 = rng() % acq.shape.rows;
    const std::size_t c0 = rng() % acq.shape.cols;
    const Slab2D slab{r0, c0, 1 + rng() % (acq.shape.rows - r0),
                      1 + rng() % (acq.shape.cols - c0)};
    const std::vector<double> got = vca.read_slab(slab);
    for (std::size_t r = 0; r < slab.row_cnt; ++r) {
      for (std::size_t c = 0; c < slab.col_cnt; ++c) {
        ASSERT_EQ(got[r * slab.col_cnt + c],
                  acq.data[acq.shape.at(slab.row_off + r,
                                        slab.col_off + c)])
            << slab.str();
      }
    }
  }
}

TEST_P(PropertyTrial, DistributedApplyEqualsSerialForRandomConfigs) {
  TmpDir dir("prop");
  auto rng = rng_for(GetParam() + 100);
  RandomAcquisition acq(dir, rng);
  io::Vca vca = io::Vca::build(acq.files);

  // Random engine configuration (halo bounded by the partition size).
  core::EngineConfig config;
  config.nodes = 1 + static_cast<int>(rng() % 4);
  config.cores_per_node = 1 + static_cast<int>(rng() % 3);
  config.mode = rng() % 2 == 0 ? core::EngineMode::kHybrid
                               : core::EngineMode::kMpiPerCore;
  const std::array<core::ReadMethod, 3> reads{
      core::ReadMethod::kCommunicationAvoiding,
      core::ReadMethod::kCollectivePerFile,
      core::ReadMethod::kDirectPerRank};
  config.read_method = reads[rng() % 3];
  config.halo_mode = rng() % 2 == 0 ? core::HaloMode::kExchange
                                    : core::HaloMode::kOverlapRead;
  const std::size_t max_halo =
      acq.shape.rows / static_cast<std::size_t>(config.world_size());
  config.halo_channels = max_halo > 0 ? rng() % (max_halo + 1) : 0;

  const auto halo = static_cast<std::ptrdiff_t>(config.halo_channels);
  const core::ScalarUdf udf = [halo](const core::Stencil& s) {
    // Sum over the full reachable ghost neighbourhood, clamped at
    // array edges -- sensitive to any halo/partition mistake.
    double acc = 0.0;
    for (std::ptrdiff_t dch = -halo; dch <= halo; ++dch) {
      if (s.in_bounds(0, dch)) acc += s(0, dch);
    }
    const double left = s.in_bounds(-1, 0) ? s(-1, 0) : 0.0;
    return acc + 0.5 * left;
  };

  const core::Array2D serial = core::apply_cells(
      core::LocalBlock::whole(core::Array2D(acq.shape, acq.data)), udf, 1);
  const core::EngineReport report = core::run_cells(
      config, vca, [&](const core::RankContext&) { return udf; });

  ASSERT_EQ(report.output.shape, serial.shape)
      << "nodes=" << config.nodes << " cores=" << config.cores_per_node
      << " halo=" << config.halo_channels;
  for (std::size_t i = 0; i < serial.data.size(); ++i) {
    ASSERT_NEAR(report.output.data[i], serial.data[i], 1e-12)
        << "i=" << i << " nodes=" << config.nodes
        << " halo=" << config.halo_channels;
  }
}

TEST_P(PropertyTrial, MetadataRoundTripsArbitraryStrings) {
  TmpDir dir("prop");
  auto rng = rng_for(GetParam() + 200);
  io::Dash5Header h;
  h.shape = {2, 3};
  // Random keys/values including empty strings and binary-ish bytes.
  const std::size_t nkv = rng() % 8;
  for (std::size_t i = 0; i < nkv; ++i) {
    std::string key = "k" + std::to_string(i);
    std::string value;
    const std::size_t len = rng() % 20;
    for (std::size_t j = 0; j < len; ++j) {
      value.push_back(static_cast<char>(rng() % 256));
    }
    h.global.set(std::move(key), std::move(value));
  }
  io::ObjectMeta obj;
  obj.path = "/Measurement/1";
  obj.kv.set("empty", "");
  h.objects.push_back(obj);

  dash5_write(dir.file("m.dh5"), h, std::vector<double>(6, 1.0));
  const io::Dash5Header back = io::Dash5File::read_header(dir.file("m.dh5"));
  EXPECT_EQ(back.global, h.global);
  EXPECT_EQ(back.objects, h.objects);
}

INSTANTIATE_TEST_SUITE_P(Trials, PropertyTrial,
                         ::testing::Range<std::size_t>(0, 12));

}  // namespace
}  // namespace dassa
