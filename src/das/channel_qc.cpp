#include "dassa/das/channel_qc.hpp"

#include <cmath>

#include "dassa/common/error.hpp"
#include "dassa/dsp/median.hpp"

namespace dassa::das {

const char* channel_status_name(ChannelStatus s) {
  DASSA_CHECK(s == ChannelStatus::kGood || s == ChannelStatus::kDead ||
                  s == ChannelStatus::kNoisy,
              "channel_status_name: value outside the ChannelStatus enum");
  switch (s) {
    case ChannelStatus::kGood:
      return "good";
    case ChannelStatus::kDead:
      return "dead";
    case ChannelStatus::kNoisy:
      return "noisy";
  }
  return "?";
}

ChannelStats channel_stats(std::span<const double> x) {
  DASSA_CHECK(x.empty() || x.data() != nullptr,
              "channel_stats: null span with non-zero size");
  ChannelStats stats;
  if (x.empty()) return stats;
  const double n = static_cast<double>(x.size());
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= n;
  double m2 = 0.0;
  double m4 = 0.0;
  for (double v : x) {
    const double d = v - mean;
    const double d2 = d * d;
    m2 += d2;
    m4 += d2 * d2;
    stats.peak = std::max(stats.peak, std::abs(v));
  }
  m2 /= n;
  m4 /= n;
  stats.rms = std::sqrt(m2 + mean * mean);
  stats.kurtosis = m2 > 1e-300 ? m4 / (m2 * m2) - 3.0 : 0.0;
  return stats;
}

namespace {

ChannelQcReport classify(std::vector<ChannelStats> per_channel,
                         const ChannelQcParams& params) {
  DASSA_CHECK(params.dead_rms_fraction > 0.0 &&
                  params.dead_rms_fraction < 1.0,
              "dead threshold must be a fraction in (0,1)");
  DASSA_CHECK(params.noisy_rms_multiple > 1.0,
              "noisy threshold must exceed 1");
  ChannelQcReport report;
  std::vector<double> rms;
  rms.reserve(per_channel.size());
  for (const auto& c : per_channel) rms.push_back(c.rms);
  report.median_rms = dsp::median(rms);

  for (auto& c : per_channel) {
    if (c.rms < params.dead_rms_fraction * report.median_rms) {
      c.status = ChannelStatus::kDead;
    } else if (c.rms > params.noisy_rms_multiple * report.median_rms) {
      c.status = ChannelStatus::kNoisy;
    } else {
      c.status = ChannelStatus::kGood;
    }
  }
  report.channels = std::move(per_channel);
  return report;
}

core::RowUdf stats_udf() {
  return [](const core::Stencil& s) -> std::vector<double> {
    const ChannelStats stats = channel_stats(s.row_span(0));
    return {stats.rms, stats.peak, stats.kurtosis};
  };
}

ChannelQcReport from_stats_array(const core::Array2D& out,
                                 const ChannelQcParams& params) {
  std::vector<ChannelStats> per_channel(out.shape.rows);
  for (std::size_t ch = 0; ch < out.shape.rows; ++ch) {
    per_channel[ch].rms = out.at(ch, 0);
    per_channel[ch].peak = out.at(ch, 1);
    per_channel[ch].kurtosis = out.at(ch, 2);
  }
  return classify(std::move(per_channel), params);
}

}  // namespace

ChannelQcReport channel_qc(const core::EngineConfig& config,
                           const io::Vca& vca,
                           const ChannelQcParams& params) {
  const core::EngineReport report = core::run_rows(
      config, vca,
      [](const core::RankContext&) { return stats_udf(); });
  DASSA_CHECK(report.output.shape.cols == 3,
              "QC engine output must have 3 stat columns");
  return from_stats_array(report.output, params);
}

ChannelQcReport channel_qc(const core::Array2D& data,
                           const ChannelQcParams& params) {
  const core::Array2D out = core::apply_rows(
      core::LocalBlock::whole(data), stats_udf(), 1);
  return from_stats_array(out, params);
}

}  // namespace dassa::das
