#include "dassa/das/local_similarity.hpp"

#include "dassa/dsp/daslib.hpp"

namespace dassa::das {

core::ScalarUdf make_local_similarity_udf(const LocalSimilarityParams& p) {
  DASSA_CHECK(p.window_half >= 1, "similarity window must hold samples");
  DASSA_CHECK(p.channel_offset >= 1,
              "similarity needs a non-zero channel offset");
  const auto M = static_cast<std::ptrdiff_t>(p.window_half);
  const auto L = static_cast<std::ptrdiff_t>(p.lag_half);
  const auto K = static_cast<std::ptrdiff_t>(p.channel_offset);

  return [M, L, K](const core::Stencil& s) -> double {
    // The full neighbourhood must exist: time span +-(M+L), channels
    // +-K. Edge cells return 0 (no similarity evidence).
    if (!s.in_bounds(-(M + L), -K) || !s.in_bounds(M + L, -K) ||
        !s.in_bounds(-(M + L), +K) || !s.in_bounds(M + L, +K)) {
      return 0.0;
    }
    const std::vector<double> w = s.window(-M, M, 0);
    double c_plus = 0.0;
    double c_minus = 0.0;
    for (std::ptrdiff_t l = -L; l <= L; ++l) {
      const std::vector<double> w1 = s.window(l - M, l + M, +K);
      const std::vector<double> w2 = s.window(l - M, l + M, -K);
      c_plus = std::max(c_plus, daslib::Das_abscorr(w, w1));
      c_minus = std::max(c_minus, daslib::Das_abscorr(w, w2));
    }
    return 0.5 * (c_plus + c_minus);
  };
}

core::Array2D local_similarity(const core::Array2D& data,
                               const LocalSimilarityParams& p, int threads) {
  DASSA_CHECK(threads >= 1, "local similarity needs at least one thread");
  return core::apply_cells(core::LocalBlock::whole(data),
                           make_local_similarity_udf(p), threads);
}

core::EngineReport local_similarity_distributed(
    core::EngineConfig config, const io::Vca& vca,
    const LocalSimilarityParams& p) {
  config.halo_channels = p.halo();
  return core::run_cells(config, vca,
                         [&p](const core::RankContext&) {
                           return make_local_similarity_udf(p);
                         });
}

}  // namespace dassa::das
