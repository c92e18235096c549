#include "dassa/das/local_similarity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace dassa::das {

namespace {

// A running dot product differs from the direct sum by at most about
// (steps + B) * eps times the |terms| mass it has accumulated since its
// last direct sum. Once that mass exceeds kDriftBound * sqrt(na * nb)
// -- after a large arrival has left the window, say -- the dot is
// summed directly again, which bounds a score's error by about
// 2B * eps * kDriftBound (2e-13 at M = 25).
constexpr double kDriftBound = 16.0;

/// 1/sqrt of the energy of every window x[s-M .. s+M], s in [lo, hi),
/// or 0 where that energy is 0. Each energy is summed directly in
/// window order (as dsp::abscorr does), so an all-zero window gives
/// exactly 0.
std::vector<double> inv_root_energies(const double* x, std::size_t M,
                                      std::size_t lo, std::size_t hi) {
  std::vector<double> e(hi - lo, 0.0);
  for (std::size_t i = 0; i <= 2 * M; ++i) {
    const double* src = x + lo - M + i;
    for (std::size_t k = 0; k < e.size(); ++k) e[k] += src[k] * src[k];
  }
  for (double& v : e) v = v > 0.0 ? 1.0 / std::sqrt(v) : 0.0;
  return e;
}

/// The correlations of a centre row x against one neighbour row y for
/// the cells t in [lo, hi): per lag index j (lag l = j - L), the dot of
/// x[t-M .. t+M] with y[t+l-M .. t+l+M] as a running sum along t, and
/// the |terms| mass that sum has seen since it was last summed directly.
class Side {
 public:
  Side(const double* x, const double* y, std::size_t M, std::size_t L,
       std::size_t lo, std::size_t hi)
      : x_(x),
        y_(y),
        M_(M),
        L_(L),
        lo_(lo),
        ry_(inv_root_energies(y, M, lo - L, hi + L)),
        dot_(2 * L + 1),
        mass_(2 * L + 1) {}

  /// Sum every lag's dot directly at cell t.
  void restart(std::size_t t) {
    for (std::size_t j = 0; j < dot_.size(); ++j) sum_directly(j, t);
  }

  /// Slide every lag's dot from cell t-1 to cell t.
  void advance(std::size_t t) {
    const double xa = x_[t + M_];
    const double xs = x_[t - M_ - 1];
    const double* ya = y_ + t + M_ - L_;
    const double* ys = y_ + t - M_ - 1 - L_;
    for (std::size_t j = 0; j < dot_.size(); ++j) {
      const double pa = xa * ya[j];
      const double ps = xs * ys[j];
      dot_[j] += pa - ps;
      mass_[j] += std::abs(pa) + std::abs(ps);
    }
  }

  /// max over lags of |dot| / sqrt(na * nb) at cell t, where `rx` is
  /// 1/sqrt(na) (0 for an all-zero centre window).
  double score(std::size_t t, double rx) {
    const double* ry = ry_.data() + (t - lo_);
    double best = 0.0;
    for (std::size_t j = 0; j < dot_.size(); ++j) {
      if (mass_[j] * ry[j] * rx > kDriftBound) sum_directly(j, t);
      best = std::max(best, std::abs(dot_[j]) * ry[j]);
    }
    return std::min(1.0, best * rx);
  }

 private:
  void sum_directly(std::size_t j, std::size_t t) {
    const double* a = x_ + t - M_;
    const double* b = y_ + t - M_ - L_ + j;
    double dot = 0.0;
    double mass = 0.0;
    for (std::size_t i = 0; i <= 2 * M_; ++i) {
      const double p = a[i] * b[i];
      dot += p;
      mass += std::abs(p);
    }
    dot_[j] = dot;
    mass_[j] = mass;
  }

  const double* x_;
  const double* y_;
  std::size_t M_;
  std::size_t L_;
  std::size_t lo_;
  std::vector<double> ry_;  ///< 1/sqrt(nb), windows centred lo-L .. hi+L-1
  std::vector<double> dot_;
  std::vector<double> mass_;
};

/// Algorithm 2 over one channel. Cells without the full neighbourhood
/// (M+L columns each side, channels +-K) stay 0.
core::RowUdf make_row_udf(const LocalSimilarityParams& p,
                          std::size_t first_col) {
  return [p, first_col](const core::Stencil& s) -> std::vector<double> {
    const std::span<const double> x = s.row_span();
    std::vector<double> out(x.size(), 0.0);
    const auto K = static_cast<std::ptrdiff_t>(p.channel_offset);
    const std::size_t M = p.window_half;
    const std::size_t L = p.lag_half;
    if (x.size() <= 2 * (M + L) || !s.in_bounds(0, -K) ||
        !s.in_bounds(0, +K)) {
      return out;
    }
    const std::size_t lo = M + L;
    const std::size_t hi = x.size() - (M + L);
    const std::size_t block = 2 * M + 1;
    const std::vector<double> rx = inv_root_energies(x.data(), M, lo, hi);
    Side plus(x.data(), s.row_span(+K).data(), M, L, lo, hi);
    Side minus(x.data(), s.row_span(-K).data(), M, L, lo, hi);
    // Restart at the first cell and wherever the global column is a
    // multiple of the block, so that every later cell's rounding
    // depends on global coordinates only.
    std::size_t phase = (first_col % block + lo) % block;
    for (std::size_t t = lo; t < hi; ++t) {
      if (t == lo || phase == 0) {
        plus.restart(t);
        minus.restart(t);
      } else {
        plus.advance(t);
        minus.advance(t);
      }
      const double r = rx[t - lo];
      out[t] = 0.5 * (plus.score(t, r) + minus.score(t, r));
      if (++phase == block) phase = 0;
    }
    return out;
  };
}

}  // namespace

void LocalSimilarityParams::validate() const {
  DASSA_CHECK(window_half >= 1, "similarity window must hold samples");
  DASSA_CHECK(channel_offset >= 1,
              "similarity needs a non-zero channel offset");
  constexpr std::size_t kLimit = std::numeric_limits<std::size_t>::max() / 4;
  DASSA_CHECK(window_half <= kLimit && lag_half <= kLimit,
              "similarity window or lag too large");
}

core::Array2D local_similarity(const core::Array2D& data,
                               const LocalSimilarityParams& p, int threads,
                               std::size_t first_col) {
  DASSA_CHECK(threads >= 1, "local similarity needs at least one thread");
  p.validate();
  return core::apply_rows(core::LocalBlock::whole(data),
                          make_row_udf(p, first_col), threads);
}

core::EngineReport local_similarity_distributed(
    core::EngineConfig config, const io::Vca& vca,
    const LocalSimilarityParams& p, std::size_t first_col) {
  p.validate();
  config.halo_channels = p.halo();
  return core::run_rows(config, vca,
                        [udf = make_row_udf(p, first_col)](
                            const core::RankContext&) { return udf; });
}

}  // namespace dassa::das
