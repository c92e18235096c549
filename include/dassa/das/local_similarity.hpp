// Case study 1: earthquake detection via local similarity
// (paper Algorithm 2, after Li et al. 2018).
//
// For every cell (channel, time) the UDF extracts the window
// W = S(-M:M, 0), slides (2L+1) windows over each of the two
// neighbouring channels at offsets +K and -K, takes the maximum
// absolute correlation against each side, and returns their mean.
// Coherent arrivals (earthquakes, vehicles) correlate across
// neighbouring channels; incoherent noise does not -- so the output map
// lights up exactly where paper Fig. 10 shows events.
//
// The kernel runs once per channel (core::apply_rows): window energies
// are summed directly, and each lag's dot product is a running sum
// along time, restarted directly at every column whose *global* index
// is a multiple of B = 2M+1. A cell's rounding therefore depends only
// on its global coordinates, so a run over a column sub-range that
// starts at global column `first_col` reproduces the full run bitwise
// from margin_cols() columns in (docs/ANALYSIS.md).
#pragma once

#include "dassa/core/apply.hpp"
#include "dassa/core/haee.hpp"

namespace dassa::das {

struct LocalSimilarityParams {
  std::size_t window_half = 25;    ///< M: window is 2M+1 samples
  std::size_t lag_half = 10;       ///< L: 2L+1 window positions per side
  std::size_t channel_offset = 1;  ///< K: neighbour distance in channels

  /// Ghost-zone width a distributed run needs for this UDF.
  [[nodiscard]] std::size_t halo() const { return channel_offset; }

  /// One-sided column dependency of a cell: M+L of neighbourhood plus
  /// up to B-1 = 2M columns back to the aligned restart of its running
  /// sums, i.e. 3M+L on the left (M+L suffices on the right).
  [[nodiscard]] std::size_t margin_cols() const {
    return 3 * window_half + lag_half;
  }

  /// Throws InvalidArgument unless M >= 1, K >= 1, and M and L are
  /// small enough that margin_cols() and 2(M+L) fit in std::size_t.
  void validate() const;
};

/// Single-node execution over an in-memory array on `threads` (>= 1)
/// threads of core::apply_rows. `first_col` is the global column of
/// `data`'s column 0. Cells whose full neighbourhood (time span M+L on
/// both sides, channels +-K) falls outside the array yield 0.
[[nodiscard]] core::Array2D local_similarity(const core::Array2D& data,
                                             const LocalSimilarityParams& p,
                                             int threads,
                                             std::size_t first_col = 0);

/// Distributed execution over a VCA through the HAEE engine. The
/// engine's halo is overridden with the UDF's requirement; `first_col`
/// as for local_similarity.
[[nodiscard]] core::EngineReport local_similarity_distributed(
    core::EngineConfig config, const io::Vca& vca,
    const LocalSimilarityParams& p, std::size_t first_col = 0);

}  // namespace dassa::das
