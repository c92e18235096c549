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
};

/// The Algorithm 2 UDF. Cells whose full neighbourhood (time span
/// M+L on both sides, channels +-K) falls outside the array yield 0.
[[nodiscard]] core::ScalarUdf make_local_similarity_udf(
    const LocalSimilarityParams& params);

/// Single-node execution over an in-memory array on `threads` (>= 1)
/// threads of core::apply_cells.
[[nodiscard]] core::Array2D local_similarity(const core::Array2D& data,
                                             const LocalSimilarityParams& p,
                                             int threads);

/// Distributed execution over a VCA through the HAEE engine. The
/// engine's halo is overridden with the UDF's requirement.
[[nodiscard]] core::EngineReport local_similarity_distributed(
    core::EngineConfig config, const io::Vca& vca,
    const LocalSimilarityParams& p);

}  // namespace dassa::das
