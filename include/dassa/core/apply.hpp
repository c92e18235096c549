// ArrayUDF core: the Apply operator, B = Apply(A, f).
//
// apply_cells runs a UDF once per cell; apply_rows runs it once per
// channel (Algorithm 3 operates per channel). Both are ApplyMT, paper
// Algorithm 1, on DASSA's one thread runtime (ThreadPool).
#pragma once

#include <functional>
#include <vector>

#include "dassa/common/shape.hpp"
#include "dassa/core/array.hpp"
#include "dassa/core/stencil.hpp"

namespace dassa::core {

/// UDF evaluated on each cell; must be thread-safe (it is invoked
/// concurrently from ApplyMT threads).
using ScalarUdf = std::function<double(const Stencil&)>;

/// UDF evaluated once per channel; returns that channel's output time
/// series. All rows must return the same length.
using RowUdf = std::function<std::vector<double>(const Stencil&)>;

/// One rank's local view of the distributed array: the owned channel
/// rows plus ghost rows (halo channels) above and below.
struct LocalBlock {
  std::vector<double> data;  ///< (halo_lo + owned + halo_hi) x cols
  Shape2D block_shape;       ///< shape of `data`
  std::size_t global_row0 = 0;  ///< global channel index of local row 0
  Range owned_local;         ///< local row range holding owned channels
  Shape2D global_shape;      ///< shape of the full distributed array

  /// Build a block with no halo from a full in-memory array (single
  /// rank / single node case).
  static LocalBlock whole(const Array2D& a) {
    return LocalBlock{a.data, a.shape, 0, Range{0, a.shape.rows}, a.shape};
  }

  [[nodiscard]] std::size_t owned_rows() const { return owned_local.size(); }
};

/// Apply over every owned cell: one output value per cell, computed
/// by ApplyMT (paper Algorithm 1) on `threads` threads. At one thread
/// the cells run inline on the caller, which is the serial reference;
/// above that, a ThreadPool built for the call splits the linearised
/// cells statically and each thread writes its contiguous chunk
/// straight into the output. Every cell is independent, so the output
/// is identical at every thread count. `threads` must be >= 1.
[[nodiscard]] Array2D apply_cells(const LocalBlock& block,
                                  const ScalarUdf& udf, int threads);

/// Apply once per owned channel, on `threads` threads as apply_cells.
/// Output: owned_rows x L where L is the UDF's output length.
[[nodiscard]] Array2D apply_rows(const LocalBlock& block, const RowUdf& udf,
                                 int threads);

}  // namespace dassa::core
