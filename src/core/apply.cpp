#include "dassa/core/apply.hpp"

#include <algorithm>

#include "dassa/common/counters.hpp"
#include "dassa/common/sync.hpp"
#include "dassa/common/thread_pool.hpp"
#include "dassa/common/trace.hpp"

namespace dassa::core {

namespace {

/// Make the stencil for linearised owned-cell index `i`.
Stencil stencil_at(const LocalBlock& block, std::size_t i) {
  const std::size_t cols = block.block_shape.cols;
  const std::size_t local_row = block.owned_local.begin + i / cols;
  const std::size_t col = i % cols;
  return Stencil(block.data.data(), block.block_shape, block.global_row0,
                 local_row, col, block.global_shape);
}

std::size_t owned_cell_count(const LocalBlock& block) {
  return block.owned_rows() * block.block_shape.cols;
}

void validate(const LocalBlock& block, int threads) {
  DASSA_CHECK(threads >= 1, "apply needs at least one thread");
  DASSA_CHECK(block.data.size() == block.block_shape.size(),
              "local block data does not match its shape");
  DASSA_CHECK(block.owned_local.end <= block.block_shape.rows,
              "owned range exceeds local block");
}

using ChunkBody =
    std::function<void(std::size_t thread, std::size_t begin, std::size_t end)>;

/// Algorithm 1's fork-join over [0, n) with a static schedule: one
/// thread runs `body(0, 0, n)` inline; more run one contiguous chunk
/// each on a pool built for the call.
void fork_join(std::size_t n, int threads, const ChunkBody& body) {
  if (threads == 1) {
    body(0, 0, n);
    return;
  }
  ThreadPool pool(static_cast<std::size_t>(threads));
  pool.parallel_for(n, body);
}

Stencil row_stencil(const LocalBlock& block, std::size_t owned_row) {
  return Stencil(block.data.data(), block.block_shape, block.global_row0,
                 block.owned_local.begin + owned_row, 0, block.global_shape);
}

// Telemetry progress hooks. The sampler tells a busy pipeline from a
// stalled one by counter movement, so a chunk must charge while it
// runs, not once at its end (a chunk can outlast many sampler periods).
// Cells charge every kCellStride cells -- one registry add per stride
// keeps the per-cell hot loop untaxed -- and rows charge one by one.
// Totals are the same as one charge per chunk.
constexpr std::size_t kCellStride = 1024;

}  // namespace

Array2D apply_cells(const LocalBlock& block, const ScalarUdf& udf,
                    int threads) {
  validate(block, threads);
  const std::size_t n = owned_cell_count(block);
  Array2D out(Shape2D{block.owned_rows(), block.block_shape.cols});

  // Each thread's chunk is contiguous, so Algorithm 1's prefix offset
  // is the chunk start: writing R[begin:end] in place is its merge.
  fork_join(n, threads, [&](std::size_t /*thread*/, std::size_t begin,
                            std::size_t end) {
    DASSA_TRACE_SPAN("haee", "haee.apply_cells_chunk");
    for (std::size_t stride = begin; stride < end; stride += kCellStride) {
      const std::size_t stop = std::min(end, stride + kCellStride);
      for (std::size_t i = stride; i < stop; ++i) {
        out.data[i] = udf(stencil_at(block, i));
      }
      global_counters().add(counters::kTelemetryCellsProcessed,
                            static_cast<std::uint64_t>(stop - stride));
    }
  });
  return out;
}

Array2D apply_rows(const LocalBlock& block, const RowUdf& udf, int threads) {
  validate(block, threads);
  const std::size_t rows = block.owned_rows();
  // Each row is copied into the output as soon as it is computed, so the
  // output is never held twice; the first row to finish fixes the width.
  Array2D out;
  Mutex out_mu;
  fork_join(rows, threads, [&](std::size_t /*thread*/, std::size_t begin,
                               std::size_t end) {
    DASSA_TRACE_SPAN("haee", "haee.apply_rows_chunk");
    for (std::size_t r = begin; r < end; ++r) {
      const std::vector<double> row = udf(row_stencil(block, r));
      double* dst = nullptr;
      {
        MutexLock lock(out_mu);
        if (out.shape.rows == 0) out = Array2D(Shape2D{rows, row.size()});
        DASSA_CHECK(row.size() == out.shape.cols,
                    "row UDF returned inconsistent lengths");
        dst = out.data.data() + r * out.shape.cols;
      }
      std::copy(row.begin(), row.end(), dst);
      global_counters().add(counters::kTelemetryRowsProcessed);
    }
  });
  return out;
}

}  // namespace dassa::core
