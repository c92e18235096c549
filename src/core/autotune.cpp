#include "dassa/core/autotune.hpp"

#include <algorithm>
#include <cmath>

#include "dassa/common/timer.hpp"
#include "dassa/core/apply.hpp"

namespace dassa::core {

namespace {

/// Per-rank modeled I/O + communication seconds for one read strategy,
/// mirroring the instrumented implementations in src/io/par_read.cpp.
double modeled_io_seconds(const ClusterSpec& cluster,
                          const WorkloadSpec& w, int ranks) {
  const double p = static_cast<double>(ranks);
  const double n = static_cast<double>(w.file_count);
  const double file_b = static_cast<double>(w.file_bytes);
  const double reads_per_rank = std::ceil(n / p);
  const double block_bytes =
      static_cast<double>(w.data_shape.size()) * sizeof(double) / p;

  switch (w.read) {
    case ReadMethod::kCommunicationAvoiding: {
      // Whole-file reads + one all-to-all: each rank's file bytes leave
      // once and its block arrives once. All ranks read at once, so
      // they share the storage system's aggregate bandwidth.
      const double io =
          reads_per_rank *
          cluster.io.call_cost(static_cast<std::size_t>(file_b), ranks);
      const double exchanged = 2.0 * reads_per_rank * file_b;
      const double msgs = 2.0 * std::max(0.0, p - 1.0);
      const double net =
          msgs * cluster.net.alpha_seconds +
          exchanged / cluster.net.beta_bytes_per_second;
      return io + net;
    }
    case ReadMethod::kCollectivePerFile: {
      // Aggregator reads + every file broadcast through every rank.
      const double io =
          reads_per_rank *
          cluster.io.call_cost(static_cast<std::size_t>(file_b), ranks);
      const double net =
          n * 2.0 * cluster.net.message_cost(static_cast<std::size_t>(file_b));
      return io + net;
    }
    case ReadMethod::kDirectPerRank: {
      // Every rank slabs every file; all ranks contend on each file.
      const double per_call = cluster.io.shared_call_cost(
          static_cast<std::size_t>(block_bytes / std::max(1.0, n)), ranks);
      return n * per_call;
    }
  }
  return 0.0;
}

}  // namespace

TunePoint predict(const ClusterSpec& cluster, const WorkloadSpec& workload,
                  int nodes) {
  DASSA_CHECK(nodes >= 1, "node count must be >= 1");
  const int ranks = workload.mode == EngineMode::kHybrid
                        ? nodes
                        : nodes * cluster.cores_per_node;
  const double total_cores =
      static_cast<double>(nodes) * cluster.cores_per_node;

  TunePoint point;
  point.nodes = nodes;
  // Compute: work divides over all cores in both modes (threads under
  // HAEE, ranks under MPI-per-core); the slowest core carries the
  // ceiling share.
  const double units_per_core =
      std::ceil(static_cast<double>(workload.work_units) / total_cores);
  point.compute_seconds = units_per_core * workload.seconds_per_unit;
  point.io_seconds = modeled_io_seconds(cluster, workload, ranks);
  return point;
}

TuneResult autotune_nodes(const ClusterSpec& cluster,
                          const WorkloadSpec& workload) {
  DASSA_CHECK(cluster.max_nodes >= 1, "cluster must have at least 1 node");
  DASSA_CHECK(workload.work_units >= 1, "workload has no work units");

  TuneResult result;
  // Geometric sweep first...
  std::vector<int> candidates;
  for (int n = 1; n <= cluster.max_nodes; n *= 2) candidates.push_back(n);
  if (candidates.back() != cluster.max_nodes) {
    candidates.push_back(cluster.max_nodes);
  }
  int best = 1;
  double best_total = -1.0;
  for (int n : candidates) {
    const TunePoint p = predict(cluster, workload, n);
    result.sweep.push_back(p);
    if (best_total < 0.0 || p.total() < best_total) {
      best_total = p.total();
      best = n;
    }
  }
  // ...then refine linearly around the geometric minimum.
  const int lo = std::max(1, best / 2 + 1);
  const int hi = std::min(cluster.max_nodes, best * 2 - 1);
  const int step = std::max(1, (hi - lo) / 16);
  for (int n = lo; n <= hi; n += step) {
    const TunePoint p = predict(cluster, workload, n);
    if (p.total() < best_total) {
      best_total = p.total();
      best = n;
    }
  }
  result.best_nodes = best;
  result.best_seconds = best_total;

  // Knee point over the geometric sweep: stop doubling once a doubling
  // stops buying kKneeSpeedup (the paper's "best efficiency" reading of
  // its 364-node sweet spot).
  result.recommended_nodes = result.sweep.front().nodes;
  result.recommended_seconds = result.sweep.front().total();
  for (std::size_t i = 0; i + 1 < result.sweep.size(); ++i) {
    const double speedup =
        result.sweep[i].total() / result.sweep[i + 1].total();
    if (speedup < TuneResult::kKneeSpeedup) break;
    result.recommended_nodes = result.sweep[i + 1].nodes;
    result.recommended_seconds = result.sweep[i + 1].total();
  }
  // The linear refinement can find a faster point below the geometric
  // knee; never recommend more nodes than the fastest configuration.
  if (result.recommended_nodes > result.best_nodes) {
    result.recommended_nodes = result.best_nodes;
    result.recommended_seconds = result.best_seconds;
  }
  return result;
}

double calibrate_row_udf(const io::ArraySource& source, const RowUdf& udf,
                         std::size_t sample_rows) {
  const Shape2D shape = source.shape();
  DASSA_CHECK(shape.rows >= 1, "cannot calibrate on an empty array");
  sample_rows = std::max<std::size_t>(1, std::min(sample_rows, shape.rows));

  // Sample rows spread across the array (channels can differ in
  // content but not in per-channel cost for DasLib chains).
  double seconds = 0.0;
  for (std::size_t i = 0; i < sample_rows; ++i) {
    const std::size_t row = i * (shape.rows - 1) /
                            std::max<std::size_t>(1, sample_rows - 1);
    const std::vector<double> data =
        source.read_slab(Slab2D{row, 0, 1, shape.cols});
    const Array2D one(Shape2D{1, shape.cols}, data);
    const LocalBlock block = LocalBlock::whole(one);
    WallTimer timer;
    (void)apply_rows(block, udf, 1);
    seconds += timer.seconds();
  }
  return seconds / static_cast<double>(sample_rows);
}

WorkloadSpec workload_for_rows(const io::Vca& vca, double seconds_per_unit) {
  WorkloadSpec w;
  w.data_shape = vca.shape();
  w.file_count = vca.members().size();
  w.file_bytes = vca.members().front().shape.size() * sizeof(double);
  w.work_units = vca.shape().rows;
  w.seconds_per_unit = seconds_per_unit;
  return w;
}

}  // namespace dassa::core
