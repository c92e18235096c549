// Cross-rank telemetry reduction: a real gatherv of Snapshot frames over
// a 4-rank MiniMPI world, and the exact aggregate math derived from
// them. Every assertion here is an equality -- the reduction is a
// gather of integers, so nothing is approximate.
#include "dassa/mpi/telemetry.hpp"

#include <gtest/gtest.h>

#include "dassa/common/metrics.hpp"
#include "dassa/mpi/runtime.hpp"

namespace dassa::mpi {
namespace {

TEST(TelemetryReduce, FourRankAggregatesAreExact) {
  Runtime::run(4, [](Comm& comm) {
    const auto rank = static_cast<std::uint64_t>(comm.rank());

    Snapshot mine;
    mine.counters["haee.rows_owned"] = (rank + 1) * 1000;
    if (comm.rank() == 1) mine.counters["haee.halo_exchanges"] = 7;

    // Rank r records (r + 1) samples of 2^r ns: bucket r of the merged
    // histogram must hold exactly r + 1 entries.
    LatencyHistogram hist;
    for (std::uint64_t i = 0; i <= rank; ++i) {
      hist.record_ns(std::uint64_t{1} << rank);
    }
    mine.hists["haee.stage_ns"] = hist.snapshot();

    const ClusterTelemetry cluster = reduce_telemetry(comm, mine, 0);
    EXPECT_EQ(cluster.world_size, 4);
    if (comm.rank() != 0) {
      // Non-root ranks get no reduced data back.
      EXPECT_TRUE(cluster.per_rank.empty());
      EXPECT_TRUE(cluster.counters.empty());
      return;
    }

    ASSERT_EQ(cluster.per_rank.size(), 4u);
    // Each rank's frame arrives exactly as it was sent.
    EXPECT_EQ(cluster.per_rank[static_cast<std::size_t>(comm.rank())], mine);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(cluster.per_rank[static_cast<std::size_t>(r)].counters.at(
                    "haee.rows_owned"),
                static_cast<std::uint64_t>(r + 1) * 1000);
    }

    const CounterAggregate& rows = cluster.counters.at("haee.rows_owned");
    EXPECT_EQ(rows.sum, 10000u);  // 1000 + 2000 + 3000 + 4000
    EXPECT_EQ(rows.min, 1000u);
    EXPECT_EQ(rows.min_rank, 0);
    EXPECT_EQ(rows.max, 4000u);
    EXPECT_EQ(rows.max_rank, 3);
    // max / mean = 4000 / 2500.
    EXPECT_DOUBLE_EQ(rows.imbalance(cluster.world_size), 1.6);

    // A counter only one rank charged: absent ranks count as zero.
    const CounterAggregate& halo =
        cluster.counters.at("haee.halo_exchanges");
    EXPECT_EQ(halo.sum, 7u);
    EXPECT_EQ(halo.min, 0u);
    EXPECT_EQ(halo.max, 7u);
    EXPECT_EQ(halo.max_rank, 1);

    const HistogramSnapshot& merged = cluster.hists.at("haee.stage_ns");
    EXPECT_EQ(merged.count, 10u);  // 1 + 2 + 3 + 4
    for (std::size_t b = 0; b < 4; ++b) {
      EXPECT_EQ(merged.buckets[b], b + 1);
    }
    std::uint64_t expected_total = 0;
    for (std::uint64_t r = 0; r < 4; ++r) {
      expected_total += (r + 1) * (std::uint64_t{1} << r);
    }
    EXPECT_EQ(merged.total_ns, expected_total);
  });
}

TEST(TelemetryReduce, ZeroCounterHasUnitImbalance) {
  Runtime::run(2, [](Comm& comm) {
    Snapshot mine;
    mine.counters["haee.runs"] = 0;
    const ClusterTelemetry cluster = reduce_telemetry(comm, mine, 0);
    if (comm.rank() != 0) return;
    const CounterAggregate& agg = cluster.counters.at("haee.runs");
    EXPECT_EQ(agg.sum, 0u);
    EXPECT_DOUBLE_EQ(agg.imbalance(cluster.world_size), 1.0);
  });
}

TEST(TelemetryReduce, NonZeroRootCollects) {
  Runtime::run(3, [](Comm& comm) {
    Snapshot mine;
    mine.counters["haee.rows_owned"] =
        static_cast<std::uint64_t>(comm.rank()) + 1;
    const ClusterTelemetry cluster = reduce_telemetry(comm, mine, 2);
    if (comm.rank() != 2) {
      EXPECT_TRUE(cluster.per_rank.empty());
      return;
    }
    EXPECT_EQ(cluster.counters.at("haee.rows_owned").sum, 6u);
  });
}

}  // namespace
}  // namespace dassa::mpi
