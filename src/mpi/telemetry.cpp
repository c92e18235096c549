#include "dassa/mpi/telemetry.hpp"

#include "dassa/common/error.hpp"

namespace dassa::mpi {

ClusterTelemetry reduce_telemetry(Comm& comm, const Snapshot& mine,
                                  int root) {
  DASSA_CHECK(root >= 0 && root < comm.size(),
              "telemetry root out of range");
  const std::vector<std::vector<std::byte>> gathered =
      comm.gatherv<std::byte>(encode_snapshot(mine), root);
  if (comm.rank() != root) {
    ClusterTelemetry cluster;
    cluster.world_size = comm.size();
    return cluster;
  }
  DASSA_CHECK(gathered.size() == static_cast<std::size_t>(comm.size()),
              "telemetry gather returned wrong rank count");
  std::vector<Snapshot> ranks;
  ranks.reserve(gathered.size());
  for (const auto& frame : gathered) ranks.push_back(decode_snapshot(frame));
  return reduce_ranks(std::move(ranks));
}

}  // namespace dassa::mpi
