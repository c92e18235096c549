// DASSA MiniMPI: cross-rank telemetry reduction.
//
// MiniMPI ranks are threads sharing one process-global counter
// registry, so "per-rank telemetry" cannot be read back from the
// globals -- each rank assembles its own Snapshot (from its comm
// statistics, read sizes, and stage clocks) and the runtime gathers
// them with a real gatherv of Snapshot frames (common/snapshot.hpp),
// exactly as the MPI deployment would. The root derives the cluster
// view: per-counter sum/min/max with the owning ranks and an imbalance
// ratio ("rank 3 did 2.4x the read bytes of rank 0"), plus histograms
// merged bucket-wise -- exact, because every histogram shares the same
// 64 power-of-two bins.
#pragma once

#include "dassa/common/snapshot.hpp"
#include "dassa/mpi/comm.hpp"

namespace dassa::mpi {

/// Collective: every rank contributes `mine`; the root returns the
/// full cluster view (reduce_ranks of the gathered frames), the other
/// ranks only the world size. Must be called by all ranks of the
/// communicator.
[[nodiscard]] ClusterTelemetry reduce_telemetry(Comm& comm,
                                                const Snapshot& mine,
                                                int root = 0);

}  // namespace dassa::mpi
