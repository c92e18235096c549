// Fig. 8 reproduction: original (MPI-per-core) ArrayUDF vs the Hybrid
// ArrayUDF Execution Engine on the FFT-based cross-correlation
// workload (Algorithm 3), sweeping the simulated node count at fixed
// total data size.
//
// Paper findings at 16 cores/node, 91..728 nodes, 1.9 TB:
//   * MPI ArrayUDF runs OUT OF MEMORY at 91 nodes (the master channel
//     is duplicated 16x per node);
//   * at moderate scale MPI ArrayUDF computes slightly faster (no
//     thread-coordination overhead);
//   * at 728 nodes MPI ArrayUDF's read time blows up (11648 concurrent
//     I/O streams); HAEE issues 16x fewer I/O calls;
//   * write time is identical (both write one big array).
//
// Reproduced here with 4 cores/node over a scaled dataset. Rows report
// measured stage walls plus the structural metrics the paper's
// explanation rests on: I/O calls, master-channel copies, and modeled
// peak bytes/node (the OOM predictor).
#include <thread>

#include "bench_util.hpp"
#include "dassa/das/interferometry.hpp"

using namespace dassa;
using bench::BenchDir;
using bench::Table;

int main() {
  BenchDir dir("fig8");
  const std::size_t channels = 64;
  const std::size_t files_n = 8;
  const std::size_t samples = 600;
  const int cores = 16;  // the paper's 16 cores per node

  const auto paths =
      bench::make_acquisition(dir, "acq", channels, files_n, samples);
  io::Vca vca = io::Vca::build(paths);

  das::InterferometryParams params;
  params.sampling_hz = 100.0;
  params.butter_order = 3;
  params.band_lo_hz = 2.0;
  params.band_hi_hz = 30.0;
  params.resample_down = 2;
  params.master_channel = channels / 2;

  // Node RAM provisioned with 25% headroom over the single-node
  // working set (HAEE's block + output + one master copy) -- the
  // realistic sizing under which the paper's 91-node MPI run died:
  // the per-node data share fits, cores x duplicated master state
  // does not.
  core::EngineConfig probe;
  probe.nodes = 1;
  probe.cores_per_node = cores;
  probe.mode = core::EngineMode::kHybrid;
  const std::uint64_t node_budget_bytes = static_cast<std::uint64_t>(
      1.25 * static_cast<double>(
                 das::interferometry_distributed(probe, vca, params)
                     .modeled_peak_bytes_per_node));

  bench::section("Fig 8: MPI ArrayUDF vs Hybrid ArrayUDF (HAEE), " +
                 std::to_string(cores) + " cores/node");
  std::cout << "data: " << vca.shape() << ", node memory budget: "
            << node_budget_bytes << " bytes, host cores: "
            << std::thread::hardware_concurrency() << "\n\n";
  Table t({"nodes", "engine", "read_s", "compute_s", "write_s", "io_calls",
           "master_copies", "peak_B/node", "status"});

  for (const int nodes : {1, 2, 4, 8}) {
    for (const bool hybrid : {false, true}) {
      core::EngineConfig config;
      config.nodes = nodes;
      config.cores_per_node = cores;
      config.mode =
          hybrid ? core::EngineMode::kHybrid : core::EngineMode::kMpiPerCore;
      config.read_method = hybrid ? core::ReadMethod::kCommunicationAvoiding
                                  : core::ReadMethod::kDirectPerRank;

      global_counters().reset();
      const core::EngineReport report =
          das::interferometry_distributed(config, vca, params);

      const char* status =
          report.modeled_peak_bytes_per_node > node_budget_bytes
              ? "OOM(model)"
              : "ok";
      t.row(nodes, hybrid ? "HAEE" : "MPI", report.stages.get("read"),
            report.stages.get("compute"), report.stages.get("write"),
            global_counters().get(counters::kIoReadCalls),
            global_counters().get(counters::kMemMasterChannelCopies),
            report.modeled_peak_bytes_per_node, status);
    }
  }
  std::cout << "\npaper: MPI ArrayUDF OOMs at 91 nodes (16x master "
               "duplication), reads blow up at 728 nodes (16x more I/O "
               "calls); HAEE completes everywhere, writes identical\n";

  return 0;
}
