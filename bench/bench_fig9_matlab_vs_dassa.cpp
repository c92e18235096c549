// Fig. 9 reproduction: the same DAS analysis pipeline (Algorithm 3)
// developed MATLAB-style vs with DASSA, single node, one 1-minute file.
//
// Paper setup: one ~700 MB minute file, 12 threads for both systems;
// result: read and write are similar, MATLAB's compute is up to 16x
// slower because only individual vectorised kernels multithread while
// DASSA parallelises the entire per-channel pipeline.
//
// The baseline reproduces MATLAB's execution structure (stage-at-a-
// time, full-array temporaries, pass-by-value copies, serial channel
// loop; see src/das/baseline.cpp). The host may have fewer cores than
// the paper's 12 threads, so the bench reports, per the substitution
// note in EXPERIMENTS.md:
//   * measured one-thread walls (structure-only gap);
//   * measured 12-thread walls on the host's cores; and
//   * the modeled 12-thread compute walls: DASSA's one-thread
//     per-channel pipeline divided across 12 threads; the baseline's
//     serial channel loop does not divide (MATLAB for-loops are
//     single-threaded).
#include <thread>

#include "bench_util.hpp"
#include "dassa/das/baseline.hpp"

using namespace dassa;
using bench::BenchDir;
using bench::Table;

int main() {
  BenchDir dir("fig9");
  const std::size_t channels = 128;
  const std::size_t samples = 3000;  // scaled "1-minute file"
  const int threads = 12;            // the paper's thread count

  const auto paths = bench::make_acquisition(dir, "acq", channels, 1,
                                             samples, 500.0);
  WallTimer read_timer;
  io::Dash5File file(paths.front());
  const core::Array2D data(file.shape(), file.read_all());
  const double read_s = read_timer.seconds();

  das::InterferometryParams params;
  params.sampling_hz = 500.0;
  params.butter_order = 3;
  params.band_lo_hz = 2.0;
  params.band_hi_hz = 120.0;
  params.resample_down = 2;
  params.master_channel = channels / 2;

  const das::BaselineReport matlab =
      das::baseline_interferometry(data, params);
  const das::BaselineReport dassa_1t =
      das::dassa_interferometry(data, params, 1);
  const das::BaselineReport dassa =
      das::dassa_interferometry(data, params, threads);

  // Write stage: both emit one array (identical path), measured once.
  WallTimer write_timer;
  io::Dash5Header out_header;
  out_header.shape = dassa.output.shape;
  io::dash5_write(dir.file("out.dh5"), out_header, dassa.output.data);
  const double write_s = write_timer.seconds();

  const double matlab_compute = matlab.stages.total();
  const double dassa_compute_1t = dassa_1t.stages.total();
  const double dassa_compute = dassa.stages.total();

  // Modeled 12-thread walls: DASSA's channel loop divides by
  // min(threads, channels); the baseline's interpreted channel loop
  // stays serial (kernel-internal threading does not apply at
  // per-channel vector sizes, per the paper's explanation).
  const double speedup_threads =
      static_cast<double>(std::min<std::size_t>(threads, channels));
  const double dassa_compute_12t = dassa_compute_1t / speedup_threads;

  bench::section("Fig 9: MATLAB-style baseline vs DASSA, single node");
  const unsigned cores = std::thread::hardware_concurrency();
  std::cout << "input: " << data.shape << " (scaled 1-minute file), host "
            << "cores: " << cores << "\n\n";
  Table t({"system", "read_s", "compute_1t_s", "compute_12t_s", "write_s",
           "model12t_s"});
  t.row("MATLAB-style", read_s, matlab_compute, matlab_compute, write_s,
        matlab_compute);
  t.row("DASSA", read_s, dassa_compute_1t, dassa_compute, write_s,
        dassa_compute_12t);

  std::cout << "\nmeasured one-thread compute ratio (structure only): "
            << matlab_compute / dassa_compute_1t << "x\n"
            << "measured 12-thread compute ratio on " << cores
            << " cores: " << matlab_compute / dassa_compute << "x\n"
            << "modeled 12-thread compute ratio: "
            << matlab_compute / dassa_compute_12t
            << "x  (paper: up to 16x)\n"
            << "baseline materialised " << matlab.full_array_temporaries
            << " full-array temporaries, copied " << matlab.bytes_copied
            << " bytes through call boundaries\n";

  // Stage detail of the baseline (the paper's pipeline stages).
  bench::section("Baseline stage breakdown");
  Table s({"stage", "seconds"});
  for (const auto& [name, secs] : matlab.stages.stages()) {
    s.row(name, secs);
  }
  return 0;
}
