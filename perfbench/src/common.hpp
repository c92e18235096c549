// perfbench: shared types of the end-to-end benchmark driver.
//
// Every workload runs in its own process, in-process against the
// DASSA libraries, through the same public calls das_analyze,
// das_ingest and das_serve make. A workload returns a Result: the
// correctness verdict with its attempted/failed counts, the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run), and a
// machine-readable detail object carrying the named figures with their
// sample counts and the run context.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json.hpp"

namespace perfbench {

/// Command line of one measured run (see main.cpp for the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory holding the generated inputs of this run.
  std::string data_dir;
  /// Directory the traced run writes its span file into.
  std::string out_dir;
  /// Self-test hook: corrupt one program output before it is checked,
  /// so the run must report correct=false.
  bool corrupt = false;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric values by name; the names and units are main.cpp's tables.
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  Json detail = Json::object();

  /// Count one checked operation; a false `ok` is a failure.
  void check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
};

/// Sizes and settings of one workload's generated inputs. The same
/// values drive generation (a separate, untimed process) and the
/// measured run.
struct ArchiveSpec {
  std::size_t channels = 0;
  std::size_t files = 0;
  std::size_t samples_per_file = 0;
  double sampling_hz = 500.0;
};

/// Workload entry points. generate_* writes the inputs for `seed`
/// under opt.data_dir; run_* measures them.
void generate_batch(const Options& opt);
Result run_batch(const Options& opt);
void generate_ingest(const Options& opt);
Result run_ingest(const Options& opt);
void generate_serve(const Options& opt);
Result run_serve(const Options& opt);

/// Peak resident set of this process (VmHWM) since it started or since
/// the last reset_peak_rss(), in MiB.
double peak_rss_mb();
/// Return freed heap to the OS (malloc_trim) and restart the peak
/// resident set from the current one (/proc/self/clear_refs).
void reset_peak_rss();

}  // namespace perfbench
