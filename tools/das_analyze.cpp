// das_analyze: run a DASSA analysis pipeline over an acquisition
// directory from the command line -- the end-to-end workflow a
// geophysicist runs (search -> VCA -> HAEE -> output file).
//
// Usage:
//   das_analyze --dir data --pipeline similarity --out result.dh5
//               [-s yymmddhhmmss -c N | -e regex]   (default: all files)
//               [--nodes 4] [--cores 2] [--mpi-per-core]
//
// --out (or -o) is required for the pipelines that produce an output
// array (similarity, interferometry): the tool never silently drops
// artifacts into the current working directory.
//   pipeline "similarity":  paper Algorithm 2 (local similarity)
//     [--window-half M] [--lag-half L] [--channel-offset K]
//   pipeline "interferometry": paper Algorithm 3
//     [--band-lo HZ] [--band-hi HZ] [--resample-down R]
//     [--master CH] [--full-correlation]
//   pipeline "qc": channel quality control
//     [--dead-fraction F] [--noisy-multiple M]
//   any pipeline:
//     [--trace out.json]      enable span tracing, export chrome://tracing
//                             JSON to out.json (inspect with das_trace)
//     [--telemetry out.tlm]   sample counters/gauges/histograms during
//                             the run, write the telemetry file (timeline
//                             + per-rank snapshots), and print the run
//                             report to stdout (re-read it later with
//                             das_top --file out.tlm)
//     [--telemetry-period-ms MS] sampler period (default 25)
//     [--log-json path]       mirror log records to a JSONL file
//     [--log-level L]         debug|info|warn|error (default info)
#include <fstream>
#include <iostream>
#include <sstream>

#include "tool_common.hpp"
#include "dassa/common/log.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/common/telemetry.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/das/channel_qc.hpp"
#include "dassa/das/interferometry.hpp"
#include "dassa/das/local_similarity.hpp"
#include "dassa/das/search.hpp"
#include "dassa/dsp/stats.hpp"

namespace {

using namespace dassa;

/// Export the recorded spans as chrome://tracing JSON plus a per-span
/// summary and the unified metrics report. No-op unless --trace given.
void maybe_export_trace(const tools::Args& args) {
  if (!args.has("--trace")) return;
  const std::string path = args.get("--trace");
  trace::publish_trace_counters();
  const std::vector<trace::TraceEvent> events = trace::collect();
  std::ofstream out(path);
  DASSA_CHECK(out.good(), "cannot open trace output file: " + path);
  trace::write_chrome_trace(out, events);
  std::ostringstream summary;
  trace::write_summary(summary, events);
  global_metrics().write_report(summary);
  DASSA_SLOG(kInfo, "analyze.trace")
          .field("spans", static_cast<std::uint64_t>(events.size()))
          .field("path", path)
      << "\n"
      << summary.str();
}

std::vector<std::string> find_files(const tools::Args& args) {
  const das::Catalog catalog = das::Catalog::scan(args.get("--dir"));
  std::vector<das::DasFileInfo> hits;
  if (args.has("-s")) {
    hits = catalog.query_range(
        das::Timestamp::parse(args.get("-s")),
        static_cast<std::size_t>(args.get_long("-c", 1)));
  } else if (args.has("-e")) {
    hits = catalog.query_regex(args.get("-e"));
  } else {
    hits = catalog.entries();
  }
  return das::Catalog::paths(hits);
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv);
  if (!args.has("--dir") || !args.has("--pipeline")) {
    std::cerr << "usage: das_analyze --dir <dir> --pipeline "
                 "<similarity|interferometry|qc> [--out result.dh5] "
                 "[options]\n"
                 "--out/-o is required unless the pipeline is qc\n"
                 "see the header comment of tools/das_analyze.cpp "
                 "for the full option list\n";
    return 2;
  }
  try {
    tools::configure_logging(args);
    if (args.has("--trace")) trace::set_enabled(true);

    telemetry::SamplerConfig sampler_config;
    sampler_config.period = std::chrono::milliseconds(
        args.get_long("--telemetry-period-ms", 25));
    telemetry::TelemetrySampler sampler(sampler_config);
    if (args.has("--telemetry")) {
      trace::set_enabled(true);  // stall detection needs open spans
      sampler.start();
    }

    const std::vector<std::string> files = find_files(args);
    if (files.empty()) {
      DASSA_SLOG(kError, "analyze.no_files")
          .field("dir", args.get("--dir"));
      return 1;
    }
    io::Vca vca = io::Vca::build(files);
    DASSA_SLOG(kInfo, "analyze.input")
            .field("files", static_cast<std::uint64_t>(files.size()))
        << vca.shape();

    core::EngineConfig config;
    config.nodes = static_cast<int>(args.get_long("--nodes", 2));
    config.cores_per_node = static_cast<int>(args.get_long("--cores", 2));
    config.mode = args.has("--mpi-per-core")
                      ? core::EngineMode::kMpiPerCore
                      : core::EngineMode::kHybrid;

    core::EngineReport report;
    const std::string pipeline = args.get("--pipeline");
    // Array-producing pipelines must name their destination: writing a
    // default file into whatever directory the tool happens to run
    // from litters CWDs (and CI checkouts) with artifacts.
    if (pipeline != "qc" && !args.has("--out") && !args.has("-o")) {
      DASSA_SLOG(kError, "analyze.no_out")
          << "--out/-o is required for pipeline '" << pipeline
          << "' (it writes a result array); pass --out result.dh5";
      return 2;
    }
    if (pipeline == "similarity") {
      das::LocalSimilarityParams p;
      p.window_half =
          static_cast<std::size_t>(args.get_long("--window-half", 25));
      p.lag_half = static_cast<std::size_t>(args.get_long("--lag-half", 10));
      p.channel_offset =
          static_cast<std::size_t>(args.get_long("--channel-offset", 1));
      report = das::local_similarity_distributed(config, vca, p);
    } else if (pipeline == "interferometry") {
      das::InterferometryParams p;
      p.sampling_hz =
          vca.global_meta().get_f64(io::meta::kSamplingFrequencyHz);
      p.band_lo_hz = args.get_double("--band-lo", 1.0);
      p.band_hi_hz =
          args.get_double("--band-hi", 0.45 * p.sampling_hz);
      p.resample_down =
          static_cast<std::size_t>(args.get_long("--resample-down", 2));
      p.master_channel = static_cast<std::size_t>(
          args.get_long("--master",
                        static_cast<long>(vca.shape().rows / 2)));
      p.full_correlation = args.has("--full-correlation");
      report = das::interferometry_distributed(config, vca, p);
    } else if (pipeline == "qc") {
      das::ChannelQcParams p;
      p.dead_rms_fraction = args.get_double("--dead-fraction", 0.1);
      p.noisy_rms_multiple = args.get_double("--noisy-multiple", 5.0);
      const das::ChannelQcReport qc = das::channel_qc(config, vca, p);
      std::cout << "channel,rms,peak,kurtosis,status\n";
      for (std::size_t ch = 0; ch < qc.channels.size(); ++ch) {
        const das::ChannelStats& c = qc.channels[ch];
        std::cout << ch << "," << c.rms << "," << c.peak << ","
                  << c.kurtosis << ","
                  << das::channel_status_name(c.status) << "\n";
      }
      DASSA_SLOG(kInfo, "analyze.qc")
          .field("channels", static_cast<std::uint64_t>(qc.channels.size()))
          .field("dead", static_cast<std::uint64_t>(
                             qc.count(das::ChannelStatus::kDead)))
          .field("noisy", static_cast<std::uint64_t>(
                              qc.count(das::ChannelStatus::kNoisy)))
          .field("median_rms", qc.median_rms);
      dsp::publish_dsp_counters();
      tools::log_counters("analyze.dsp_counters", {"dsp."});
      tools::log_counters("analyze.storage_counters",
                          {"io.codec.", "io.cache."});
      maybe_export_trace(args);
      if (args.has("--telemetry")) {
        sampler.stop();
        DASSA_SLOG(kWarn, "analyze.telemetry")
            << "--telemetry needs a distributed pipeline "
               "(similarity|interferometry); qc has no rank telemetry";
      }
      return 0;
    } else {
      DASSA_SLOG(kError, "analyze.bad_pipeline").field("pipeline", pipeline);
      return 2;
    }

    std::ostringstream stages;
    stages << report.output.shape << "; " << report.stages;
    DASSA_SLOG(kInfo, "analyze.done")
            .field("world_size", report.world_size)
        << stages.str();
    dsp::publish_dsp_counters();
    tools::log_counters("analyze.dsp_counters", {"dsp."});
    tools::log_counters("analyze.storage_counters", {"io.codec.", "io.cache."});
    const std::string out_path =
        args.has("--out") ? args.get("--out") : args.get("-o");
    io::Dash5Header header;
    header.shape = report.output.shape;
    header.global = vca.global_meta();
    io::dash5_write(out_path, header, report.output.data);
    DASSA_SLOG(kInfo, "analyze.output").field("path", out_path);
    maybe_export_trace(args);
    if (args.has("--telemetry")) {
      sampler.stop();
      sampler.tick();  // final sample: the completed run's totals
      // The sampler timeline plus the engine's per-rank snapshots.
      telemetry::TelemetryFile file;
      file.meta = {{"tool", "das_analyze"},
                   {"pipeline", pipeline},
                   {"world_size", std::to_string(report.world_size)},
                   {"threads_per_rank",
                    std::to_string(report.threads_per_rank)}};
      file.ranks = report.telemetry.per_rank;
      tools::export_telemetry(args.get("--telemetry"), std::move(file),
                              sampler, "analyze.telemetry",
                              /*report=*/true);
    }
    return 0;
  } catch (const std::exception& e) {
    DASSA_SLOG(kError, "analyze.fail") << e.what();
    return 1;
  }
}
