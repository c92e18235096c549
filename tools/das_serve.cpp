// das_serve: the query-serving daemon (docs/SERVING.md) -- expose one
// archive (a .vca logical file or a single DASH5 file) over a local
// Unix-domain socket. Concurrent clients' overlapping time-window
// reads are coalesced so N nearby requests cost ONE chunk decode
// through the shared archive handle (serve.batch.* counters tell the
// story; ServeConcurrency.SharedDecodeHalvesPerRequestDecodes pins it).
//
// Usage:
//   das_serve --socket <path> --archive <file.vca|file.dh5>
//             [--workers N]        union-read worker pool (default 4)
//             [--max-queue N]      admission queue capacity (default 64)
//             [--max-batch N]      requests per coalesce round (default 16)
//             [--coalesce-us US]   dispatcher hold time (default 500)
//             [--gap-cols N]       column gap still shared (default 0)
//             [--no-batching]      one union read per request
//             [--slow-ms MS]       structured serve.slow_request log for
//                                  requests over MS end-to-end (default 0: off)
//             [--no-request-tracing] disable per-stage timestamps (the
//                                  serve.lat.* histograms stay empty)
//             [--telemetry out.tlm] counter/gauge/latency-histogram
//                                  timeline (serve.request above all);
//                                  re-read with das_top --file out.tlm
//             [--telemetry-period-ms MS] [--log-json path] [--log-level L]
//
// Runs until SIGINT/SIGTERM, then drains gracefully: admitted requests
// are answered, late ones get an explicit kShuttingDown refusal.
// SIGUSR1 flushes the checked telemetry file mid-run (needs
// --telemetry); the daemon keeps serving. Live introspection without
// signals: das_top polls the kStats message on the main socket.
#include <atomic>
#include <chrono>
#include <csignal>
#include <iostream>
#include <thread>

#include "tool_common.hpp"
#include "dassa/common/log.hpp"
#include "dassa/common/telemetry.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/serve/server.hpp"

namespace {

using namespace dassa;

std::atomic<bool> g_stop{false};
std::atomic<bool> g_flush{false};

void handle_signal(int) { g_stop.store(true); }

void handle_flush(int) { g_flush.store(true); }

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv);
  if (!args.has("--socket") || !args.has("--archive")) {
    std::cerr << "usage: das_serve --socket <path> "
                 "--archive <file.vca|file.dh5>\n"
                 "[--workers N] [--max-queue N] [--max-batch N] "
                 "[--coalesce-us US] [--gap-cols N] [--no-batching]\n"
                 "[--slow-ms MS] [--no-request-tracing]\n"
                 "[--telemetry out.tlm] [--telemetry-period-ms MS] "
                 "[--log-json path] [--log-level L]\n"
                 "SIGUSR1 flushes the telemetry file mid-run; das_top "
                 "polls live stats over the socket\n"
                 "see the header comment of tools/das_serve.cpp for "
                 "semantics\n";
    return 2;
  }
  try {
    tools::configure_logging(args);

    telemetry::SamplerConfig sampler_config;
    sampler_config.period = std::chrono::milliseconds(
        args.get_long("--telemetry-period-ms", 25));
    telemetry::TelemetrySampler sampler(sampler_config);
    telemetry::TelemetryFile tlm;
    tlm.meta = {{"tool", "das_serve"}, {"pipeline", "serve"}};
    if (args.has("--telemetry")) {
      trace::set_enabled(true);
      sampler.start();
    }

    serve::ServeConfig cfg;
    cfg.socket_path = args.get("--socket");
    cfg.archive = args.get("--archive");
    cfg.workers = static_cast<std::size_t>(args.get_long("--workers", 4));
    cfg.queue_capacity =
        static_cast<std::size_t>(args.get_long("--max-queue", 64));
    cfg.max_batch =
        static_cast<std::size_t>(args.get_long("--max-batch", 16));
    cfg.coalesce_window_us =
        static_cast<std::uint64_t>(args.get_long("--coalesce-us", 500));
    cfg.gap_cols = static_cast<std::size_t>(args.get_long("--gap-cols", 0));
    cfg.batching = !args.has("--no-batching");
    cfg.request_tracing = !args.has("--no-request-tracing");
    cfg.slow_ns =
        static_cast<std::uint64_t>(args.get_long("--slow-ms", 0)) * 1000000;

    serve::Server server(cfg);

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGUSR1, handle_flush);
    server.start();
    std::cout << "das_serve: listening on " << cfg.socket_path << " ("
              << server.shape().str() << " from " << cfg.archive << ")\n";
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (g_flush.exchange(false) && args.has("--telemetry")) {
        sampler.tick();
        tools::export_telemetry(args.get("--telemetry"), tlm, sampler,
                                "serve.telemetry", /*report=*/false);
      }
    }
    server.stop();
    tools::log_counters("serve.counters", {"serve.", "io.index."});

    if (args.has("--telemetry")) {
      sampler.stop();
      sampler.tick();
      tools::export_telemetry(args.get("--telemetry"), tlm, sampler,
                              "serve.telemetry", /*report=*/true);
    }
    return 0;
  } catch (const std::exception& e) {
    DASSA_SLOG(kError, "serve.fail") << e.what();
    return 1;
  }
}
