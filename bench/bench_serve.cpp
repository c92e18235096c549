// Query-serving benchmark: shared-decode batching and the time-interval
// index (docs/SERVING.md).
//
// Drives a real in-process das_serve Server over its Unix-domain socket
// with 8 concurrent clients whose time windows overlap 75%, and gates:
//
//   * shared decode: the served run's io.codec.decode_calls stay at or
//     under HALF of the unbatched baseline (one fresh archive handle
//     per request -- fresh file_ids, so the global ChunkCache cannot
//     help, which is exactly what a naive per-request server does);
//   * correctness: every served payload is byte-identical to a direct
//     Dash5File/Vca read of the same slab;
//   * batching engaged: at least one coalesce round folded >= 2
//     requests into one union read (serve.batch.coalesced);
//   * no drops: serve.queue.pushed == serve.queue.popped after drain;
//   * latency: serve.request p50/p99 under generous runner-noise
//     ceilings -- measured WITH request tracing enabled, so the gates
//     below also bound the instrumented configuration;
//   * live-stats reconciliation: a kStats poll taken after the run
//     quiesces agrees EXACTLY -- counter for counter, bucket for
//     bucket -- with the daemon's own in-process registries (what the
//     end-of-run telemetry export serializes), and every serve.lat.*
//     stage histogram holds exactly one record per response;
//   * tracing overhead: the per-request cost tracing adds (5 clock
//     reads + 4 histogram records, micro-measured) stays under 1% of
//     the observed p50;
//   * index scaling: a point query against a 1000-member interval
//     index touches O(log n + k) entries (pinned bound), against the
//     n the linear fallback pays.
//
// Usage: bench_serve [--check] [--out BENCH_serve.json]
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>

#include "bench_util.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/das/search.hpp"
#include "dassa/io/interval_index.hpp"
#include "dassa/serve/client.hpp"
#include "dassa/serve/server.hpp"
#include "dassa/serve/stats.hpp"

using namespace dassa;
using bench::BenchDir;
using bench::Table;

namespace {

constexpr std::size_t kClients = 8;
constexpr std::size_t kRequestsPerClient = 4;
constexpr std::size_t kChannels = 32;
constexpr std::size_t kFiles = 8;
constexpr std::size_t kSamplesPerFile = 400;
constexpr std::size_t kWindowCols = 512;
constexpr std::size_t kStrideCols = kWindowCols / 4;  // 75% overlap

constexpr double kP50CeilingNs = 1.0e9;
constexpr double kP99CeilingNs = 2.0e9;

constexpr std::size_t kIndexMembers = 1000;

/// The deterministic 75%-overlapping request schedule: client c's r-th
/// window starts kStrideCols past the previous client's.
Slab2D request_slab(std::size_t client, std::size_t request,
                    const Shape2D& shape) {
  const std::size_t steps = (shape.cols - kWindowCols) / kStrideCols + 1;
  const std::size_t step = (client + request * kClients) % steps;
  return Slab2D{0, step * kStrideCols, shape.rows, kWindowCols};
}

std::uint64_t counter(const char* name) {
  return global_counters().get(name);
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_serve [--check] [--out FILE]\n";
      return 2;
    }
  }

  BenchDir dir("serve");

  // A chunked + compressed acquisition, so every read really decodes.
  const das::SynthDas synth = das::SynthDas::fig1b_scene(kChannels, 100.0);
  das::AcquisitionSpec spec;
  spec.dir = dir.file("data");
  spec.start = das::Timestamp::parse("170728224510");
  spec.file_count = kFiles;
  spec.seconds_per_file = static_cast<double>(kSamplesPerFile) / 100.0;
  spec.chunk = io::ChunkShape{16, 128};
  spec.codec = io::CodecSpec::parse("shuffle+lz");
  spec.per_channel_metadata = false;
  const std::vector<std::string> files = das::write_acquisition(synth, spec);

  const std::string vca_path = dir.file("arch.vca");
  das::save_vca_with_index(io::Vca::build(files), vca_path);

  global_counters().reset();
  global_metrics().reset();

  // Expected payloads through one reference handle (decodes charged
  // here are excluded from both measured phases below).
  const io::Vca ref = io::Vca::load(vca_path);
  const Shape2D shape = ref.shape();
  std::vector<std::vector<double>> expected(kClients * kRequestsPerClient);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
      expected[c * kRequestsPerClient + r] =
          ref.read_slab(request_slab(c, r, shape));
    }
  }

  // ---- Unbatched baseline: a fresh handle per request, the way a
  // per-request server (or N independent das_analyze runs) pays.
  const std::uint64_t decodes_before_baseline =
      counter(counters::kIoCodecDecodeCalls);
  WallTimer baseline_timer;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
      const io::Vca fresh = io::Vca::load(vca_path);
      const std::vector<double> got =
          fresh.read_slab(request_slab(c, r, shape));
      if (got != expected[c * kRequestsPerClient + r]) {
        std::cerr << "bench_serve: baseline read mismatch\n";
        return 1;
      }
    }
  }
  const double baseline_s = baseline_timer.seconds();
  const std::uint64_t baseline_decodes =
      counter(counters::kIoCodecDecodeCalls) - decodes_before_baseline;

  // ---- Served run: one shared handle behind the coalescing server.
  serve::ServeConfig cfg;
  cfg.socket_path = dir.file("serve.sock");
  cfg.archive = vca_path;
  cfg.workers = 2;
  cfg.max_batch = 16;
  cfg.coalesce_window_us = 20000;  // generous: single-core runners
  serve::Server server(cfg);
  const std::uint64_t decodes_before_served =
      counter(counters::kIoCodecDecodeCalls);
  server.start();

  std::atomic<std::size_t> mismatches{0};
  WallTimer served_timer;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::Client client(cfg.socket_path);
      for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
        const std::vector<double> got =
            client.read_slab(request_slab(c, r, shape));
        if (got != expected[c * kRequestsPerClient + r]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double served_s = served_timer.seconds();

  // ---- Live-stats reconciliation, the das_top attach scenario: poll
  // kStats on the still-running server until the trace quiesces (the
  // worker records a request's histograms after writing its reply, so
  // a client can see the last payload a beat before the counts land),
  // then demand the polled snapshot agree exactly with the in-process
  // registries the end-of-run telemetry export serializes.
  constexpr std::uint64_t kTotalRequests = kClients * kRequestsPerClient;
  Snapshot polled;
  {
    serve::Connection stats_conn = serve::connect_local(cfg.socket_path);
    for (int spin = 0; spin < 2000; ++spin) {
      polled = serve::fetch_stats(stats_conn);
      const auto req = polled.hists.find(serve::lat::kRequest);
      const auto wr = polled.hists.find(serve::lat::kWrite);
      if (req != polled.hists.end() && req->second.count >= kTotalRequests &&
          wr != polled.hists.end() && wr->second.count >= kTotalRequests) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  server.stop();

  bool stats_reconciled = true;
  {
    const auto local_hists = global_metrics().snapshot();
    const auto local_counters = global_counters().snapshot();
    for (const char* name :
         {serve::lat::kRequest, serve::lat::kQueueWait, serve::lat::kCoalesce,
          serve::lat::kDecode, serve::lat::kWrite}) {
      const auto pit = polled.hists.find(name);
      const auto lit = local_hists.find(name);
      if (pit == polled.hists.end() || lit == local_hists.end() ||
          !(pit->second == lit->second) ||
          pit->second.count != kTotalRequests) {
        std::cerr << "bench_serve: stats snapshot disagrees with the local "
                     "registry for "
                  << name << "\n";
        stats_reconciled = false;
      }
    }
    for (const auto& [name, value] : local_counters) {
      // stats.* moved between the poll and this snapshot (our own
      // polling), and the byte counters are charged by the socket layer
      // for the stats reply itself after the snapshot was collected;
      // everything else was quiescent.
      if (name.rfind("stats.", 0) == 0) continue;
      if (name == "serve.bytes_received" || name == "serve.bytes_sent") {
        continue;
      }
      if (!polled.counters.contains(name) || polled.counter(name) != value) {
        std::cerr << "bench_serve: stats counter " << name
                  << " disagrees with the local registry\n";
        stats_reconciled = false;
      }
    }
  }

  // ---- Tracing-overhead micro-gate: the work request tracing adds to
  // one request's hot path is 5 extra clock reads and 4 extra
  // histogram records; measure that directly and bound it against the
  // observed p50.
  constexpr int kOverheadIters = 100000;
  LatencyHistogram scratch;
  std::uint64_t sink = 0;
  WallTimer overhead_timer;
  for (int i = 0; i < kOverheadIters; ++i) {
    const std::uint64_t t0 = trace::detail::now_ns();
    const std::uint64_t t1 = trace::detail::now_ns();
    const std::uint64_t t2 = trace::detail::now_ns();
    const std::uint64_t t3 = trace::detail::now_ns();
    const std::uint64_t t4 = trace::detail::now_ns();
    scratch.record_ns(t1 - t0);
    scratch.record_ns(t2 - t1);
    scratch.record_ns(t3 - t2);
    scratch.record_ns(t4 - t3);
    sink += t4;
  }
  const double overhead_ns_per_request =
      overhead_timer.seconds() * 1e9 / kOverheadIters;
  if (sink == 0) std::cerr << "";  // keep the measured loop observable
  const std::uint64_t served_decodes =
      counter(counters::kIoCodecDecodeCalls) - decodes_before_served;

  const std::uint64_t pushed = counter(counters::kServeQueuePushed);
  const std::uint64_t popped = counter(counters::kServeQueuePopped);
  const std::uint64_t groups = counter(counters::kServeBatchGroups);
  const std::uint64_t coalesced = counter(counters::kServeBatchCoalesced);
  const std::uint64_t union_reads = counter(counters::kServeBatchUnionReads);
  const std::uint64_t responses = counter(counters::kServeResponses);

  const auto latency = global_metrics().histogram("serve.request").snapshot();
  const double p50_ns = latency.quantile_ns(0.50);
  const double p99_ns = latency.quantile_ns(0.99);
  const double overhead_ratio =
      p50_ns > 0 ? overhead_ns_per_request / p50_ns : 1.0;
  const double decode_ratio =
      baseline_decodes == 0
          ? 1.0
          : static_cast<double>(served_decodes) /
                static_cast<double>(baseline_decodes);

  // ---- Interval index scaling: O(log n + k) probes on 1000 members,
  // persisted and loaded back, vs the n a linear fallback scans.
  std::vector<io::IntervalEntry> entries(kIndexMembers);
  for (std::size_t i = 0; i < kIndexMembers; ++i) {
    entries[i] = io::IntervalEntry{static_cast<std::int64_t>(i * 10),
                                   static_cast<std::int64_t>((i + 1) * 10), i,
                                   i * 100, 100};
  }
  io::IntervalIndex::build(entries).save_atomic(dir.file("big.tix"));
  const io::IntervalIndex big = io::IntervalIndex::load(dir.file("big.tix"));
  const std::uint64_t touches_before =
      counter(counters::kIoIndexEntryTouches);
  const std::vector<io::IntervalEntry> hits = big.query(5000, 5030);
  const std::uint64_t index_touches =
      counter(counters::kIoIndexEntryTouches) - touches_before;
  // Binary search probes plus the k hits plus a constant overscan.
  const std::uint64_t touch_bound =
      2 * static_cast<std::uint64_t>(std::ceil(std::log2(kIndexMembers))) +
      hits.size() + 4;

  bench::section("query serving: shared-decode batching");
  Table table({"metric", "value"});
  table.row("requests", static_cast<std::uint64_t>(kClients *
                                                   kRequestsPerClient));
  table.row("baseline_decodes", baseline_decodes);
  table.row("served_decodes", served_decodes);
  table.row("decode_ratio", decode_ratio);
  table.row("batch_groups", groups);
  table.row("batch_coalesced", coalesced);
  table.row("union_reads", union_reads);
  table.row("latency_p50_ms", p50_ns / 1e6);
  table.row("latency_p99_ms", p99_ns / 1e6);
  table.row("tracing_overhead_ns", overhead_ns_per_request);
  table.row("tracing_overhead_ratio", overhead_ratio);
  table.row("stats_reconciled", stats_reconciled ? 1u : 0u);
  table.row("index_touches", index_touches);
  table.row("index_touch_bound", touch_bound);

  std::ofstream json(out_path, std::ios::trunc);
  json << "{\n  \"bench\": \"serve\",\n"
       << "  \"clients\": " << kClients << ",\n"
       << "  \"requests\": " << kClients * kRequestsPerClient << ",\n"
       << "  \"overlap\": 0.75,\n"
       << "  \"baseline_seconds\": " << baseline_s << ",\n"
       << "  \"served_seconds\": " << served_s << ",\n"
       << "  \"baseline_decodes\": " << baseline_decodes << ",\n"
       << "  \"served_decodes\": " << served_decodes << ",\n"
       << "  \"decode_ratio\": " << decode_ratio << ",\n"
       << "  \"batch\": {\"groups\": " << groups
       << ", \"coalesced\": " << coalesced
       << ", \"union_reads\": " << union_reads << "},\n"
       << "  \"queue\": {\"pushed\": " << pushed << ", \"popped\": " << popped
       << "},\n"
       << "  \"responses\": " << responses << ",\n"
       << "  \"byte_identical\": "
       << (mismatches.load() == 0 ? "true" : "false") << ",\n"
       << "  \"latency_p50_ns\": " << p50_ns << ",\n"
       << "  \"latency_p99_ns\": " << p99_ns << ",\n"
       << "  \"tracing\": {\"enabled\": true, \"overhead_ns_per_request\": "
       << overhead_ns_per_request << ", \"overhead_ratio\": "
       << overhead_ratio << ", \"stats_reconciled\": "
       << (stats_reconciled ? "true" : "false") << "},\n"
       << "  \"index\": {\"members\": " << kIndexMembers
       << ", \"hits\": " << hits.size() << ", \"touches\": " << index_touches
       << ", \"touch_bound\": " << touch_bound
       << ", \"linear_touches\": " << kIndexMembers << "},\n"
       << "  \"thresholds\": {\"decode_ratio_max\": 0.5, "
       << "\"p50_ceiling_ns\": " << kP50CeilingNs
       << ", \"p99_ceiling_ns\": " << kP99CeilingNs << "}\n}\n";
  json.close();
  std::cout << "\nwrote " << out_path << "\n";

  if (check) {
    bool ok = true;
    if (mismatches.load() != 0) {
      std::cerr << "bench_serve CHECK FAILED: " << mismatches.load()
                << " served payloads differ from direct reads\n";
      ok = false;
    }
    if (decode_ratio > 0.5) {
      std::cerr << "bench_serve CHECK FAILED: served decodes "
                << served_decodes << " vs baseline " << baseline_decodes
                << " (ratio " << decode_ratio
                << " > 0.5; shared decode is not engaging)\n";
      ok = false;
    }
    if (coalesced < 2) {
      std::cerr << "bench_serve CHECK FAILED: no coalesce round folded "
                   "multiple requests (serve.batch.coalesced = "
                << coalesced << ")\n";
      ok = false;
    }
    if (pushed != popped ||
        pushed != kClients * kRequestsPerClient) {
      std::cerr << "bench_serve CHECK FAILED: queue dropped work (pushed "
                << pushed << ", popped " << popped << ", expected "
                << kClients * kRequestsPerClient << ")\n";
      ok = false;
    }
    if (responses != kClients * kRequestsPerClient) {
      std::cerr << "bench_serve CHECK FAILED: " << responses
                << " responses for " << kClients * kRequestsPerClient
                << " requests\n";
      ok = false;
    }
    if (p50_ns > kP50CeilingNs || p99_ns > kP99CeilingNs) {
      std::cerr << "bench_serve CHECK FAILED: latency p50 " << p50_ns / 1e6
                << " ms / p99 " << p99_ns / 1e6
                << " ms over ceilings (request tracing enabled)\n";
      ok = false;
    }
    if (!stats_reconciled) {
      std::cerr << "bench_serve CHECK FAILED: the kStats snapshot polled "
                   "off the live server does not reconcile with the "
                   "daemon's own registries\n";
      ok = false;
    }
    if (overhead_ratio >= 0.01) {
      std::cerr << "bench_serve CHECK FAILED: request tracing costs "
                << overhead_ns_per_request << " ns/request, "
                << overhead_ratio * 100
                << "% of the observed p50 (budget: < 1%)\n";
      ok = false;
    }
    if (index_touches > touch_bound) {
      std::cerr << "bench_serve CHECK FAILED: indexed query touched "
                << index_touches << " entries, bound " << touch_bound
                << " (O(log n + k) regressed toward the linear "
                << kIndexMembers << ")\n";
      ok = false;
    }
    if (!ok) return 1;
    std::cout << "bench_serve check passed: decode ratio " << decode_ratio
              << ", " << coalesced << " coalesced, index touched "
              << index_touches << "/" << kIndexMembers << " entries\n";
  }
  return 0;
}
