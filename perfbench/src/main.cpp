// perfbench_driver: the in-process workload driver behind run.py.
//
//   perfbench_driver generate --workload W --seed N --seconds S
//                    --data-dir D
//   perfbench_driver run --workload W --seed N --seconds S --trace 0|1
//                    --data-dir D --out-dir O [--corrupt]
//
// `generate` writes the seeded inputs (untimed, its own process);
// `run` measures them and prints, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Before it comes
// one {"perfbench": ...} line with the run context and the detail of
// every figure (sample counts, percentiles, ratio bases, input sizes).
// --trace 1 prints the per-layer metrics instead of the end-to-end
// ones and writes the benchmark's spans to O/spans-W-N.json.
// --corrupt damages one program output before it is checked, so the
// run must fail (the benchmark's own self-test).
#include <fcntl.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "common.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "dassa/common/log.hpp"
#include "dassa/common/thread_pool.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/io/chunk_cache.hpp"

namespace perfbench {

namespace {

const char* const kWorkloads[] = {"similarity_batch", "interferometry_batch",
                                  "ingest_stream", "serve_mixed"};

/// Every end-to-end metric, printed by every workload (--trace 0).
const std::pair<const char*, const char*> kEndToEnd[] = {
    {"setup_s", "s"}, {"cpu_ms", "ms"}, {"rss_mb", "MB"},
};

/// Every per-layer metric (--trace 1). A workload that does not
/// exercise a layer reports 0 for it.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"io.open_s", "s"},
    {"io.read_s", "s"},
    {"io.read_bytes", "bytes"},
    {"io.read_calls", "count"},
    {"io.codec.decode_calls", "count"},
    {"io.codec.decode_gibps", "GiB/s"},
    {"io.cache.hit_ratio", "ratio"},
    {"io.write_s", "s"},
    {"io.index.touches_per_query", "count"},
    {"mpi.messages", "count"},
    {"mpi.bytes", "bytes"},
    {"core.compute_s", "s"},
    {"core.gather_s", "s"},
    {"core.speedup_4t", "x"},
    {"das.similarity.mcells_per_s", "Mcells/s"},
    {"das.similarity.gop_computed", "Gop"},
    {"das.events_detected", "count"},
    {"dsp.self_s", "s"},
    {"dsp.fft.plan_hit_ratio", "ratio"},
    {"ingest.admit_wait_ms", "ms"},
    {"ingest.queue_wait_ms", "ms"},
    {"ingest.window_s", "s"},
    {"ingest.queue.push_blocked", "count"},
    {"ingest.queue.peak_depth", "count"},
    {"ingest.gen_late_ms", "ms"},
    {"serve.lat.queue_wait_p99_ms", "ms"},
    {"serve.lat.coalesce_p50_ms", "ms"},
    {"serve.lat.decode_p50_ms", "ms"},
    {"serve.lat.write_p50_ms", "ms"},
    {"serve.requests_per_union", "ratio"},
    {"serve.decodes_per_request", "ratio"},
    {"serve.gen_late_ms", "ms"},
    {"serve.max_rps", "1/s"},
    {"trace.overhead_ratio", "ratio"},
    {"common.self_s", "s"},
    {"io.self_s", "s"},
    {"mpi.self_s", "s"},
    {"core.self_s", "s"},
    {"das.self_s", "s"},
    {"ingest.self_s", "s"},
    {"serve.self_s", "s"},
};

/// Self time per category of the program's existing DASSA_TRACE_SPAN
/// spans (nesting is per thread). The benchmark makes no direct call
/// into dsp or mpi, so their self time comes from these.
std::map<std::string, double> program_self_seconds() {
  std::vector<dassa::trace::TraceEvent> ev = dassa::trace::collect();
  std::sort(ev.begin(), ev.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;  // parents before their children
  });
  std::map<std::string, double> self;
  struct Open {
    const dassa::trace::TraceEvent* e;
    std::uint64_t child_ns;
  };
  std::vector<Open> stack;
  std::uint32_t tid = 0;
  const auto close_until = [&](std::uint64_t t) {
    while (!stack.empty() &&
           (t == UINT64_MAX || stack.back().e->start_ns + stack.back().e->dur_ns <= t)) {
      const Open o = stack.back();
      stack.pop_back();
      self[o.e->cat] +=
          static_cast<double>(o.e->dur_ns - std::min(o.e->dur_ns, o.child_ns)) * 1e-9;
      if (!stack.empty()) stack.back().child_ns += o.e->dur_ns;
    }
  };
  for (const auto& e : ev) {
    if (e.tid != tid) {
      close_until(UINT64_MAX);
      tid = e.tid;
    }
    close_until(e.start_ns);
    stack.push_back({&e, 0});
  }
  close_until(UINT64_MAX);
  return self;
}

/// Leave without running static destructors. ThreadPool::parallel_for
/// can let its caller return before the last task has released the
/// caller's stack-held mutex (README.md, "Known defects"). That task
/// then blocks for good, and io_pool()'s destructor would wait for it.
[[noreturn]] void leave(int code) {
  std::cout.flush();
  std::fflush(nullptr);
  std::_Exit(code);
}

/// Tasks the io pool still holds once the workload is done: nonzero
/// only when a worker is stuck as described at leave().
std::size_t stuck_io_tasks() {
  for (int i = 0; i < 50 && dassa::io::io_pool().queue_depth() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::size_t stuck = dassa::io::io_pool().queue_depth();
  if (stuck != 0) {
    std::cerr << "perfbench: warning: " << stuck
              << " io pool task(s) never finished (ThreadPool::parallel_for "
                 "defect, README.md)\n";
  }
  return stuck;
}

int usage() {
  std::cerr << "usage: perfbench_driver generate|run --workload W --seed N "
               "--seconds S [--trace 0|1] --data-dir D [--out-dir O] "
               "[--corrupt]\n";
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  Options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") opt.workload = value();
      else if (a == "--seed") opt.seed = std::stoull(value());
      else if (a == "--seconds") opt.seconds = std::stod(value());
      else if (a == "--trace") opt.trace = value() != "0";
      else if (a == "--data-dir") opt.data_dir = value();
      else if (a == "--out-dir") opt.out_dir = value();
      else if (a == "--corrupt") opt.corrupt = true;
      else return usage();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      return usage();
    }
  }
  if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads), [&](const char* w) {
        return opt.workload == w;
      }) == std::end(kWorkloads) ||
      opt.data_dir.empty() || opt.seconds <= 0.0) {
    return usage();
  }
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to measure a build with assertions on "
               "(build type " PERFBENCH_BUILD_TYPE "); configure Release\n";
  return 2;
#endif
  // glibc raises its mmap threshold on the fly whenever a large mapped
  // block is freed, so whether a 256 KiB tile or a 1 MiB reply buffer
  // came from fresh pages or from a reused heap block depended on the
  // order of earlier frees. That split serve latency and set-up, and
  // batch peak RSS, into per-process modes 1.2-1.7x apart. Fixed
  // thresholds turn the adjustment off. They sit where the adjustment
  // can climb to on its own (32 MiB), so every run measures the warmed-up
  // allocator of a long-running process. (Pinned at the 128 KiB default
  // instead, every large block is mapped fresh and the serve p50 was
  // 3.5x slower.) At most four arenas: with glibc's eight per CPU, how
  // much freed memory the arenas kept put serve's RSS at 320 or 390 MB
  // from run to run. das_analyze, das_ingest and das_serve keep glibc's
  // defaults; README.md, "Allocator".
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
  mallopt(M_ARENA_MAX, 4);
  dassa::set_log_level(dassa::LogLevel::kWarn);
  const bool batch = opt.workload.find("_batch") != std::string::npos;
  try {
    if (mode == "generate") {
      if (batch) generate_batch(opt);
      else if (opt.workload == "ingest_stream") generate_ingest(opt);
      else generate_serve(opt);
      // Flush the new files now, so background writeback does not land
      // in the measured run's timings.
      const int fd = ::open(opt.data_dir.c_str(), O_RDONLY | O_DIRECTORY);
      if (fd < 0 || ::syncfs(fd) != 0) std::perror("perfbench: syncfs");
      if (fd >= 0) ::close(fd);
      stuck_io_tasks();
      leave(0);
    }
    if (mode != "run") return usage();

    const CpuTimes cpu_start = CpuTimes::now();
    Result r = batch ? run_batch(opt)
               : opt.workload == "ingest_stream" ? run_ingest(opt)
                                                  : run_serve(opt);
    r.detail["io_pool_stuck_tasks"] = static_cast<std::uint64_t>(stuck_io_tasks());
    r.detail["peak_rss_mb"] = peak_rss_mb();
    Json metrics = Json::object();
    if (!opt.trace) {
      for (const auto& [name, unit] : kEndToEnd) {
        const auto it = r.end_to_end.find(name);
        Json m = Json::object();
        m["value"] = it == r.end_to_end.end() ? 0.0 : it->second;
        m["unit"] = unit;
        metrics[name] = std::move(m);
      }
    } else {
      for (const auto& [module, secs] : spans::self_seconds_by_module()) {
        if (module != "dsp" && module != "mpi") r.per_layer[module + ".self_s"] = secs;
      }
      const std::map<std::string, double> prog = program_self_seconds();
      for (const char* cat : {"dsp", "mpi"}) {
        const auto it = prog.find(cat);
        r.per_layer[std::string(cat) + ".self_s"] = it == prog.end() ? 0.0 : it->second;
      }
      Json prog_json = Json::object();
      for (const auto& [cat, secs] : prog) prog_json[cat] = secs;
      r.detail["program_span_self_s"] = std::move(prog_json);
      r.detail["benchmark_spans"] = static_cast<std::uint64_t>(spans::count());
      if (!opt.out_dir.empty()) {
        const std::string path =
            opt.out_dir + "/spans-" + opt.workload + "-" + std::to_string(opt.seed) + ".json";
        spans::write_json(path);
        r.detail["spans_file"] = path;
      }
      for (const auto& [name, unit] : kPerLayer) {
        const auto it = r.per_layer.find(name);
        Json m = Json::object();
        m["value"] = it == r.per_layer.end() ? 0.0 : it->second;
        m["unit"] = unit;
        metrics[name] = std::move(m);
      }
    }

    Json head = Json::object();
    Json body = Json::object();
    body["workload"] = opt.workload;
    body["trace"] = opt.trace;
    body["context"] = run_context(opt.seed);
    body["context"]["host_steal"] = steal_json(cpu_start, CpuTimes::now());
    body["detail"] = std::move(r.detail);
    head["perfbench"] = std::move(body);
    std::cout << head.dump() << "\n";

    Json out = Json::object();
    out["correct"] = r.correct;
    out["attempted"] = r.attempted;
    out["failed"] = r.failed;
    out["metrics"] = std::move(metrics);
    std::cout << out.dump() << std::endl;
    leave(r.correct ? 0 : 1);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what() << "\n";
    leave(1);
  }
}
