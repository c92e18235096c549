// perfbench: the ingest_stream workload, in the shape of das_ingest.
//
// das_ingest's defaults throughout: window 4 files, overlap 1, queue
// capacity 8, poll period 250 ms, --vca-index republish on, similarity
// M=25 L=10 K=1 on a 2x2 hybrid engine, live event detection on.
//
// The measured spool runs two phases:
//  1. catch-up: a backlog already sits in the spool, as after a
//     restart; the producer polls flat out (das_ingest --once style)
//     until every backlog file is admitted.
//  2. live: open loop. A generator thread renames pre-rendered files
//     into the spool every kLiveIntervalMs, stamping each due time;
//     the producer polls at the daemon's 250 ms period.
// Eight more spools run the catch-up phase alone, four before the
// measured spool and four after it, so the catch-up rate and the CPU
// time per file are medians of nine that span the run (the host's speed
// moved by a quarter between catch-ups of one run).
//
// Lag is measured per emitted block, from the delivery (rename) of the
// last file the block needs -- the file whose add_file call emitted it
// -- to the return of that call. It includes admission and queue wait
// and leaves out the window length.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "inputs.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "dassa/common/counters.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/das/local_similarity.hpp"
#include "dassa/ingest/driver.hpp"
#include "dassa/ingest/queue.hpp"
#include "dassa/ingest/spool.hpp"

namespace perfbench {

namespace {

using namespace dassa;

constexpr std::size_t kBacklogFiles = 100;
constexpr std::size_t kCatchupOnlySpools = 8;
// About a third of the catch-up rate measured on the reference box
// (130-165 files/s): sustainable with room for its slower spells.
constexpr std::uint64_t kLiveIntervalMs = 20;
constexpr long kPollMs = 250;              // das_ingest --poll-ms default
constexpr std::size_t kQueueCapacity = 8;  // das_ingest --max-queue default
constexpr double kLiveShare = 0.5;         // of --seconds

/// 16 channels x 200 samples at 100 Hz (2 s files): small enough that
/// the spool, queue and window layers -- not the kernel -- set the pace.
ArchiveSpec archive_spec() {
  ArchiveSpec a;
  a.channels = 16;
  a.samples_per_file = 200;
  a.sampling_hz = 100.0;
  return a;
}

std::size_t live_files(const Options& opt) {
  return static_cast<std::size_t>(kLiveShare * opt.seconds * 1000.0 /
                                  static_cast<double>(kLiveIntervalMs));
}

std::string spool_dir(const Options& opt, std::size_t i) {
  return opt.data_dir + "/spool" + std::to_string(i);
}

ingest::IngestConfig ingest_config(const std::string& vca_index) {
  ingest::IngestConfig cfg;
  cfg.window_files = 4;
  cfg.overlap_files = 1;
  cfg.similarity.window_half = 25;
  cfg.similarity.lag_half = 10;
  cfg.similarity.channel_offset = 1;
  cfg.detect = true;
  cfg.engine.nodes = 2;
  cfg.engine.cores_per_node = 2;
  cfg.engine.mode = core::EngineMode::kHybrid;
  cfg.vca_index_path = vca_index;
  return cfg;
}

/// What one spool's run produced.
struct Stream {
  double catchup_s = 0.0;
  double catchup_cpu_s = 0.0;  // process CPU time over the catch-up
  Dist lag_ms;
  Dist admit_wait_ms;
  Dist queue_wait_ms;
  Dist window_s;
  Dist gen_late_ms;
  std::size_t depth_live_start = 0;
  std::size_t depth_live_end = 0;
  std::size_t unprocessed_live_end = 0;  // delivered, not yet ingested
  std::size_t quarantined = 0;
  bool ok = true;
  ingest::IngestResult result;
};

/// Run das_ingest's producer/consumer loop over `spool`: catch up on
/// its backlog, then deliver `staged` (files in `staging`) live.
Stream run_stream(const std::string& spool, const std::string& staging,
                  const std::vector<std::string>& staged,
                  const ingest::IngestConfig& cfg) {
  Stream st;
  ingest::BoundedQueue<ingest::SpoolFile> queue(kQueueCapacity);
  ingest::SpoolWatcher watcher(ingest::SpoolConfig{spool, "quarantine"});
  ingest::IngestDriver driver(cfg);
  const std::size_t total = kBacklogFiles + staged.size();

  std::mutex mu;  // guards the three maps and the phase flags below
  std::condition_variable phase_cv;
  std::unordered_map<std::string, std::uint64_t> delivered_ns;
  std::unordered_map<std::string, std::uint64_t> pushed_ns;
  bool catchup_done = false;
  std::atomic<bool> generator_done{false};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> ingested{0};
  const double cpu_start = process_cpu_s();
  const std::uint64_t t_start = spans::now_ns();
  const std::uint64_t hard_deadline = t_start + 150'000'000'000ull;

  // Producer: das_ingest's produce() loop, flat out while catching up.
  std::thread producer([&] {
    try {
      while (!stop.load()) {
        std::vector<ingest::SpoolFile> admitted;
        {
          spans::Span span("ingest::SpoolWatcher::poll", "ingest");
          admitted = watcher.poll();
        }
        for (ingest::SpoolFile& f : admitted) {
          {
            const std::lock_guard<std::mutex> lock(mu);
            pushed_ns[f.path] = spans::now_ns();
          }
          spans::Span span("common::BoundedQueue::push", "common");
          if (!queue.push(std::move(f))) break;
        }
        const std::size_t seen = watcher.admitted() + watcher.quarantined();
        const bool all_delivered = staged.empty() || generator_done.load();
        if ((all_delivered && seen >= total && watcher.pending() == 0) ||
            spans::now_ns() > hard_deadline) {
          break;
        }
        if (seen < kBacklogFiles) continue;  // catch-up: no sleep
        for (long slept = 0; slept < kPollMs && !stop.load(); slept += 20) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: ingest producer failed: %s\n", e.what());
    }
    queue.close();
  });

  // Generator: open loop, one rename every kLiveIntervalMs once the
  // catch-up phase has ended.
  std::thread generator([&] {
    {
      std::unique_lock<std::mutex> lock(mu);
      phase_cv.wait(lock, [&] { return catchup_done || stop.load(); });
    }
    st.depth_live_start = queue.depth();
    const std::uint64_t t0 = spans::now_ns();
    for (std::size_t k = 0; k < staged.size() && !stop.load(); ++k) {
      const std::uint64_t due = t0 + k * kLiveIntervalMs * 1'000'000ull;
      const std::uint64_t now = spans::now_ns();
      if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      const std::string dest = spool + "/" + staged[k];
      std::filesystem::rename(staging + "/" + staged[k], dest);
      const std::uint64_t at = spans::now_ns();
      st.gen_late_ms.add(static_cast<double>(at - due) * 1e-6);
      const std::lock_guard<std::mutex> lock(mu);
      delivered_ns[dest] = at;
    }
    st.depth_live_end = queue.depth();
    st.unprocessed_live_end = total - ingested.load();
    generator_done.store(true);
  });

  // Consumer: the daemon's main loop.
  try {
    while (true) {
      std::optional<ingest::SpoolFile> f;
      {
        spans::Span span("common::BoundedQueue::pop", "common");
        f = queue.pop();
      }
      if (!f) break;
      const std::uint64_t popped = spans::now_ns();
      std::uint64_t delivered = 0;
      {
        const std::lock_guard<std::mutex> lock(mu);
        const auto it = delivered_ns.find(f->path);
        if (it != delivered_ns.end()) {
          delivered = it->second;
          st.queue_wait_ms.add(static_cast<double>(popped - pushed_ns[f->path]) * 1e-6);
          st.admit_wait_ms.add(static_cast<double>(f->admit_ns - delivered) * 1e-6);
        }
      }
      const std::size_t windows_before = driver.windows_processed();
      const std::uint64_t t0 = spans::now_ns();
      {
        spans::Span span("ingest::IngestDriver::add_file", "ingest");
        driver.add_file(*f);
      }
      const std::uint64_t t1 = spans::now_ns();
      if (driver.windows_processed() > windows_before) {
        st.window_s.add(static_cast<double>(t1 - t0) * 1e-9);
        if (delivered != 0) st.lag_ms.add(static_cast<double>(t1 - delivered) * 1e-6);
      }
      if (++ingested == kBacklogFiles) {
        st.catchup_s = static_cast<double>(t1 - t_start) * 1e-9;
        st.catchup_cpu_s = process_cpu_s() - cpu_start;
        {
          const std::lock_guard<std::mutex> lock(mu);
          catchup_done = true;
        }
        phase_cv.notify_all();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: ingest consumer failed: %s\n", e.what());
    st.ok = false;
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    stop.store(true);
  }
  phase_cv.notify_all();
  queue.close();
  producer.join();
  generator.join();
  {
    spans::Span span("ingest::IngestDriver::finish", "ingest");
    st.result = driver.finish();
  }
  st.quarantined = watcher.quarantined();
  return st;
}

}  // namespace

void generate_ingest(const Options& opt) {
  ArchiveSpec a = archive_spec();
  const std::size_t live = live_files(opt);
  a.files = kBacklogFiles + live;
  for (std::size_t i = 0; i <= kCatchupOnlySpools; ++i) {
    write_files(spool_dir(opt, i), a, opt.seed + i, 0, kBacklogFiles);
  }
  write_files(opt.data_dir + "/staging", a, opt.seed, kBacklogFiles, live);
}

Result run_ingest(const Options& opt) {
  Result result;
  const std::string spool = spool_dir(opt, 0);
  const std::string staging = opt.data_dir + "/staging";
  std::vector<std::string> staged;
  for (const auto& e : std::filesystem::directory_iterator(staging)) {
    staged.push_back(e.path().filename().string());
  }
  std::sort(staged.begin(), staged.end());  // timestamped: time order
  const std::size_t total_files = kBacklogFiles + staged.size();
  const ingest::IngestConfig cfg = ingest_config(opt.data_dir + "/live.vca");

  // Set-up, as at a daemon restart: build the queue, watcher and driver,
  // then the watcher's first scan of a spool's backlog (it only starts
  // the files' stability clocks). Four times before each spool's
  // stream, so that the median of 36 spans the run, not one instant of
  // the host.
  Dist setup;
  Dist setup_cpu;
  const auto time_setup = [&](const std::string& dir, const ingest::IngestConfig& c) {
    for (int i = 0; i < 4; ++i) {
      const double cpu0 = process_cpu_s();
      const std::uint64_t t0 = spans::now_ns();
      ingest::BoundedQueue<ingest::SpoolFile> q(kQueueCapacity);
      ingest::SpoolWatcher w(ingest::SpoolConfig{dir, "quarantine"});
      ingest::IngestDriver d(c);
      if (!w.poll().empty()) throw std::runtime_error("first poll admitted files");
      setup.add(static_cast<double>(spans::now_ns() - t0) * 1e-9);
      setup_cpu.add(process_cpu_s() - cpu0);
    }
  };

  // Catch-up alone on the other spools, half of them before the
  // measured spool and half after it, again to span the run.
  Dist catchup_rate;
  Dist cpu_ms_per_file;
  const auto add_catchup = [&](const Stream& s) {
    catchup_rate.add(safe_ratio(static_cast<double>(kBacklogFiles), s.catchup_s));
    cpu_ms_per_file.add(s.catchup_cpu_s * 1e3 / static_cast<double>(kBacklogFiles));
  };
  const auto catchup_only = [&](std::size_t i) {
    const ingest::IngestConfig c = ingest_config(spool_dir(opt, i) + ".vca");
    time_setup(spool_dir(opt, i), c);
    const Stream s = run_stream(spool_dir(opt, i), staging, {}, c);
    add_catchup(s);
    result.check(s.ok && s.quarantined == 0 && s.result.files == kBacklogFiles);
  };
  for (std::size_t i = 1; i <= kCatchupOnlySpools / 2; ++i) catchup_only(i);

  time_setup(spool, cfg);
  if (opt.trace) {
    spans::enable(true);
    trace::set_enabled(true);
  }
  const CounterMark mark;
  RssSampler rss;
  Stream st = run_stream(spool, staging, staged, cfg);
  const Dist rss_mb = rss.stop();
  trace::set_enabled(false);
  spans::enable(false);
  const auto push_blocked = static_cast<double>(mark.delta(counters::kIngestQueuePushBlocked));
  const auto peak_depth = static_cast<double>(global_counters().get(counters::kIngestQueuePeakDepth));
  const auto read_bytes = static_cast<double>(mark.delta(counters::kIoReadBytes));
  const auto read_calls = static_cast<double>(mark.delta(counters::kIoReadCalls));
  add_catchup(st);

  for (std::size_t i = kCatchupOnlySpools / 2 + 1; i <= kCatchupOnlySpools; ++i) catchup_only(i);

  // Correctness: every file ingested, none quarantined or dropped, and
  // the streamed map byte-identical to the offline engine run.
  for (std::size_t i = 0; i < total_files; ++i) result.check(st.ok && i < st.result.files);
  if (st.quarantined > 0) {
    result.failed += st.quarantined;
    result.correct = false;
  }
  std::vector<std::string> all;
  for (const auto& e : std::filesystem::directory_iterator(spool)) {
    if (e.path().extension() == ".dh5") all.push_back(e.path().string());
  }
  std::sort(all.begin(), all.end());
  const core::Array2D offline =
      das::local_similarity_distributed(cfg.engine, io::Vca::build(all), cfg.similarity)
          .output;
  core::Array2D& streamed = st.result.similarity;
  if (opt.corrupt && !streamed.data.empty()) streamed.data[streamed.data.size() / 3] += 0.25;
  result.check(streamed == offline);

  Json& d = result.detail;
  Json sizes = Json::object();
  const ArchiveSpec a = archive_spec();
  sizes["channels"] = static_cast<std::uint64_t>(a.channels);
  sizes["samples_per_file"] = static_cast<std::uint64_t>(a.samples_per_file);
  sizes["backlog_files"] = static_cast<std::uint64_t>(kBacklogFiles);
  sizes["catchup_only_spools"] = static_cast<std::uint64_t>(kCatchupOnlySpools);
  sizes["live_files"] = static_cast<std::uint64_t>(staged.size());
  sizes["live_interval_ms"] = kLiveIntervalMs;
  sizes["samples"] = static_cast<std::uint64_t>(total_files * a.channels * a.samples_per_file);
  d["inputs"] = std::move(sizes);
  d["config"] = "window 4 files, overlap 1, queue 8, poll 250 ms, "
                "vca-index republish on, 2x2 hybrid engine";
  d["setup_s"] = setup.summary("s");
  d["setup_cpu_s"] = setup_cpu.summary("s");
  d["ingest.catchup_files_per_s"] = catchup_rate.summary("1/s");
  d["ingest.catchup_cpu_ms_per_file"] = cpu_ms_per_file.summary("ms");
  d["ingest.lag_ms"] = st.lag_ms.summary("ms");
  d["ingest.windows"] = static_cast<std::uint64_t>(st.result.windows);
  d["ingest.gen_late_ms"] = st.gen_late_ms.summary("ms");
  Json depth = Json::object();
  depth["queue_depth_live_start"] = static_cast<std::uint64_t>(st.depth_live_start);
  depth["queue_depth_live_end"] = static_cast<std::uint64_t>(st.depth_live_end);
  depth["files_not_ingested_at_live_end"] = static_cast<std::uint64_t>(st.unprocessed_live_end);
  d["backlog"] = std::move(depth);
  d["quarantined"] = static_cast<std::uint64_t>(st.quarantined);
  d["rss_mb"] = rss_mb.summary("MB");

  if (!opt.trace) {
    // CPU time, not wall time: set-up, and per backlog file rather than
    // the lag or catch-up rate (in the detail), which a busy host doubled.
    result.end_to_end["setup_s"] = setup_cpu.median();
    result.end_to_end["cpu_ms"] = cpu_ms_per_file.median();
    result.end_to_end["rss_mb"] = rss_mb.median();
    return result;
  }
  auto& L = result.per_layer;
  L["ingest.admit_wait_ms"] = st.admit_wait_ms.median();
  L["ingest.queue_wait_ms"] = st.queue_wait_ms.median();
  L["ingest.window_s"] = st.window_s.median();
  L["ingest.queue.push_blocked"] = push_blocked;
  L["ingest.queue.peak_depth"] = peak_depth;
  L["ingest.gen_late_ms"] = st.gen_late_ms.max();
  L["das.events_detected"] = static_cast<double>(st.result.events.size());
  L["io.read_bytes"] = read_bytes;
  L["io.read_calls"] = read_calls;
  d["ingest.admit_wait_ms"] = st.admit_wait_ms.summary("ms");
  d["ingest.queue_wait_ms"] = st.queue_wait_ms.summary("ms");
  d["ingest.window_s"] = st.window_s.summary("s");
  return result;
}

}  // namespace perfbench
