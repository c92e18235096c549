// perfbench: the serve_mixed workload, an open loop against an
// in-process serve::Server with das_serve's shipped defaults
// (coalesce 500 us, 4 workers, batch 16, queue 64, request tracing on).
//
// The archive (256 ch x 10 one-minute files at 500 Hz, 32x1024
// shuffle+lz tiles) decodes to 2.3x the 256 MiB ChunkCache budget.
// Requests are seeded and mixed. Each asks for every channel over a
// short time window (about 1 MiB of f64 payload). The mix is an
// assumption, not a recording of das_serve traffic (there is none to
// cite yet); each share is there for the path it drives:
//   hot  60%  512-column windows inside one seeded 4096-column region:
//             overlapping, they share decode work and stay cached
//             (p50 = the hit path: coalescing hold and reply; with a
//             16384-column region the hot p50 moved 3.0-4.5 ms between
//             seeds);
//   cold 25%  512-column windows uniform over the archive: mostly misses
//             (p90 = the miss path: decode);
//   time 15%  1 s time-addressed windows resolved through the .tix.
// All requests span all channels because requests over different
// channel ranges that coalesce into one group crash the server (see
// README.md, "Known defects").
// Arrivals are Poisson at a fixed rate; at most four requests are in
// flight (four client threads, one connection each). Every latency is
// timed from the request's due time, so a stalled server or a busy
// client shows up as latency, and the generator reports how late it
// sent. Phases: warm-up (untimed), `low`, `high`, `saturation` (closed
// loop), and in the traced run a ladder of rates for max_rps; each
// phase drains before the next starts.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>

#include "common.hpp"
#include "inputs.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "dassa/common/counters.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/das/search.hpp"
#include "dassa/io/chunk_cache.hpp"
#include "dassa/io/vca.hpp"
#include "dassa/serve/client.hpp"
#include "dassa/serve/server.hpp"

namespace perfbench {

namespace {

using namespace dassa;

// Fixed rates, calibrated on the reference 4-core box, where this mix
// saturates at 840-970 requests/s on a calm host (README.md,
// "Allocator"): `low` is about a tenth of that, `high` under a half,
// which leaves room for the host's slower spells (at 500 a busy spell
// overloaded it). They stay fixed so later commits are offered the
// same load.
constexpr double kLowRps = 120.0;
constexpr double kHighRps = 400.0;
constexpr double kLadderRps[] = {400, 500, 600, 700, 800, 900};
constexpr double kLadderLimitMs = 50.0;  // p95 limit of a ladder rung
constexpr std::size_t kClients = 4;
constexpr std::size_t kCols = 512;
constexpr std::size_t kHotCols = 4096;
constexpr std::int64_t kTimeWindowS = 1;

ArchiveSpec archive_spec() {
  ArchiveSpec a;
  a.channels = 256;
  a.files = 10;
  a.samples_per_file = 30000;
  a.sampling_hz = 500.0;
  return a;
}

std::string vca_path(const Options& opt) { return opt.data_dir + "/archive.vca"; }

enum class Kind { kHot, kCold, kTime };
const char* const kKindNames[] = {"hot", "cold", "time"};

struct Planned {
  serve::ReadRequest req;
  Kind kind = Kind::kHot;
  std::uint64_t due_offset_ns = 0;  // from the phase start
};

/// What one answered request left behind for the verifier.
struct Outcome {
  bool sent = false;
  bool ok = false;
  double latency_ms = 0.0;
  double late_ms = 0.0;
  std::uint64_t row_off = 0;
  std::uint64_t col_off = 0;
  Shape2D shape;
  std::uint64_t digest = 0;
  double done_s = 0.0;  // reply time, from the phase start
};

struct Phase {
  std::string name;
  double rps = 0.0;
  /// > 0: a closed loop for this long instead of the planned due times
  /// (each client sends its next request as soon as the last returns).
  double closed_seconds = 0.0;
  std::vector<Planned> plan;
  std::vector<Outcome> out;
  double backlog_start = 0.0;  // mean due-but-unsent, first quarter
  double backlog_end = 0.0;    // mean due-but-unsent, last quarter
  std::size_t server_depth_start = 0;
  std::size_t server_depth_end = 0;
  /// CPU time of the process over the phase less that of the client
  /// threads and of the thread sampling the backlog: the server's.
  double server_cpu_s = 0.0;
  std::map<std::string, HistogramSnapshot> hist_before;
  std::map<std::string, HistogramSnapshot> hist_after;

  [[nodiscard]] Dist latency() const {
    Dist d;
    for (const Outcome& o : out) {
      if (o.sent) d.add(o.ok ? o.latency_ms : 1e9);
    }
    return d;
  }
  [[nodiscard]] Dist latency(Kind kind) const {
    Dist d;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i].sent && plan[i].kind == kind) d.add(out[i].ok ? out[i].latency_ms : 1e9);
    }
    return d;
  }
  [[nodiscard]] Dist lateness() const {
    Dist d;
    for (const Outcome& o : out) {
      if (o.sent) d.add(o.late_ms);
    }
    return d;
  }
  [[nodiscard]] std::size_t answered() const {
    return static_cast<std::size_t>(std::count_if(
        out.begin(), out.end(), [](const Outcome& o) { return o.sent && o.ok; }));
  }
  [[nodiscard]] std::size_t failures() const {
    return static_cast<std::size_t>(std::count_if(
        out.begin(), out.end(), [](const Outcome& o) { return o.sent && !o.ok; }));
  }
  /// Completed requests per second, as the median over 250 ms windows
  /// of the phase (a hiccup of the host spoils one window, not all).
  [[nodiscard]] double throughput() const {
    constexpr double kWindowS = 0.25;
    const auto windows = static_cast<std::size_t>(closed_seconds / kWindowS);
    std::vector<double> done(windows, 0.0);
    for (const Outcome& o : out) {
      const auto w = static_cast<std::size_t>(o.done_s / kWindowS);
      if (o.sent && o.ok && w < windows) done[w] += 1.0;
    }
    Dist d;
    for (const double n : done) d.add(n / kWindowS);
    return d.median();
  }
};

/// The seeded request mix for `seconds` of Poisson arrivals at `rps`.
/// `hot_col` is the first column of the seed's hot region.
std::vector<Planned> plan_phase(std::mt19937_64& rng, double rps, double seconds,
                                Shape2D shape, std::size_t hot_col,
                                std::int64_t start_epoch_s, double sampling_hz) {
  std::vector<Planned> plan;
  std::exponential_distribution<double> gap(rps);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::size_t total_s =
      static_cast<std::size_t>(static_cast<double>(shape.cols) / sampling_hz);
  double t = 0.0;
  while (true) {
    t += gap(rng);
    if (t >= seconds) break;
    Planned p;
    p.due_offset_ns = static_cast<std::uint64_t>(t * 1e9);
    const double u = unit(rng);
    p.req.row_off = 0;
    p.req.row_cnt = 0;  // every channel
    if (u < 0.6) {
      p.req.col_off = hot_col + rng() % (kHotCols - kCols + 1);
      p.req.col_cnt = kCols;
    } else if (u < 0.85) {
      p.kind = Kind::kCold;
      p.req.col_off = rng() % (shape.cols - kCols + 1);
      p.req.col_cnt = kCols;
    } else {
      p.kind = Kind::kTime;
      p.req.addressing = serve::Addressing::kTime;
      p.req.begin_s = start_epoch_s +
                      static_cast<std::int64_t>(rng() % (total_s - kTimeWindowS + 1));
      p.req.end_s = p.req.begin_s + kTimeWindowS;
    }
    plan.push_back(p);
  }
  return plan;
}

serve::ServeConfig serve_config(const Options& opt) {
  serve::ServeConfig cfg;  // das_serve's shipped defaults
  cfg.socket_path = opt.data_dir + "/s.sock";
  cfg.archive = vca_path(opt);
  cfg.workers = 4;
  cfg.queue_capacity = 64;
  cfg.max_batch = 16;
  cfg.coalesce_window_us = 500;
  cfg.gap_cols = 0;
  cfg.batching = true;
  cfg.request_tracing = true;
  return cfg;
}

/// Connect, retrying until the listener accepts (start() returns once
/// the accept thread runs; the first connect proves it).
std::unique_ptr<serve::Client> connect(const std::string& socket_path) {
  for (int attempt = 0;; ++attempt) {
    try {
      return std::make_unique<serve::Client>(socket_path);
    } catch (const std::exception&) {
      if (attempt > 2000) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

/// Run one phase: kClients threads pull the next planned request, wait
/// for its due time, send it and stamp the outcome.
void run_phase(Phase& ph, std::vector<std::unique_ptr<serve::Client>>& clients,
               serve::Server& server, std::uint64_t& next_request_id,
               bool corrupt_one) {
  ph.out.assign(ph.plan.size(), Outcome{});
  ph.hist_before = global_metrics().snapshot();
  ph.server_depth_start = server.queue_depth();
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> sent{0};
  const std::uint64_t t0 = spans::now_ns() + 2'000'000;  // 2 ms head start
  const auto closed_ns = static_cast<std::uint64_t>(ph.closed_seconds * 1e9);
  const std::uint64_t base_id = next_request_id;
  next_request_id += ph.plan.size();
  std::vector<double> client_cpu_s(kClients, 0.0);
  const double cpu0 = process_cpu_s();
  const double main_cpu0 = thread_cpu_s();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const double thread_cpu0 = thread_cpu_s();
      serve::Client& client = *clients[c];
      for (std::size_t i = next++; i < ph.plan.size(); i = next++) {
        std::uint64_t due = t0 + ph.plan[i].due_offset_ns;
        const std::uint64_t now = spans::now_ns();
        if (closed_ns > 0) {
          if (now >= t0 + closed_ns) break;
          due = std::max(now, t0);
        }
        if (due > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        Outcome& o = ph.out[i];
        o.sent = true;
        const std::uint64_t send = spans::now_ns();
        ++sent;
        try {
          serve::ReadRequest req = ph.plan[i].req;
          req.id = base_id + i + 1;
          serve::ReadResponse resp;
          {
            spans::Span span("serve::Client::call", "serve", req.id);
            resp = client.call(req);
          }
          const std::uint64_t done = spans::now_ns();
          o.done_s = static_cast<double>(done - t0) * 1e-9;
          o.latency_ms = static_cast<double>(done - due) * 1e-6;
          o.ok = resp.ok;
          o.row_off = resp.row_off;
          o.col_off = resp.col_off;
          o.shape = resp.shape;
          if (corrupt_one && i == 0 && !resp.data.empty()) resp.data[0] += 1.0;
          o.digest = digest(resp.data);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: serve request failed: %s\n", e.what());
          o.ok = false;
        }
        o.late_ms = static_cast<double>(send - due) * 1e-6;
      }
      client_cpu_s[c] = thread_cpu_s() - thread_cpu0;
    });
  }
  // Backlog: requests due but not yet sent, sampled every 10 ms over
  // the phase's schedule; start/end are the means over its first and
  // last quarter (a point sample would mostly measure Poisson bursts).
  if (closed_ns == 0 && !ph.plan.empty()) {
    const std::uint64_t first = t0 + ph.plan.front().due_offset_ns;
    const std::uint64_t last = t0 + ph.plan.back().due_offset_ns;
    const std::uint64_t quarter = (last - first) / 4;
    Dist head;
    Dist tail;
    std::size_t due = 0;
    for (std::uint64_t t = first; t <= last; t += 10'000'000) {
      const std::uint64_t now = spans::now_ns();
      if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
      const std::uint64_t at = spans::now_ns();
      while (due < ph.plan.size() && t0 + ph.plan[due].due_offset_ns <= at) ++due;
      const std::size_t s = sent.load();
      const double backlog = due > s ? static_cast<double>(due - s) : 0.0;
      if (at <= first + quarter) head.add(backlog);
      if (at + quarter >= last) tail.add(backlog);
    }
    ph.backlog_start = head.empty() ? 0.0 : head.sum() / static_cast<double>(head.count());
    ph.backlog_end = tail.empty() ? 0.0 : tail.sum() / static_cast<double>(tail.count());
    ph.server_depth_end = server.queue_depth();
  }
  for (std::thread& t : threads) t.join();
  const double main_cpu = thread_cpu_s() - main_cpu0;
  ph.server_cpu_s = process_cpu_s() - cpu0 - main_cpu;
  for (const double c : client_cpu_s) ph.server_cpu_s -= c;
  ph.hist_after = global_metrics().snapshot();
}

/// A histogram's quantile over one phase (bucket-exact diff), in ms.
double phase_quantile_ms(const Phase& ph, const char* name, double q) {
  const auto a = ph.hist_after.find(name);
  if (a == ph.hist_after.end()) return 0.0;
  const auto b = ph.hist_before.find(name);
  const HistogramSnapshot d =
      b == ph.hist_before.end() ? a->second : a->second.diff(b->second);
  return d.count == 0 ? 0.0 : d.quantile_ns(q) * 1e-6;
}

/// Whether a ladder rung meets the limit: no failures, p95 within
/// kLadderLimitMs, and the unsent backlog did not grow.
bool rung_passes(const Phase& ph) {
  const Dist lat = ph.latency();
  const double slack = static_cast<double>(kClients);
  return ph.failures() == 0 && lat.quantile(0.95) <= kLadderLimitMs &&
         ph.backlog_end <= ph.backlog_start + slack;
}

}  // namespace

void generate_serve(const Options& opt) {
  const ArchiveSpec a = archive_spec();
  const std::vector<std::string> files =
      write_files(opt.data_dir + "/archive", a, opt.seed, 0, a.files);
  das::save_vca_with_index(io::Vca::build(files), vca_path(opt));
}

Result run_serve(const Options& opt) {
  Result result;
  const ArchiveSpec a = archive_spec();
  const serve::ServeConfig cfg = serve_config(opt);
  const std::int64_t start_epoch =
      acquisition_spec("", a).start.epoch_seconds();

  // Set-up: a restart until the first answer. Server ctor (VCA + .tix
  // load) + start() + the first connection + one all-channel 512-column
  // read from an empty ChunkCache; 15 times, median reported. (Without
  // the first read the figure is well under a millisecond and fell
  // into per-process modes about 1.7x apart.)
  // The gated figure is the process's CPU time over it (the wall time
  // is in the detail).
  Dist setup;
  Dist setup_cpu;
  Dist open_s;
  serve::ReadRequest first;
  first.col_cnt = kCols;
  std::vector<std::uint64_t> first_digests;
  for (int i = 0; i < 15; ++i) {
    io::ChunkCache::global().clear();
    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = spans::now_ns();
    serve::Server s(cfg);
    const std::uint64_t t1 = spans::now_ns();
    s.start();
    serve::ReadResponse resp;
    {
      const auto client = connect(cfg.socket_path);
      first.id = static_cast<std::uint64_t>(i) + 1;
      resp = client->call(first);
    }
    setup.add(static_cast<double>(spans::now_ns() - t0) * 1e-9);
    setup_cpu.add(process_cpu_s() - cpu0);
    open_s.add(static_cast<double>(t1 - t0) * 1e-9);
    first_digests.push_back(resp.ok ? digest(resp.data) : 0);
    s.stop();
  }
  io::ChunkCache::global().clear();

  if (opt.trace) spans::enable(true);
  std::unique_ptr<serve::Server> server;
  {
    spans::Span span("serve::Server::Server", "serve");
    server = std::make_unique<serve::Server>(cfg);
  }
  {
    spans::Span span("serve::Server::start", "serve");
    server->start();
  }
  spans::enable(false);
  std::vector<std::unique_ptr<serve::Client>> clients;
  for (std::size_t c = 0; c < kClients; ++c) clients.push_back(connect(cfg.socket_path));
  const Shape2D shape = server->shape();

  // The seeded plan for every phase. Phase lengths scale with --seconds
  // (10 s: warm-up 0.4, low 3, high 3, saturation 3.5). The traced run
  // shortens them to fit an untraced copy of `low` (for
  // trace.overhead_ratio) and the max_rps ladder, whose step result is
  // too coarse to gate on and so is reported per layer.
  std::mt19937_64 rng(opt.seed);
  const std::size_t hot_col = rng() % (shape.cols - kHotCols + 1);
  const double s = opt.seconds / 10.0;
  std::vector<Phase> phases;
  const auto add = [&](const std::string& name, double rps, double secs) {
    Phase ph;
    ph.name = name;
    ph.rps = rps;
    ph.plan = plan_phase(rng, rps, secs, shape, hot_col, start_epoch, a.sampling_hz);
    phases.push_back(std::move(ph));
  };
  const bool t = opt.trace;
  add("warmup", kHighRps, 0.4 * s);
  if (t) add("low_untraced", kLowRps, 2.5 * s);
  add("low", kLowRps, (t ? 2.5 : 3.0) * s);
  add("high", kHighRps, (t ? 2.5 : 3.0) * s);
  // Saturation: the four clients closed-loop, as fast as replies come.
  add("saturation", 4000.0, (t ? 1.0 : 3.5) * s);
  phases.back().closed_seconds = (t ? 1.0 : 3.5) * s;
  if (t) {
    for (const double r : kLadderRps) {
      add("ladder_" + std::to_string(static_cast<int>(r)), r, 0.4 * s);
    }
  }

  std::unique_ptr<CounterMark> mark;  // from the end of the warm-up
  std::unique_ptr<RssSampler> rss;    // over low, high and saturation
  Dist rss_mb;
  std::uint64_t next_id = 0;
  for (Phase& ph : phases) {
    const bool traced = opt.trace && ph.name != "low_untraced" && ph.name != "warmup";
    if (traced) {
      spans::enable(true);
      trace::set_enabled(true);
    }
    if (ph.name == "low") rss = std::make_unique<RssSampler>();
    run_phase(ph, clients, *server, next_id, opt.corrupt && ph.name == "low");
    if (ph.name == "saturation") rss_mb = rss->stop();
    trace::set_enabled(false);
    spans::enable(false);
    if (ph.name == "warmup") mark = std::make_unique<CounterMark>();
  }
  clients.clear();
  {
    spans::Span span("serve::Server::stop", "serve");
    server->stop();
  }

  // Verify every payload against a direct Vca::read_slab of the
  // resolved slab (in column order, so the cache sees a sweep), and the
  // resolved coordinates against the request.
  struct Check {
    const Planned* plan;
    const Outcome* out;
  };
  std::vector<Check> checks;
  for (const Phase& ph : phases) {
    for (std::size_t i = 0; i < ph.plan.size(); ++i) {
      if (ph.out[i].sent) checks.push_back({&ph.plan[i], &ph.out[i]});
    }
  }
  std::sort(checks.begin(), checks.end(),
            [](const Check& x, const Check& y) { return x.out->col_off < y.out->col_off; });
  const io::Vca direct = io::Vca::load(vca_path(opt));
  const std::uint64_t first_want = digest(direct.read_slab({0, 0, a.channels, kCols}));
  for (const std::uint64_t got : first_digests) result.check(got == first_want);
  for (const Check& c : checks) {
    const serve::ReadRequest& rq = c.plan->req;
    const Outcome& o = *c.out;
    bool ok = o.ok && o.row_off == 0 && o.shape.rows == a.channels;
    if (ok && rq.addressing == serve::Addressing::kColumns) {
      ok = o.col_off == rq.col_off && o.shape.cols == rq.col_cnt;
    } else if (ok) {
      const auto lo = static_cast<std::uint64_t>(
          static_cast<double>(rq.begin_s - start_epoch) * a.sampling_hz);
      ok = o.col_off == lo &&
           o.shape.cols == static_cast<std::size_t>(kTimeWindowS * a.sampling_hz);
    }
    if (ok) {
      ok = digest(direct.read_slab({o.row_off, o.col_off, o.shape.rows, o.shape.cols})) ==
           o.digest;
    }
    result.check(ok);
  }

  const Phase* low = nullptr;
  const Phase* low_untraced = nullptr;
  const Phase* high = nullptr;
  const Phase* saturation = nullptr;
  double max_rps = 0.0;
  Json ladder = Json::array();
  for (const Phase& ph : phases) {
    if (ph.name == "low") low = &ph;
    if (ph.name == "low_untraced") low_untraced = &ph;
    if (ph.name == "high") high = &ph;
    if (ph.name == "saturation") saturation = &ph;
    if (ph.name.rfind("ladder_", 0) != 0) continue;
    const bool pass = rung_passes(ph);
    if (pass) max_rps = std::max(max_rps, ph.rps);
    Json r = Json::object();
    r["rps"] = ph.rps;
    r["requests"] = static_cast<std::uint64_t>(ph.plan.size());
    r["latency_ms"] = ph.latency().summary("ms");
    r["p95_ms"] = ph.latency().quantile(0.95);
    r["failed"] = static_cast<std::uint64_t>(ph.failures());
    r["backlog_start"] = ph.backlog_start;
    r["backlog_end"] = ph.backlog_end;
    r["passes"] = pass;
    ladder.push(std::move(r));
  }

  Json& d = result.detail;
  Json sizes = Json::object();
  const double samples = static_cast<double>(a.channels * a.files * a.samples_per_file);
  std::uint64_t stored = 0;
  for (const auto& e : std::filesystem::directory_iterator(opt.data_dir + "/archive")) {
    stored += e.file_size();
  }
  sizes["channels"] = static_cast<std::uint64_t>(a.channels);
  sizes["files"] = static_cast<std::uint64_t>(a.files);
  sizes["samples"] = samples;
  sizes["stored_bytes"] = stored;
  sizes["decoded_bytes"] = samples * 8;
  sizes["decoded_over_cache_budget"] = ratio_json(
      samples * 8, static_cast<double>(io::ChunkCache::global().budget()));
  sizes["request_payload_bytes"] = static_cast<std::uint64_t>(a.channels * kCols * 8);
  d["inputs"] = std::move(sizes);
  d["config"] = "das_serve defaults: coalesce 500 us, 4 workers, batch 16, "
                "queue 64; 4 client connections, Poisson arrivals";
  d["setup_s"] = setup.summary("s");
  d["setup_cpu_s"] = setup_cpu.summary("s");
  d["rss_mb"] = rss_mb.summary("MB");
  Json phase_json = Json::object();
  for (const Phase& ph : phases) {
    if (ph.name.rfind("ladder_", 0) == 0) continue;
    Json p = Json::object();
    p["rps"] = ph.rps;
    p["latency_ms"] = ph.latency().summary("ms");
    for (const Kind k : {Kind::kHot, Kind::kCold, Kind::kTime}) {
      p[std::string("latency_ms_") + kKindNames[static_cast<int>(k)]] =
          ph.latency(k).summary("ms");
    }
    p["gen_late_ms"] = ph.lateness().summary("ms");
    p["server_cpu_ms_per_request"] =
        safe_ratio(ph.server_cpu_s * 1e3, static_cast<double>(ph.answered()));
    p["failed"] = static_cast<std::uint64_t>(ph.failures());
    p["backlog_start"] = ph.backlog_start;
    p["backlog_end"] = ph.backlog_end;
    p["server_queue_depth_start"] = static_cast<std::uint64_t>(ph.server_depth_start);
    p["server_queue_depth_end"] = static_cast<std::uint64_t>(ph.server_depth_end);
    phase_json[ph.name] = std::move(p);
  }
  d["phases"] = std::move(phase_json);
  if (opt.trace) {
    d["ladder"] = std::move(ladder);
    d["ladder_limit"] = "p95 <= 50 ms, no failures, unsent backlog not growing";
    d["serve.max_rps"] = max_rps;
  }
  const Dist low_lat = low->latency();
  const Dist high_lat = high->latency();
  d["serve.low.p50_ms"] = low_lat.median();
  d["serve.low.p90_ms"] = low_lat.quantile(0.9);
  d["serve.high.p50_ms"] = high_lat.median();
  d["serve.high.p90_ms"] = high_lat.quantile(0.9);
  d["serve.high.p99_ms"] = high_lat.quantile(0.99);
  const double saturation_rps = saturation->throughput();
  d["serve.saturation_rps"] = saturation_rps;
  d["serve.saturation_latency_ms"] = saturation->latency().summary("ms");

  if (!opt.trace) {
    result.end_to_end["setup_s"] = setup_cpu.median();
    // The server's CPU time per answered request while saturated, not
    // the latency of `low` and `high` (in the detail): a request crosses
    // five thread hand-offs, and latency moved 2-3x with the host's
    // steal time. At `low` and `high` the CPU time per request also
    // carries the idle wake-ups of the batcher and workers, and moved
    // twice as much from run to run.
    result.end_to_end["cpu_ms"] = safe_ratio(saturation->server_cpu_s * 1e3,
                                             static_cast<double>(saturation->answered()));
    result.end_to_end["rss_mb"] = rss_mb.median();
    return result;
  }
  auto& L = result.per_layer;
  const CounterMark& m = *mark;
  const double hits = static_cast<double>(m.delta(counters::kIoCacheHits));
  const double misses = static_cast<double>(m.delta(counters::kIoCacheMisses));
  const double decodes = static_cast<double>(m.delta(counters::kIoCodecDecodeCalls));
  std::vector<std::string> members;
  for (const io::VcaMember& mem : direct.members()) members.push_back(mem.path);
  const double raw = decodes * mean_chunk_raw_bytes(members);
  const double dns = static_cast<double>(m.delta(counters::kIoCodecDecodeNs));
  const double touches = static_cast<double>(m.delta(counters::kIoIndexEntryTouches));
  const double queries = static_cast<double>(m.delta(counters::kIoIndexQueries));
  const double coalesced = static_cast<double>(m.delta(counters::kServeBatchCoalesced));
  const double unions = static_cast<double>(m.delta(counters::kServeBatchUnionReads));
  const double requests = static_cast<double>(m.delta(counters::kServeRequests));
  L["io.open_s"] = open_s.median();
  L["io.codec.decode_calls"] = decodes;
  L["io.codec.decode_gibps"] = safe_ratio(raw, dns) * 1e9 / (1u << 30);
  L["io.cache.hit_ratio"] = safe_ratio(hits, hits + misses);
  L["io.index.touches_per_query"] = safe_ratio(touches, queries);
  L["serve.lat.queue_wait_p99_ms"] = phase_quantile_ms(*high, serve::lat::kQueueWait, 0.99);
  L["serve.lat.coalesce_p50_ms"] = phase_quantile_ms(*low, serve::lat::kCoalesce, 0.5);
  L["serve.lat.decode_p50_ms"] = phase_quantile_ms(*high, serve::lat::kDecode, 0.5);
  L["serve.lat.write_p50_ms"] = phase_quantile_ms(*high, serve::lat::kWrite, 0.5);
  L["serve.requests_per_union"] = safe_ratio(requests, unions);
  L["serve.decodes_per_request"] = safe_ratio(decodes, requests);
  L["serve.gen_late_ms"] = std::max(low->lateness().max(), high->lateness().max());
  L["serve.max_rps"] = max_rps;
  const double untraced_p50 = low_untraced->latency().median();
  L["trace.overhead_ratio"] = safe_ratio(low_lat.median(), untraced_p50);
  L["io.read_bytes"] = static_cast<double>(m.delta(counters::kIoReadBytes));
  L["io.read_calls"] = static_cast<double>(m.delta(counters::kIoReadCalls));
  Json bases = Json::object();
  bases["io.cache.hit_ratio"] = ratio_json(hits, hits + misses);
  bases["io.codec.decode_gibps"] = ratio_json(raw, dns);
  bases["io.index.touches_per_query"] = ratio_json(touches, queries);
  bases["serve.requests_per_union"] = ratio_json(requests, unions);
  bases["serve.batch.coalesced_share"] = ratio_json(coalesced, requests);
  bases["serve.decodes_per_request"] = ratio_json(decodes, requests);
  bases["trace.overhead_ratio"] = ratio_json(low_lat.median(), untraced_p50);
  d["ratio_bases"] = std::move(bases);
  return result;
}

}  // namespace perfbench
