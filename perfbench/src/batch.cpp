// perfbench: the two batch workloads, in the shape of das_analyze.
//
//   similarity_batch      Algorithm 2 (M=25, L=10, K=1)
//   interferometry_batch  Algorithm 3 with full_correlation
//
// Both use das_analyze's defaults: hybrid engine, 2 nodes x 2 cores.
// One job is Catalog::scan + Vca::build (set-up), then the engine call
// and dash5_write of its output (job_s wall, job_cpu_s the CPU time all
// threads of the process spent on it). Before every timed job the
// ChunkCache is emptied, so each job decodes its input as a fresh
// das_analyze process would; FFT plans and thread pools stay warm from
// one untimed warm-up job.
#include <algorithm>
#include <cmath>
#include <filesystem>

#include "common.hpp"
#include "inputs.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "dassa/common/counters.hpp"
#include "dassa/common/trace.hpp"
#include "dassa/das/events.hpp"
#include "dassa/das/interferometry.hpp"
#include "dassa/das/local_similarity.hpp"
#include "dassa/das/search.hpp"
#include "dassa/dsp/stats.hpp"
#include "dassa/io/chunk_cache.hpp"
#include "dassa/io/dash5.hpp"

namespace perfbench {

namespace {

using namespace dassa;

bool is_similarity(const Options& opt) {
  return opt.workload == "similarity_batch";
}

/// Input sizes, chosen so that a run of 20 s holds at least kMinJobs
/// jobs and p90 of the job time has ten jobs beyond it. similarity:
/// 96 ch x 1 000 samples (about 0.14 s per job at 2x2 on the reference
/// 4-core box); interferometry: 128 ch x 8 000 samples (about 0.12 s).
/// Files are at least a second long: file names carry the start
/// second, so shorter files would share a name.
ArchiveSpec archive_spec(const Options& opt) {
  ArchiveSpec a;
  if (is_similarity(opt)) {
    a.channels = 96;
    a.files = 2;
    a.samples_per_file = 500;
  } else {
    a.channels = 128;
    a.files = 8;
    a.samples_per_file = 1000;
  }
  return a;
}

/// Untraced timed jobs per run, at least: p90 then has ten beyond it.
constexpr std::size_t kMinJobs = 100;

std::string archive_dir(const Options& opt) { return opt.data_dir + "/archive"; }

das::LocalSimilarityParams similarity_params() {
  das::LocalSimilarityParams p;  // das_analyze defaults: M=25, L=10, K=1
  p.window_half = 25;
  p.lag_half = 10;
  p.channel_offset = 1;
  return p;
}

/// das_analyze --pipeline interferometry --full-correlation defaults.
das::InterferometryParams interferometry_params(const io::Vca& vca) {
  das::InterferometryParams p;
  p.sampling_hz = vca.global_meta().get_f64(io::meta::kSamplingFrequencyHz);
  p.band_lo_hz = 1.0;
  p.band_hi_hz = 0.45 * p.sampling_hz;
  p.resample_down = 2;
  p.master_channel = vca.shape().rows / 2;
  p.full_correlation = true;
  return p;
}

core::EngineConfig engine_config(int nodes, int cores) {
  core::EngineConfig config;
  config.nodes = nodes;
  config.cores_per_node = cores;
  config.mode = core::EngineMode::kHybrid;
  return config;
}

/// What the correctness check compares each job's output against,
/// computed once per run (untimed) by the single-node reference path
/// (das::local_similarity / das::interferometry_single_node) over the
/// whole array.
struct Reference {
  core::Array2D expected;
  std::size_t events = 0;  // similarity: events in the reference map
};

/// Per-value tolerance, relative to max(1, the row's peak). Not byte
/// equality: a running-sum similarity kernel changes rounding by about
/// 1e-13, and the reference paths thread differently.
constexpr double kTolerance = 1e-9;

Reference make_reference(const Options& opt, const io::Vca& vca) {
  const Shape2D s = vca.shape();
  core::Array2D input(s);
  input.data = vca.read_slab({0, 0, s.rows, s.cols});
  Reference ref;
  if (is_similarity(opt)) {
    ref.expected = das::local_similarity(input, similarity_params(), 4);
    ref.events = das::detect_events(ref.expected).size();
  } else {
    ref.expected =
        das::interferometry_single_node(input, interferometry_params(vca), 4);
  }
  return ref;
}

/// Every value within kTolerance of the reference.
bool output_matches(const Reference& ref, const core::Array2D& out) {
  if (out.shape != ref.expected.shape) return false;
  for (std::size_t r = 0; r < out.shape.rows; ++r) {
    const auto want = ref.expected.row(r);
    const auto got = out.row(r);
    double peak = 1.0;
    for (const double v : want) peak = std::max(peak, std::fabs(v));
    for (std::size_t c = 0; c < want.size(); ++c) {
      // Written so that a NaN fails.
      if (!(std::fabs(got[c] - want[c]) <= kTolerance * peak)) return false;
    }
  }
  return true;
}

/// Everything measured about one job.
struct JobSample {
  double setup_s = 0.0;
  double setup_cpu_s = 0.0;
  double open_s = 0.0;
  double job_s = 0.0;
  double job_cpu_s = 0.0;
  double write_s = 0.0;
  double read_s = 0.0;
  double compute_s = 0.0;
  double gather_s = 0.0;
  std::uint64_t mpi_messages = 0;
  std::uint64_t mpi_bytes = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t read_calls = 0;
  std::uint64_t decode_calls = 0;
  std::uint64_t decode_ns = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::size_t events = 0;
  bool ok = true;
};

JobSample run_job(const Options& opt, const Reference& ref,
                  const core::EngineConfig& config, std::size_t rep,
                  bool corrupt) {
  JobSample s;
  io::ChunkCache::global().clear();
  const std::string out_path = opt.data_dir + "/result.dh5";

  const double cpu0 = process_cpu_s();
  const std::uint64_t t0 = spans::now_ns();
  std::vector<std::string> files;
  {
    spans::Span span("das::Catalog::scan", "das");
    files = das::Catalog::paths(das::Catalog::scan(archive_dir(opt)).entries());
  }
  const std::uint64_t t_open = spans::now_ns();
  io::Vca vca;
  {
    spans::Span span("io::Vca::build", "io");
    vca = io::Vca::build(files);
  }
  const std::uint64_t t1 = spans::now_ns();
  s.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  s.setup_cpu_s = process_cpu_s() - cpu0;
  s.open_s = static_cast<double>(t1 - t_open) * 1e-9;

  const CounterMark mark;
  const double cpu2 = process_cpu_s();
  const std::uint64_t t2 = spans::now_ns();
  core::EngineReport report;
  {
    const bool sim = is_similarity(opt);
    spans::Span span(sim ? "das::local_similarity_distributed"
                         : "das::interferometry_distributed",
                     "das");
    report = sim ? das::local_similarity_distributed(config, vca,
                                                     similarity_params())
                 : das::interferometry_distributed(
                       config, vca, interferometry_params(vca));
    // The engine's own stage walls (max over ranks), laid end to end
    // under the call: read (+ halo exchange) -> compute -> gather.
    struct Stage {
      const char* key;
      const char* name;
      const char* module;
    };
    std::uint64_t at = span.start_ns();
    for (const Stage& st : {Stage{"read", "io.read+halo", "io"},
                            Stage{"compute", "core.compute", "core"},
                            Stage{"write", "core.gather", "core"}}) {
      const auto ns = static_cast<std::uint64_t>(report.stages.get(st.key) * 1e9);
      spans::record(st.name, st.module, span.id(), at, at + ns);
      at += ns;
    }
  }
  if (corrupt) report.output.data[report.output.data.size() / 2] += 0.25;
  const std::uint64_t t3 = spans::now_ns();
  {
    spans::Span span("io::dash5_write", "io");
    io::Dash5Header header;
    header.shape = report.output.shape;
    header.global = vca.global_meta();
    io::dash5_write(out_path, header, report.output.data);
  }
  const std::uint64_t t4 = spans::now_ns();
  s.job_cpu_s = process_cpu_s() - cpu2;
  s.job_s = static_cast<double>(t4 - t2) * 1e-9;
  s.write_s = static_cast<double>(t4 - t3) * 1e-9;
  s.read_s = report.stages.get("read");
  s.compute_s = report.stages.get("compute");
  s.gather_s = report.stages.get("write");
  s.mpi_messages = report.comm.p2p_sends;
  s.mpi_bytes = report.comm.bytes_sent;
  s.read_bytes = mark.delta(counters::kIoReadBytes);
  s.read_calls = mark.delta(counters::kIoReadCalls);
  s.decode_calls = mark.delta(counters::kIoCodecDecodeCalls);
  s.decode_ns = mark.delta(counters::kIoCodecDecodeNs);
  s.cache_hits = mark.delta(counters::kIoCacheHits);
  s.cache_misses = mark.delta(counters::kIoCacheMisses);
  if (is_similarity(opt)) s.events = das::detect_events(report.output).size();
  s.ok = output_matches(ref, report.output) && s.events == ref.events;
  if (rep == 0) {
    // The file on disk must hold exactly the array the engine returned.
    const io::Dash5File back(out_path);
    s.ok = s.ok && back.shape() == report.output.shape &&
           back.read_all() == report.output.data;
  }
  return s;
}

template <typename F>
Dist collect(const std::vector<JobSample>& jobs, F field) {
  Dist d;
  for (const JobSample& j : jobs) d.add(static_cast<double>(field(j)));
  return d;
}

}  // namespace

void generate_batch(const Options& opt) {
  write_files(archive_dir(opt), archive_spec(opt), opt.seed, 0,
              archive_spec(opt).files);
}

Result run_batch(const Options& opt) {
  Result result;
  const ArchiveSpec a = archive_spec(opt);
  const bool sim = is_similarity(opt);
  const core::EngineConfig config = engine_config(2, 2);

  // Untimed: the reference output, then one warm-up job.
  Reference ref;
  {
    const io::Vca vca = io::Vca::build(das::Catalog::paths(
        das::Catalog::scan(archive_dir(opt)).entries()));
    ref = make_reference(opt, vca);
  }
  result.check(run_job(opt, ref, config, 0, false).ok);
  // rss_mb is the peak over the timed jobs only: hand the reference's
  // freed memory back and restart the high-water mark here. What stays
  // is the reference output the checker holds (detail.reference_mb).
  reset_peak_rss();

  // Timed jobs until the run's time is spent (at least kMinJobs; the
  // traced run at least three per half). The traced run spends half of
  // it untraced, half traced, so the two medians give
  // trace.overhead_ratio.
  std::vector<JobSample> plain;
  std::vector<JobSample> traced;
  const std::uint64_t start = spans::now_ns();
  const auto elapsed = [&] {
    return static_cast<double>(spans::now_ns() - start) * 1e-9;
  };
  const double plain_budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::size_t rep = 1;
  const std::size_t min_jobs = opt.trace ? 3 : kMinJobs;
  while (plain.size() < min_jobs || elapsed() < plain_budget) {
    plain.push_back(run_job(opt, ref, config, rep, opt.corrupt && rep == 1));
    result.check(plain.back().ok);
    ++rep;
  }
  if (opt.trace) {
    spans::enable(true);
    trace::set_enabled(true);
    while (traced.size() < 3 || elapsed() < opt.seconds) {
      traced.push_back(run_job(opt, ref, config, rep++, false));
      result.check(traced.back().ok);
    }
    trace::set_enabled(false);
    spans::enable(false);
  }

  const Dist job = collect(plain, [](const JobSample& j) { return j.job_s; });
  const Dist job_cpu = collect(plain, [](const JobSample& j) { return j.job_cpu_s; });
  const Dist setup = collect(plain, [](const JobSample& j) { return j.setup_s; });
  const Dist setup_cpu = collect(plain, [](const JobSample& j) { return j.setup_cpu_s; });
  const double cells = static_cast<double>(a.channels * a.files * a.samples_per_file);

  Json& d = result.detail;
  Json sizes = Json::object();
  sizes["channels"] = static_cast<std::uint64_t>(a.channels);
  sizes["files"] = static_cast<std::uint64_t>(a.files);
  sizes["samples"] = static_cast<std::uint64_t>(cells);
  std::uint64_t stored = 0;
  for (const auto& e : std::filesystem::directory_iterator(archive_dir(opt))) {
    stored += e.file_size();
  }
  sizes["stored_bytes"] = stored;
  sizes["decoded_bytes"] = static_cast<std::uint64_t>(cells * 8);
  sizes["decoded_over_cache_budget"] = ratio_json(
      cells * 8, static_cast<double>(io::ChunkCache::global().budget()));
  d["inputs"] = std::move(sizes);
  d["engine"] = "hybrid, 2 nodes x 2 cores";
  d["job_s"] = job.summary("s");
  d["job_cpu_s"] = job_cpu.summary("s");
  d["samples_per_s"] = cells / job.median();
  d["setup_s"] = setup.summary("s");
  d["setup_cpu_s"] = setup_cpu.summary("s");
  d["jobs"] = static_cast<std::uint64_t>(plain.size());
  d["reference_mb"] =
      static_cast<double>(ref.expected.data.size() * sizeof(double)) / (1 << 20);

  if (!opt.trace) {
    // CPU time, not wall time (setup_s and job_s in the detail): on the
    // shared host a 4-thread job's wall time doubled at 25% steal time;
    // CPU time leaves steal out (README "Steadiness").
    result.end_to_end["setup_s"] = setup_cpu.median();
    result.end_to_end["cpu_ms"] = job_cpu.median() * 1e3;
    // A batch user sizes the machine for the job's peak. (The sampled
    // median moved 0.8-1.2x between runs with the allocator's retained
    // arenas; the peak half as much.)
    result.end_to_end["rss_mb"] = peak_rss_mb();
    return result;
  }

  // Traced run: per-layer metrics from the traced jobs, counts from
  // every job (they repeat exactly), plus a single-threaded 1x1 job.
  const std::vector<JobSample>& t = traced;
  const Dist traced_job = collect(t, [](const JobSample& j) { return j.job_s; });
  const JobSample serial = run_job(opt, ref, engine_config(1, 1), rep, false);
  result.check(serial.ok);

  auto& L = result.per_layer;
  const auto med = [&](auto field) { return collect(t, field).median(); };
  L["io.open_s"] = med([](const JobSample& j) { return j.open_s; });
  L["io.read_s"] = med([](const JobSample& j) { return j.read_s; });
  L["io.read_bytes"] = med([](const JobSample& j) { return j.read_bytes; });
  L["io.read_calls"] = med([](const JobSample& j) { return j.read_calls; });
  L["io.codec.decode_calls"] = med([](const JobSample& j) { return j.decode_calls; });
  const double raw =
      med([](const JobSample& j) { return j.decode_calls; }) *
      mean_chunk_raw_bytes(
          das::Catalog::paths(das::Catalog::scan(archive_dir(opt)).entries()));
  const double dns = med([](const JobSample& j) { return j.decode_ns; });
  L["io.codec.decode_gibps"] = safe_ratio(raw, dns) * 1e9 / (1u << 30);
  const double hits = med([](const JobSample& j) { return j.cache_hits; });
  const double misses = med([](const JobSample& j) { return j.cache_misses; });
  L["io.cache.hit_ratio"] = safe_ratio(hits, hits + misses);
  L["io.write_s"] = med([](const JobSample& j) { return j.write_s; });
  L["mpi.messages"] = med([](const JobSample& j) { return j.mpi_messages; });
  L["mpi.bytes"] = med([](const JobSample& j) { return j.mpi_bytes; });
  const double compute = med([](const JobSample& j) { return j.compute_s; });
  L["core.compute_s"] = compute;
  L["core.gather_s"] = med([](const JobSample& j) { return j.gather_s; });
  L["core.speedup_4t"] = safe_ratio(serial.job_s, job.median());
  if (sim) {
    const das::LocalSimilarityParams p = similarity_params();
    // Per cell: two neighbour channels x (2L+1) lags x (2M+1) samples
    // x 3 multiply-adds (x.y, x.x, y.y) = 6 flops. Computed, not counted.
    const double ops = cells * 2.0 * static_cast<double>(2 * p.lag_half + 1) *
                       static_cast<double>(2 * p.window_half + 1) * 6.0;
    L["das.similarity.mcells_per_s"] = safe_ratio(cells, compute) * 1e-6;
    L["das.similarity.gop_computed"] = ops * 1e-9;
    L["das.events_detected"] = static_cast<double>(plain.front().events);
  }
  dsp::publish_dsp_counters();
  const double plan_hits = static_cast<double>(global_counters().get(counters::kDspFftPlanHits));
  const double plan_misses = static_cast<double>(global_counters().get(counters::kDspFftPlanMisses));
  L["dsp.fft.plan_hit_ratio"] = safe_ratio(plan_hits, plan_hits + plan_misses);
  L["trace.overhead_ratio"] = safe_ratio(traced_job.median(), job.median());

  Json bases = Json::object();
  bases["io.codec.decode_gibps"] = ratio_json(raw, dns);
  bases["io.cache.hit_ratio"] = ratio_json(hits, hits + misses);
  bases["core.speedup_4t"] = ratio_json(serial.job_s, job.median());
  bases["dsp.fft.plan_hit_ratio"] = ratio_json(plan_hits, plan_hits + plan_misses);
  bases["trace.overhead_ratio"] = ratio_json(traced_job.median(), job.median());
  d["ratio_bases"] = std::move(bases);
  d["traced_job_s"] = traced_job.summary("s");
  d["serial_1x1_job_s"] = serial.job_s;
  return result;
}

}  // namespace perfbench
