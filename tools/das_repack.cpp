// das_repack: rewrite DASH5 files into a chosen layout and codec —
// the v2 <-> v3 migration path. Metadata (global KV + channel objects)
// and sample values are preserved exactly; only the storage
// arrangement changes.
//
// With one input the file is rewritten in bounded memory by streaming
// row blocks through Dash5StreamWriter. With several inputs (time
// order) the tool is a concatenator: it builds one merged file, and
// `--ranks N` distributes the job over N MiniMPI ranks via the
// parallel repack engine — each rank encodes ~1/p of the chunks into
// its own disjoint extent, byte-identical to a serial build. The
// parallel path needs a codec chain (it writes v3); without one the
// concatenation falls back to the serial streaming RCA builder.
//
// Usage:
//   das_repack <in.dh5> [<in2.dh5> ...] <out.dh5>
//              [--codec none|shuffle+lz|delta+lz|...]  (default none)
//              [--chunk RxC]      (default: input chunking, else 32x1024)
//              [--contiguous]     (plain v2 contiguous output)
//              [--rows-per-block N]
//              [--ranks N]        (parallel concatenation world size)
//              [--verify]         (re-read both sides, compare bit-exact)
//              [--telemetry out.tlm] [--telemetry-period-ms N]
//                                 (concat mode: sample the run, write a
//                                  checked telemetry file; das_top --file)
#include <cstring>
#include <filesystem>
#include <iostream>

#include "tool_common.hpp"
#include "dassa/common/log.hpp"
#include "dassa/common/telemetry.hpp"
#include "dassa/das/search.hpp"
#include "dassa/io/dash5.hpp"
#include "dassa/io/repack.hpp"
#include "dassa/io/vca.hpp"

namespace {

using namespace dassa;

io::ChunkShape parse_chunk(const std::string& text) {
  const std::size_t x = text.find('x');
  if (x == std::string::npos || x == 0 || x + 1 >= text.size()) {
    throw InvalidArgument("--chunk expects ROWSxCOLS, got '" + text + "'");
  }
  io::ChunkShape chunk;
  chunk.rows = static_cast<std::size_t>(std::stoull(text.substr(0, x)));
  chunk.cols = static_cast<std::size_t>(std::stoull(text.substr(x + 1)));
  return chunk;
}

/// Block-by-block bit-exact comparison of two datasets (Dash5File or
/// Vca — anything with shape() and read_slab()). Both sides decode to
/// double through the same element pipeline, so equal storage means
/// equal bit patterns.
template <typename SourceA, typename SourceB>
bool datasets_match(const SourceA& a, const SourceB& b,
                    std::size_t rows_per_block) {
  if (!(a.shape() == b.shape())) return false;
  const Shape2D shape = a.shape();
  for (std::size_t r0 = 0; r0 < shape.rows; r0 += rows_per_block) {
    const std::size_t cnt = std::min(rows_per_block, shape.rows - r0);
    const Slab2D slab{r0, 0, cnt, shape.cols};
    const std::vector<double> lhs = a.read_slab(slab);
    const std::vector<double> rhs = b.read_slab(slab);
    if (std::memcmp(lhs.data(), rhs.data(), lhs.size() * sizeof(double)) !=
        0) {
      return false;
    }
  }
  return true;
}

/// Write the concat run as a telemetry file: the sampler timeline plus,
/// for the parallel engine, one snapshot per rank with its repack
/// counters, the merged output's rows and the run's wall time as the
/// "repack" stage. Read back
/// through the strict reader before the success log, exactly like
/// `das_analyze --telemetry`.
void export_telemetry(const std::string& path, std::size_t n_inputs,
                      const io::RepackReport* report,
                      const telemetry::TelemetrySampler& sampler) {
  telemetry::TelemetryFile file;
  file.meta["tool"] = "das_repack";
  file.meta["inputs"] = std::to_string(n_inputs);
  if (report != nullptr) {
    const std::size_t p = report->rank_source_bytes.size();
    file.meta["world_size"] = std::to_string(p);
    for (std::size_t r = 0; r < p; ++r) {
      Snapshot rank;
      rank.counters["io.repack.source_bytes"] = report->rank_source_bytes[r];
      rank.counters["io.repack.chunks_encoded"] = report->rank_chunks[r];
      rank.counters["io.repack.rows"] = report->shape.rows;
      rank.counters["io.repack.stage.repack_ns"] =
          static_cast<std::uint64_t>(report->seconds * 1e9);
      file.ranks.push_back(std::move(rank));
    }
  }
  tools::export_telemetry(path, std::move(file), sampler, "repack.telemetry",
                          /*report=*/false);
}

/// Multi-input mode: concatenate `inputs` into one merged file —
/// parallel v3 build when a codec chain is given, serial streaming RCA
/// otherwise.
int run_concat(const tools::Args& args,
               const std::vector<std::string>& inputs,
               const std::string& out_path) {
  const auto rows_per_block =
      static_cast<std::size_t>(args.get_long("--rows-per-block", 64));
  DASSA_CHECK(rows_per_block >= 1, "--rows-per-block must be >= 1");
  DASSA_CHECK(!args.has("--contiguous"),
              "--contiguous applies to single-input rewrites only");
  const auto ranks = static_cast<int>(args.get_long("--ranks", 1));
  DASSA_CHECK(ranks >= 1, "--ranks must be >= 1");
  const io::CodecSpec codec =
      io::CodecSpec::parse(args.get("--codec", "none"));

  telemetry::TelemetrySampler sampler{telemetry::SamplerConfig{
      .period = std::chrono::milliseconds(
          args.get_long("--telemetry-period-ms", 50))}};
  const bool want_telemetry = args.has("--telemetry");
  if (want_telemetry) sampler.start();
  const io::RepackReport* report_ptr = nullptr;
  io::RepackReport report;

  if (codec.empty()) {
    // No codec chain: the parallel engine has nothing to build (it
    // writes v3), so concatenate through the serial streaming RCA.
    DASSA_CHECK(ranks == 1,
                "--ranks needs a codec chain (parallel output is v3); "
                "drop --ranks or add --codec");
    const io::RcaBuildStats stats =
        io::rca_create_streaming(inputs, out_path, rows_per_block);
    DASSA_SLOG(kInfo, "repack.concat_serial")
            .field("inputs", static_cast<std::uint64_t>(inputs.size()))
            .field("out", out_path)
            .field("bytes_read", stats.bytes_read)
            .field("bytes_written", stats.bytes_written)
        << stats.seconds << "s";
  } else {
    io::RepackOptions opts;
    opts.codec = codec;
    if (args.has("--chunk")) {
      opts.chunk = parse_chunk(args.get("--chunk"));
    } else {
      opts.chunk = {32, 1024};
    }
    report = io::parallel_repack(inputs, out_path, opts, ranks);
    report_ptr = &report;
    std::uint64_t max_src = 0;
    std::uint64_t sum_src = 0;
    for (const std::uint64_t b : report.rank_source_bytes) {
      max_src = std::max(max_src, b);
      sum_src += b;
    }
    DASSA_SLOG(kInfo, "repack.concat_parallel")
            .field("inputs", static_cast<std::uint64_t>(inputs.size()))
            .field("out", out_path)
            .field("ranks", static_cast<std::uint64_t>(ranks))
            .field("chunks", static_cast<std::uint64_t>(report.n_chunks))
            .field("out_bytes", report.out_bytes)
            .field("source_bytes", sum_src)
            .field("max_rank_source_bytes", max_src)
        << report.seconds << "s";
  }

  if (want_telemetry) {
    sampler.tick();  // capture the end state deterministically
    sampler.stop();
    export_telemetry(args.get("--telemetry"), inputs.size(), report_ptr,
                     sampler);
  }

  if (args.has("--verify")) {
    const io::Vca vca = io::Vca::build(inputs);
    const io::Dash5File check(out_path);
    if (!datasets_match(vca, check, rows_per_block)) {
      DASSA_SLOG(kError, "repack.verify_failed").field("out", out_path);
      return 1;
    }
    DASSA_SLOG(kInfo, "repack.verify") << "bit-exact concatenation ok";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const tools::Args args(argc, argv);
  if (args.positional().size() < 2) {
    std::cerr << "usage: das_repack <in.dh5> [<in2.dh5> ...] <out.dh5> "
                 "[--codec CHAIN] [--chunk RxC] [--contiguous] "
                 "[--rows-per-block N] [--ranks N] [--verify] "
                 "[--save-vca out.vca] [--telemetry out.tlm]\n";
    return 2;
  }
  const std::string in_path = args.positional().front();
  const std::string out_path = args.positional().back();
  dassa::set_log_level(dassa::LogLevel::kInfo);
  try {
    if (args.positional().size() > 2 || args.has("--ranks")) {
      const std::vector<std::string> inputs(args.positional().begin(),
                                            args.positional().end() - 1);
      const int rc = run_concat(args, inputs, out_path);
      if (rc == 0 && args.has("--save-vca")) {
        // Publish the source set as an indexed VCA (.vca + .tix
        // sidecar): the serving layer reads the same members this
        // repack just concatenated, with sub-linear time lookups.
        das::save_vca_with_index(io::Vca::build(inputs),
                                 args.get("--save-vca"));
        DASSA_SLOG(kInfo, "repack.save_vca")
            .field("path", args.get("--save-vca"))
            .field("members", static_cast<std::uint64_t>(inputs.size()));
      }
      return rc;
    }
    const io::Dash5File in(in_path);
    const auto rows_per_block = static_cast<std::size_t>(
        args.get_long("--rows-per-block", 64));
    DASSA_CHECK(rows_per_block >= 1, "--rows-per-block must be >= 1");

    io::Dash5Header header = io::Dash5File::read_header(in_path);
    header.codec = io::CodecSpec::parse(args.get("--codec", "none"));
    if (args.has("--contiguous")) {
      DASSA_CHECK(header.codec.empty(),
                  "--contiguous cannot carry a codec chain");
      header.layout = io::Layout::kContiguous;
      header.chunk = {0, 0};
    } else if (args.has("--chunk")) {
      header.layout = io::Layout::kChunked;
      header.chunk = parse_chunk(args.get("--chunk"));
    } else if (!header.codec.empty() &&
               header.layout != io::Layout::kChunked) {
      header.layout = io::Layout::kChunked;
      header.chunk = {32, 1024};
    }
    // The stream writer takes contiguous (no codec) or chunked+codec;
    // a plain chunked v2 rewrite goes through the one-shot writer.
    const bool streamed =
        header.codec.empty() ? header.layout == io::Layout::kContiguous
                             : true;
    if (streamed) {
      io::Dash5StreamWriter out(out_path, header);
      const Shape2D shape = in.shape();
      for (std::size_t r0 = 0; r0 < shape.rows; r0 += rows_per_block) {
        const std::size_t cnt = std::min(rows_per_block, shape.rows - r0);
        out.append(in.read_slab({r0, 0, cnt, shape.cols}));
      }
      out.close();
    } else {
      io::dash5_write(out_path, header, in.read_all());
    }

    const auto in_bytes = std::filesystem::file_size(in_path);
    const auto out_bytes = std::filesystem::file_size(out_path);
    DASSA_SLOG(kInfo, "repack.done")
            .field("in", in_path)
            .field("in_version", int{in.version()})
            .field("in_bytes", static_cast<std::uint64_t>(in_bytes))
            .field("out", out_path)
            .field("codec", header.codec.str())
            .field("out_bytes", static_cast<std::uint64_t>(out_bytes))
        << static_cast<double>(in_bytes) / static_cast<double>(out_bytes)
        << "x";

    if (args.has("--verify")) {
      const io::Dash5File check(out_path);
      if (!datasets_match(in, check, rows_per_block)) {
        DASSA_SLOG(kError, "repack.verify_failed")
            .field("out", out_path)
            .field("in", in_path);
        return 1;
      }
      DASSA_SLOG(kInfo, "repack.verify") << "bit-exact roundtrip ok";
    }
    return 0;
  } catch (const std::exception& e) {
    DASSA_SLOG(kError, "repack.fail") << e.what();
    return 1;
  }
}
