// Deterministic mutational fuzzing of the DASSA container parsers.
//
// Contract under test (docs/ANALYSIS.md): for ANY byte stream, opening
// a DasH5 / VCA container and reading through it either succeeds or
// throws a dassa::Error (FormatError for structural corruption,
// IoError for I/O bounds, InvalidArgument for bad selections). It must
// never crash, corrupt memory, raise std::bad_alloc from a
// attacker-sized allocation, or throw a non-DASSA exception.
//
// The harness is corpus-driven and self-contained -- no libFuzzer
// dependency, a seeded std::mt19937_64, so every run (and every
// failure) is reproducible from the command line:
//
//   fuzz_dash5 [--iters N] [--seed S] [--scratch DIR] [--keep-failures]
//
// Each iteration picks a valid seed container (contiguous f64 DasH5,
// chunked f32 DasH5, compressed v3 DasH5 under both codec chains, VCA,
// KV-heavy DasH5), applies 1-3 random mutations (bit flips, byte
// stomps, truncation, growth, zeroed and garbage spans, plus
// v3-targeted chunk-index mutations that re-sign the index CRC so the
// corruption reaches the structural validators), writes the result to
// a scratch file and runs the full parse+read surface over it. A
// failing input is saved next to the scratch file so it can be
// replayed and minimised by hand.
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "dassa/common/error.hpp"
#include "dassa/common/wire.hpp"
#include "dassa/io/dash5.hpp"
#include "dassa/io/vca.hpp"

namespace fs = std::filesystem;
using dassa::Shape2D;
using dassa::Slab2D;

namespace {

struct Options {
  std::uint64_t iters = 10000;
  std::uint64_t seed = 20260806;
  std::string scratch;
  bool keep_failures = false;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--iters") {
      opt.iters = std::stoull(value());
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--scratch") {
      opt.scratch = value();
    } else if (arg == "--keep-failures") {
      opt.keep_failures = true;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      std::exit(2);
    }
  }
  return opt;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// One seed container: the valid bytes plus which parser to aim at.
struct SeedInput {
  enum class Kind { kDash5, kVca };
  Kind kind;
  std::string name;
  std::vector<std::uint8_t> bytes;
};

/// Build the seed corpus inside `dir`: every container format and
/// layout/dtype combination the io layer supports.
std::vector<SeedInput> build_corpus(const fs::path& dir) {
  using namespace dassa::io;

  auto make_data = [](Shape2D shape, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> dist;
    std::vector<double> data(shape.size());
    for (auto& v : data) v = dist(rng);
    return data;
  };

  auto base_header = [](Shape2D shape) {
    Dash5Header h;
    h.shape = shape;
    h.global.set_f64("SamplingFrequency[Hz]", 500.0);
    h.global.set("TimeStamp", "170620100545");
    for (std::size_t ch = 0; ch < shape.rows; ++ch) {
      ObjectMeta obj;
      obj.path = "/Measurement/" + std::to_string(ch + 1);
      obj.kv.set_i64("Array dimension", 1);
      h.objects.push_back(std::move(obj));
    }
    return h;
  };

  // Contiguous f64.
  {
    const Shape2D shape{6, 40};
    dash5_write((dir / "plain.dh5").string(), base_header(shape),
                make_data(shape, 1));
  }
  // Chunked f32 (exercises the tile grid arithmetic).
  {
    const Shape2D shape{7, 33};
    Dash5Header h = base_header(shape);
    h.dtype = DType::kF32;
    h.layout = Layout::kChunked;
    h.chunk = ChunkShape{3, 8};
    dash5_write((dir / "chunked.dh5").string(), h, make_data(shape, 2));
  }
  // KV-heavy: long keys/values, many objects (exercises the KV codec).
  {
    const Shape2D shape{4, 10};
    Dash5Header h = base_header(shape);
    for (int i = 0; i < 24; ++i) {
      h.global.set("key_" + std::to_string(i) + std::string(20, 'k'),
                   std::string(static_cast<std::size_t>(i) * 7, 'v'));
    }
    dash5_write((dir / "kv.dh5").string(), h, make_data(shape, 3));
  }
  // Compressed v3 f64 (chunk index footer, shuffle+lz chain).
  {
    const Shape2D shape{9, 50};
    Dash5Header h = base_header(shape);
    h.layout = Layout::kChunked;
    h.chunk = ChunkShape{4, 16};
    h.codec = CodecSpec::parse("shuffle+lz");
    dash5_write((dir / "v3_shuffle.dh5").string(), h, make_data(shape, 6));
  }
  // Compressed v3 f32 (delta+lz chain, odd tile grid).
  {
    const Shape2D shape{5, 41};
    Dash5Header h = base_header(shape);
    h.dtype = DType::kF32;
    h.layout = Layout::kChunked;
    h.chunk = ChunkShape{2, 8};
    h.codec = CodecSpec::parse("delta+lz");
    dash5_write((dir / "v3_delta.dh5").string(), h, make_data(shape, 7));
  }
  // VCA over two members (exercises the .vca parser; its member paths
  // point at real files, so post-parse reads exercise resolution too).
  {
    const Shape2D shape{5, 16};
    dash5_write((dir / "m0.dh5").string(), base_header(shape),
                make_data(shape, 4));
    dash5_write((dir / "m1.dh5").string(), base_header(shape),
                make_data(shape, 5));
    const Vca vca = Vca::build(
        {(dir / "m0.dh5").string(), (dir / "m1.dh5").string()});
    vca.save((dir / "pair.vca").string());
  }

  std::vector<SeedInput> corpus;
  for (const char* name : {"plain.dh5", "chunked.dh5", "kv.dh5",
                           "v3_shuffle.dh5", "v3_delta.dh5"}) {
    corpus.push_back({SeedInput::Kind::kDash5, name,
                      read_file((dir / name).string())});
  }
  corpus.push_back({SeedInput::Kind::kVca, "pair.vca",
                    read_file((dir / "pair.vca").string())});
  return corpus;
}

/// True iff `bytes` still ends with the v3 chunk index magic.
bool has_v3_footer(const std::vector<std::uint8_t>& bytes) {
  static const std::uint8_t magic[8] = {'D', 'A', 'S', 'I', 'D', 'X', 0, 3};
  return bytes.size() >= 28 &&
         std::memcmp(bytes.data() + bytes.size() - 8, magic, 8) == 0;
}

/// Mutate a byte inside the chunk index block and re-sign its CRC, so
/// the corruption survives the integrity gate and reaches the
/// structural validators (dense offsets, size bounds, codec flags).
/// Returns false when the input has no (intact) footer.
bool mutate_v3_index(std::vector<std::uint8_t>& bytes, std::mt19937_64& rng,
                     std::string& what) {
  if (!has_v3_footer(bytes)) return false;
  std::uint64_t index_size = 0;
  std::memcpy(&index_size, bytes.data() + bytes.size() - 16,
              sizeof index_size);
  if (index_size == 0 || index_size > bytes.size() - 20) return false;
  const std::size_t index_start =
      bytes.size() - 20 - static_cast<std::size_t>(index_size);
  const std::size_t p =
      index_start + std::uniform_int_distribution<std::size_t>(
                        0, static_cast<std::size_t>(index_size) - 1)(rng);
  if (rng() % 2 == 0) {
    bytes[p] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
  } else {
    bytes[p] = static_cast<std::uint8_t>(rng());
  }
  const std::uint32_t crc = dassa::wire::crc32(
      reinterpret_cast<const std::byte*>(bytes.data()) + index_start,
      static_cast<std::size_t>(index_size));
  std::memcpy(bytes.data() + bytes.size() - 20, &crc, sizeof crc);
  what = "v3index@" + std::to_string(p) + "+crcfix";
  return true;
}

/// Stomp one of the three footer control fields (index CRC, index
/// size, trailing magic) without fixing anything up.
bool mutate_v3_footer(std::vector<std::uint8_t>& bytes, std::mt19937_64& rng,
                      std::string& what) {
  if (!has_v3_footer(bytes)) return false;
  const std::size_t tail = 20;  // crc u32 + size u64 + magic u64
  const std::size_t p =
      bytes.size() - tail +
      std::uniform_int_distribution<std::size_t>(0, tail - 1)(rng);
  bytes[p] = rng() % 2 == 0 ? 0xFF : static_cast<std::uint8_t>(rng());
  what = "v3footer@" + std::to_string(p);
  return true;
}

/// Apply one random mutation in place; returns a description for
/// failure reports.
std::string mutate_once(std::vector<std::uint8_t>& bytes,
                        std::mt19937_64& rng) {
  auto pos = [&](std::size_t extent) {
    return std::uniform_int_distribution<std::size_t>(0, extent - 1)(rng);
  };
  if (bytes.empty()) bytes.push_back(0);
  switch (rng() % 9) {
    case 7: {  // v3: index mutation behind a fixed-up CRC
      std::string what;
      if (mutate_v3_index(bytes, rng, what)) return what;
      break;  // not a v3 file (any more): fall through to a bit flip
    }
    case 8: {  // v3: footer control-field stomp
      std::string what;
      if (mutate_v3_footer(bytes, rng, what)) return what;
      break;
    }
    default:
      break;
  }
  switch (rng() % 7) {
    case 0: {  // flip 1-8 bits
      const auto flips = 1 + rng() % 8;
      std::string where;
      for (std::uint64_t i = 0; i < flips; ++i) {
        const std::size_t p = pos(bytes.size());
        bytes[p] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
        where += (where.empty() ? "" : ",") + std::to_string(p);
      }
      return "bitflip@" + where;
    }
    case 1: {  // stomp one byte
      const std::size_t p = pos(bytes.size());
      bytes[p] = static_cast<std::uint8_t>(rng());
      return "stomp@" + std::to_string(p);
    }
    case 2: {  // overwrite 4 bytes (magic numbers, lengths, counts)
      const std::size_t p = pos(bytes.size());
      for (std::size_t i = p; i < std::min(p + 4, bytes.size()); ++i) {
        bytes[i] = static_cast<std::uint8_t>(rng());
      }
      return "stomp4@" + std::to_string(p);
    }
    case 3: {  // truncate
      const std::size_t keep = pos(bytes.size() + 1);
      bytes.resize(keep);
      return "truncate->" + std::to_string(keep);
    }
    case 4: {  // grow with garbage
      const std::size_t extra = 1 + rng() % 64;
      for (std::size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(rng()));
      }
      return "grow+" + std::to_string(extra);
    }
    case 5: {  // zero a span (simulates a hole from a failed write)
      const std::size_t p = pos(bytes.size());
      const std::size_t len = std::min<std::size_t>(1 + rng() % 32,
                                                    bytes.size() - p);
      std::fill(bytes.begin() + static_cast<std::ptrdiff_t>(p),
                bytes.begin() + static_cast<std::ptrdiff_t>(p + len), 0);
      return "zero@" + std::to_string(p) + "+" + std::to_string(len);
    }
    default: {  // saturate 8 bytes to 0xFF (length-field overflow bait)
      const std::size_t p = pos(bytes.size());
      for (std::size_t i = p; i < std::min(p + 8, bytes.size()); ++i) {
        bytes[i] = 0xFF;
      }
      return "saturate8@" + std::to_string(p);
    }
  }
}

/// Exercise the full read surface of a (possibly corrupted) DasH5 file.
void drive_dash5(const std::string& path) {
  using namespace dassa::io;
  const Dash5File f(path);
  (void)f.global_meta();
  (void)f.objects();
  (void)f.version();
  (void)f.codec().str();
  (void)f.chunk_index();
  const Shape2D shape = f.shape();
  (void)f.read_all();
  if (shape.rows > 0 && shape.cols > 0) {
    (void)f.read_slab(Slab2D{0, 0, 1, shape.cols});
    (void)f.read_slab(Slab2D{shape.rows - 1, shape.cols - 1, 1, 1});
    (void)f.read_slab(
        Slab2D{0, shape.cols / 2, shape.rows, shape.cols - shape.cols / 2});
  }
  (void)Dash5File::read_header(path);
}

/// Exercise the full read surface of a (possibly corrupted) VCA file.
void drive_vca(const std::string& path) {
  using namespace dassa::io;
  const Vca vca = Vca::load(path);
  (void)vca.global_meta();
  const Shape2D shape = vca.shape();
  for (std::size_t m = 0; m < vca.members().size(); ++m) {
    (void)vca.member_col_start(m);
  }
  if (!shape.empty()) {
    (void)vca.resolve(Slab2D::whole(shape));
    // Member paths may have been mutated into nonsense; IoError is the
    // documented outcome for that.
    (void)vca.read_slab(Slab2D{0, 0, 1, std::min<std::size_t>(shape.cols, 8)});
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  const fs::path scratch =
      opt.scratch.empty()
          ? fs::temp_directory_path() /
                ("dassa_fuzz_" + std::to_string(::getpid()))
          : fs::path(opt.scratch);
  fs::create_directories(scratch);

  const std::vector<SeedInput> corpus = build_corpus(scratch);

  std::mt19937_64 rng(opt.seed);
  std::uint64_t parsed_ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failures = 0;

  for (std::uint64_t iter = 0; iter < opt.iters; ++iter) {
    const SeedInput& seed_input = corpus[rng() % corpus.size()];
    std::vector<std::uint8_t> bytes = seed_input.bytes;

    const std::uint64_t n_mut = 1 + rng() % 3;
    std::string description = seed_input.name;
    for (std::uint64_t m = 0; m < n_mut; ++m) {
      description += " " + mutate_once(bytes, rng);
    }

    const std::string victim =
        (scratch / ("victim" + std::string(seed_input.kind ==
                                                   SeedInput::Kind::kVca
                                               ? ".vca"
                                               : ".dh5")))
            .string();
    write_file(victim, bytes);

    try {
      if (seed_input.kind == SeedInput::Kind::kVca) {
        drive_vca(victim);
      } else {
        drive_dash5(victim);
      }
      ++parsed_ok;
    } catch (const dassa::Error&) {
      ++rejected;  // the documented failure mode: a typed DASSA error
    } catch (const std::exception& e) {
      ++failures;
      const std::string saved = victim + ".bad" + std::to_string(failures);
      write_file(saved, bytes);
      std::cerr << "FUZZ FAILURE at iter " << iter << " [" << description
                << "]\n  escaped exception: " << e.what()
                << "\n  input saved to " << saved << "\n  reproduce: "
                << argv[0] << " --seed " << opt.seed << " --iters "
                << (iter + 1) << "\n";
    }
  }

  std::cout << "fuzz_dash5: " << opt.iters << " inputs, " << parsed_ok
            << " parsed, " << rejected << " rejected cleanly, " << failures
            << " contract violations (seed " << opt.seed << ")\n";

  if (failures == 0 && !opt.keep_failures) {
    std::error_code ec;
    fs::remove_all(scratch, ec);
  }
  return failures == 0 ? 0 : 1;
}
