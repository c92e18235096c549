#include "inputs.hpp"

#include <atomic>
#include <cstring>
#include <filesystem>
#include <thread>

#include "dassa/io/codec.hpp"

namespace perfbench {

dassa::das::AcquisitionSpec acquisition_spec(const std::string& dir,
                                             const ArchiveSpec& a) {
  dassa::das::AcquisitionSpec spec;
  spec.dir = dir;
  spec.start = dassa::das::Timestamp::parse("170728224510");
  spec.file_count = a.files;
  spec.seconds_per_file =
      static_cast<double>(a.samples_per_file) / a.sampling_hz;
  spec.dtype = dassa::io::DType::kF32;
  spec.chunk = {32, 1024};
  spec.codec = dassa::io::CodecSpec::parse("shuffle+lz");
  spec.quantize_lsb = 0.0078125;
  return spec;
}

std::vector<std::string> write_files(const std::string& dir,
                                     const ArchiveSpec& a,
                                     std::uint64_t seed, std::size_t first,
                                     std::size_t count) {
  std::filesystem::create_directories(dir);
  const dassa::das::SynthDas synth =
      dassa::das::SynthDas::fig1b_scene(a.channels, a.sampling_hz, seed);
  const dassa::das::AcquisitionSpec spec = acquisition_spec(dir, a);
  std::vector<std::string> paths(count);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      paths[i] = dassa::das::write_acquisition_file(synth, spec, first + i);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  return paths;
}

double mean_chunk_raw_bytes(const std::vector<std::string>& files) {
  double raw = 0.0;
  double chunks = 0.0;
  for (const std::string& f : files) {
    const dassa::io::Dash5File file(f);
    for (const dassa::io::ChunkIndexEntry& e : file.chunk_index()) {
      raw += static_cast<double>(e.raw_size);
      chunks += 1.0;
    }
  }
  return chunks > 0.0 ? raw / chunks : 0.0;
}

std::uint64_t digest(const std::vector<double>& data) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double v : data) {
    std::uint64_t w = 0;
    std::memcpy(&w, &v, sizeof w);
    h = (h ^ w) * 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
