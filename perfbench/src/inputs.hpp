// perfbench: seeded input generation (never timed; run in its own
// process before the measured one so neither its time nor its memory
// lands in the workload's figures).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "dassa/das/synth.hpp"

namespace perfbench {

/// das_generate --chunk 32x1024 --codec shuffle+lz --quantize 2^-7,
/// written under `dir` with the default "das" prefix.
[[nodiscard]] dassa::das::AcquisitionSpec acquisition_spec(
    const std::string& dir, const ArchiveSpec& a);

/// Render files [first, first + count) of the acquisition into `dir`,
/// four files at a time; returns their paths in time order.
std::vector<std::string> write_files(const std::string& dir,
                                     const ArchiveSpec& a,
                                     std::uint64_t seed, std::size_t first,
                                     std::size_t count);

/// Mean decoded (raw) size of one stored chunk over `files`, from their
/// chunk indexes. The codec counters charge raw bytes only on encode,
/// so decode throughput is computed as decode_calls x this / decode_ns.
[[nodiscard]] double mean_chunk_raw_bytes(const std::vector<std::string>& files);

/// 64-bit FNV-1a-style hash over a payload's 8-byte words (the serve
/// verifier's digest).
[[nodiscard]] std::uint64_t digest(const std::vector<double>& data);

}  // namespace perfbench
