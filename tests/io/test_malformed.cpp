// Malformed-container tests: every corrupted DASH5 / VCA input must be
// rejected with a typed FormatError (or IoError for filesystem-level
// failures) carrying the offending path -- never an abort, an
// uncaught std:: exception, or an allocation bomb. The deterministic
// fuzz harness (tests/tools/fuzz_dash5.cpp) explores the same contract
// randomly; these tests pin the named corruption classes so a
// regression points at the exact broken check.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "dassa/common/wire.hpp"
#include "dassa/io/dash5.hpp"
#include "dassa/io/vca.hpp"
#include "testing/tmpdir.hpp"

namespace dassa::io {
namespace {

using testing::TmpDir;

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

Dash5Header small_header(Shape2D shape) {
  Dash5Header h;
  h.shape = shape;
  h.global.set("SamplingFrequency[Hz]", "500");
  return h;
}

/// Write a healthy 4x8 f64 file and return its bytes.
std::vector<char> healthy_dash5(const std::string& path) {
  const Shape2D shape{4, 8};
  std::vector<double> data(shape.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>(i);
  }
  dash5_write(path, small_header(shape), data);
  return slurp(path);
}

// ---------------------------------------------------------------------
// DASH5

TEST(MalformedDash5Test, FileSmallerThanPreludeIsRejected) {
  TmpDir dir("malformed");
  const std::string path = dir.file("tiny.dh5");
  spit(path, {'D', 'A', 'S', 'H', '5'});
  try {
    Dash5File f(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("too small"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST(MalformedDash5Test, BadMagicIsRejected) {
  TmpDir dir("malformed");
  const std::string path = dir.file("magic.dh5");
  std::vector<char> bytes = healthy_dash5(path);
  bytes[0] = 'X';
  spit(path, bytes);
  try {
    Dash5File f(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST(MalformedDash5Test, FlippedHeaderByteFailsCrc) {
  TmpDir dir("malformed");
  const std::string path = dir.file("crc.dh5");
  std::vector<char> bytes = healthy_dash5(path);
  // Byte 16 is the first byte of the CRC-protected header body.
  bytes[16] = static_cast<char>(bytes[16] ^ 0x40);
  spit(path, bytes);
  try {
    Dash5File f(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos);
  }
}

TEST(MalformedDash5Test, HeaderSizeBeyondFileIsRejected) {
  TmpDir dir("malformed");
  const std::string path = dir.file("headsize.dh5");
  std::vector<char> bytes = healthy_dash5(path);
  const std::uint64_t huge = bytes.size() + 1;
  std::memcpy(bytes.data() + 8, &huge, sizeof huge);
  spit(path, bytes);
  EXPECT_THROW(Dash5File f(path), FormatError);
}

TEST(MalformedDash5Test, HeaderSizeNearUint64MaxDoesNotWrap) {
  // 16 + head_size must not wrap around and pass the bounds check; a
  // wrapped check would feed a ~2^64 allocation (bad_alloc, not a
  // typed parse error).
  TmpDir dir("malformed");
  const std::string path = dir.file("wrap.dh5");
  std::vector<char> bytes = healthy_dash5(path);
  const std::uint64_t wrap = std::numeric_limits<std::uint64_t>::max() - 4;
  std::memcpy(bytes.data() + 8, &wrap, sizeof wrap);
  spit(path, bytes);
  EXPECT_THROW(Dash5File f(path), FormatError);
}

TEST(MalformedDash5Test, TruncatedDatasetIsRejected) {
  TmpDir dir("malformed");
  const std::string path = dir.file("trunc.dh5");
  std::vector<char> bytes = healthy_dash5(path);
  bytes.resize(bytes.size() - 9);  // drop part of the last row
  spit(path, bytes);
  try {
    Dash5File f(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(MalformedDash5Test, CorruptedObjectCountDoesNotAllocate) {
  // Re-encode the header with an absurd object count and a fixed-up
  // CRC so the corruption reaches the structural checks: the parser
  // must reject the count as implausible instead of reserving 2^60
  // entries.
  TmpDir dir("malformed");
  const std::string path = dir.file("bomb.dh5");
  healthy_dash5(path);

  wire::Encoder enc;
  enc.u32(0);                          // empty global kv
  enc.u64(std::uint64_t{1} << 60);     // object count bomb
  std::vector<std::byte> body = enc.bytes();
  const std::uint32_t crc = wire::crc32(body.data(), body.size());
  wire::Encoder tail;
  tail.u32(crc);
  body.insert(body.end(), tail.bytes().begin(), tail.bytes().end());

  std::vector<char> bytes(16 + body.size());
  std::memcpy(bytes.data(), "DASH5\0\0\2", 8);
  const std::uint64_t head_size = body.size();
  std::memcpy(bytes.data() + 8, &head_size, sizeof head_size);
  std::memcpy(bytes.data() + 16, body.data(), body.size());
  spit(path, bytes);
  try {
    Dash5File f(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("implausible object count"),
              std::string::npos);
  }
}

TEST(MalformedDash5Test, OutOfBoundsSlabIsInvalidArgument) {
  // A well-formed file with an out-of-range selection is caller error,
  // not file corruption: InvalidArgument, not FormatError.
  TmpDir dir("malformed");
  const std::string path = dir.file("oob.dh5");
  healthy_dash5(path);
  Dash5File f(path);
  EXPECT_THROW(f.read_slab(Slab2D{0, 0, 5, 8}), InvalidArgument);
  EXPECT_THROW(f.read_slab(Slab2D{0, 6, 4, 8}), InvalidArgument);
}

TEST(MalformedDash5Test, MissingFileIsIoError) {
  TmpDir dir("malformed");
  EXPECT_THROW(Dash5File f(dir.file("nope.dh5")), IoError);
}

// ---------------------------------------------------------------------
// DASH5 v3: chunk index footer and codec header corruptions. The
// footer is CRC-protected, so structural mutations recompute the CRC
// to reach the validation they target; CRC tests flip bytes without.

/// Write a healthy v3 file (8x16 f64, 4x8 tiles => 2x2 grid, all four
/// chunks compressed under shuffle+lz) and return its bytes.
std::vector<char> healthy_v3(const std::string& path) {
  const Shape2D shape{8, 16};
  std::vector<double> data(shape.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<double>(i);
  }
  Dash5Header h = small_header(shape);
  h.layout = Layout::kChunked;
  h.chunk = {4, 8};
  h.codec = CodecSpec::parse("shuffle+lz");
  dash5_write(path, h, data);
  return slurp(path);
}

/// Byte positions of the v3 footer: [index block][crc u32][size u64]
/// [magic u8 x8] at the file end.
struct FooterView {
  std::size_t index_start = 0;
  std::size_t index_size = 0;
  std::size_t crc_pos = 0;
};

FooterView footer_of(const std::vector<char>& bytes) {
  FooterView v;
  v.crc_pos = bytes.size() - 20;
  std::uint64_t size = 0;
  std::memcpy(&size, bytes.data() + bytes.size() - 16, sizeof size);
  v.index_size = static_cast<std::size_t>(size);
  v.index_start = v.crc_pos - v.index_size;
  return v;
}

/// Recompute the footer CRC after a deliberate index mutation.
void fix_index_crc(std::vector<char>& bytes) {
  const FooterView v = footer_of(bytes);
  const std::uint32_t crc = wire::crc32(
      reinterpret_cast<const std::byte*>(bytes.data()) + v.index_start,
      v.index_size);
  std::memcpy(bytes.data() + v.crc_pos, &crc, sizeof crc);
}

/// Offset of field `field_off` of index entry `i` (29-byte entries:
/// offset u64, csize u64, raw_size u64, crc u32, codec u8).
std::size_t entry_pos(const std::vector<char>& bytes, std::size_t i,
                      std::size_t field_off) {
  return footer_of(bytes).index_start + i * 29 + field_off;
}

TEST(MalformedDash5V3Test, FooterMagicStompIsRejected) {
  TmpDir dir("malformed");
  const std::string path = dir.file("footmagic.dh5");
  std::vector<char> bytes = healthy_v3(path);
  bytes[bytes.size() - 1] = 'X';
  spit(path, bytes);
  try {
    Dash5File f(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("chunk index magic"),
              std::string::npos);
  }
}

TEST(MalformedDash5V3Test, TruncatedFooterIsRejected) {
  TmpDir dir("malformed");
  const std::string path = dir.file("foottrunc.dh5");
  std::vector<char> bytes = healthy_v3(path);
  bytes.resize(bytes.size() - 10);
  spit(path, bytes);
  EXPECT_THROW(Dash5File f(path), FormatError);
}

TEST(MalformedDash5V3Test, IndexSizeMismatchIsRejected) {
  // The grid is 2x2 = 4 chunks, so the index must be exactly 4 * 29
  // bytes; any other size field is a lie.
  TmpDir dir("malformed");
  const std::string path = dir.file("idxsize.dh5");
  std::vector<char> bytes = healthy_v3(path);
  std::uint64_t size = 0;
  std::memcpy(&size, bytes.data() + bytes.size() - 16, sizeof size);
  EXPECT_EQ(size, 4u * 29u);
  size += 1;
  std::memcpy(bytes.data() + bytes.size() - 16, &size, sizeof size);
  spit(path, bytes);
  try {
    Dash5File f(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("chunk index size mismatch"),
              std::string::npos);
  }
}

TEST(MalformedDash5V3Test, FlippedIndexByteFailsIndexCrc) {
  TmpDir dir("malformed");
  const std::string path = dir.file("idxcrc.dh5");
  std::vector<char> bytes = healthy_v3(path);
  const std::size_t pos = entry_pos(bytes, 2, 16);
  bytes[pos] = static_cast<char>(bytes[pos] ^ 0x10);
  spit(path, bytes);
  try {
    Dash5File f(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("chunk index CRC mismatch"),
              std::string::npos);
  }
}

TEST(MalformedDash5V3Test, NonDenseChunkOffsetsAreRejected) {
  // Offsets must tile the data region exactly; a one-byte gap (which
  // also makes overlaps representable) is structural corruption.
  TmpDir dir("malformed");
  const std::string path = dir.file("dense.dh5");
  std::vector<char> bytes = healthy_v3(path);
  std::uint64_t offset = 0;
  std::memcpy(&offset, bytes.data() + entry_pos(bytes, 1, 0), sizeof offset);
  offset += 1;
  std::memcpy(bytes.data() + entry_pos(bytes, 1, 0), &offset, sizeof offset);
  fix_index_crc(bytes);
  spit(path, bytes);
  try {
    Dash5File f(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("not densely packed"),
              std::string::npos);
  }
}

TEST(MalformedDash5V3Test, ChunkSizeOverflowIsRejected) {
  // A huge csize must fail the (subtraction-form) bounds check rather
  // than wrap into a giant read.
  TmpDir dir("malformed");
  const std::string path = dir.file("csize.dh5");
  std::vector<char> bytes = healthy_v3(path);
  const std::uint64_t huge = std::uint64_t{1} << 62;
  std::memcpy(bytes.data() + entry_pos(bytes, 0, 8), &huge, sizeof huge);
  fix_index_crc(bytes);
  spit(path, bytes);
  try {
    Dash5File f(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("overruns the index block"),
              std::string::npos);
  }
}

TEST(MalformedDash5V3Test, RawSizeDisagreeingWithHeaderIsRejected) {
  TmpDir dir("malformed");
  const std::string path = dir.file("rawsize.dh5");
  std::vector<char> bytes = healthy_v3(path);
  std::uint64_t raw_size = 0;
  std::memcpy(&raw_size, bytes.data() + entry_pos(bytes, 0, 16),
              sizeof raw_size);
  raw_size -= 8;
  std::memcpy(bytes.data() + entry_pos(bytes, 0, 16), &raw_size,
              sizeof raw_size);
  fix_index_crc(bytes);
  spit(path, bytes);
  try {
    Dash5File f(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("raw size disagrees"),
              std::string::npos);
  }
}

TEST(MalformedDash5V3Test, CodecFlagOutOfRangeIsRejected) {
  TmpDir dir("malformed");
  const std::string path = dir.file("flag.dh5");
  std::vector<char> bytes = healthy_v3(path);
  bytes[entry_pos(bytes, 0, 28)] = 7;
  fix_index_crc(bytes);
  spit(path, bytes);
  try {
    Dash5File f(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("codec flag out of range"),
              std::string::npos);
  }
}

TEST(MalformedDash5V3Test, RawFlagWithCompressedSizeIsRejected) {
  // Every chunk of the healthy file is compressed (csize < raw_size);
  // relabelling one as raw-stored must be caught by the csize ==
  // raw_size consistency rule.
  TmpDir dir("malformed");
  const std::string path = dir.file("rawflag.dh5");
  std::vector<char> bytes = healthy_v3(path);
  std::uint64_t csize = 0;
  std::uint64_t raw_size = 0;
  std::memcpy(&csize, bytes.data() + entry_pos(bytes, 0, 8), sizeof csize);
  std::memcpy(&raw_size, bytes.data() + entry_pos(bytes, 0, 16),
              sizeof raw_size);
  ASSERT_LT(csize, raw_size) << "test premise: chunk 0 must be compressed";
  bytes[entry_pos(bytes, 0, 28)] = 0;
  fix_index_crc(bytes);
  spit(path, bytes);
  try {
    Dash5File f(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("raw-stored chunk"),
              std::string::npos);
  }
}

TEST(MalformedDash5V3Test, FlippedChunkPayloadFailsChunkCrcOnRead) {
  // Payload corruption is caught lazily: open succeeds (header and
  // index are intact), the read of the damaged chunk throws.
  TmpDir dir("malformed");
  const std::string path = dir.file("payload.dh5");
  std::vector<char> bytes = healthy_v3(path);
  std::uint64_t head_size = 0;
  std::memcpy(&head_size, bytes.data() + 8, sizeof head_size);
  const std::size_t pos = 16 + static_cast<std::size_t>(head_size) + 3;
  bytes[pos] = static_cast<char>(bytes[pos] ^ 0x20);
  spit(path, bytes);
  Dash5File f(path);
  try {
    (void)f.read_all();
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(MalformedDash5V3Test, UnknownHeaderCodecIdIsRejected) {
  // The codec id bytes are the last header fields before the header
  // CRC; stomp the final id and re-sign the header.
  TmpDir dir("malformed");
  const std::string path = dir.file("codecid.dh5");
  std::vector<char> bytes = healthy_v3(path);
  std::uint64_t head_size = 0;
  std::memcpy(&head_size, bytes.data() + 8, sizeof head_size);
  const std::size_t head_start = 16;
  const std::size_t body = static_cast<std::size_t>(head_size) - 4;
  bytes[head_start + body - 1] = 99;  // last codec id
  const std::uint32_t crc = wire::crc32(
      reinterpret_cast<const std::byte*>(bytes.data()) + head_start, body);
  std::memcpy(bytes.data() + head_start + body, &crc, sizeof crc);
  spit(path, bytes);
  try {
    Dash5File f(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown codec id 99"),
              std::string::npos);
  }
}

TEST(MalformedDash5V3Test, EmptyCodecChainInHeaderIsRejected) {
  TmpDir dir("malformed");
  const std::string path = dir.file("chain0.dh5");
  std::vector<char> bytes = healthy_v3(path);
  std::uint64_t head_size = 0;
  std::memcpy(&head_size, bytes.data() + 8, sizeof head_size);
  const std::size_t head_start = 16;
  const std::size_t body = static_cast<std::size_t>(head_size) - 4;
  bytes[head_start + body - 3] = 0;  // chain length (2 ids follow)
  const std::uint32_t crc = wire::crc32(
      reinterpret_cast<const std::byte*>(bytes.data()) + head_start, body);
  std::memcpy(bytes.data() + head_start + body, &crc, sizeof crc);
  spit(path, bytes);
  try {
    Dash5File f(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("codec chain length"),
              std::string::npos);
  }
}

TEST(MalformedDash5V3Test, V2BytesRelabeledAsV3AreRejected) {
  // Flipping only the magic version byte leaves the (CRC-valid) v2
  // header without codec fields and the file without a footer; the
  // reader must fail parsing, never serve data under the wrong format.
  TmpDir dir("malformed");
  const std::string path = dir.file("relabel.dh5");
  Dash5Header h = small_header({8, 16});
  h.layout = Layout::kChunked;
  h.chunk = {4, 8};
  std::vector<double> data(h.shape.size(), 3.0);
  dash5_write(path, h, data);
  std::vector<char> bytes = slurp(path);
  EXPECT_EQ(bytes[7], 2);
  bytes[7] = 3;
  spit(path, bytes);
  EXPECT_THROW(Dash5File f(path), FormatError);
}

// ---------------------------------------------------------------------
// VCA

/// Build a healthy two-member VCA and return the .vca path.
std::string healthy_vca(const TmpDir& dir) {
  const Shape2D shape{3, 5};
  std::vector<double> data(shape.size(), 1.0);
  dash5_write(dir.file("m0.dh5"), small_header(shape), data);
  dash5_write(dir.file("m1.dh5"), small_header(shape), data);
  const Vca vca = Vca::build({dir.file("m0.dh5"), dir.file("m1.dh5")});
  const std::string path = dir.file("pair.vca");
  vca.save(path);
  return path;
}

TEST(MalformedVcaTest, BadMagicIsRejected) {
  TmpDir dir("malformed");
  const std::string path = healthy_vca(dir);
  std::vector<char> bytes = slurp(path);
  bytes[3] = 'X';
  spit(path, bytes);
  try {
    (void)Vca::load(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("bad VCA magic"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST(MalformedVcaTest, TruncatedFileIsRejected) {
  TmpDir dir("malformed");
  const std::string path = healthy_vca(dir);
  std::vector<char> bytes = slurp(path);
  bytes.resize(18);  // magic survives; size field is cut
  spit(path, bytes);
  EXPECT_THROW(Vca::load(path), Error);
}

TEST(MalformedVcaTest, SizeFieldNearUint64MaxDoesNotWrap) {
  TmpDir dir("malformed");
  const std::string path = healthy_vca(dir);
  std::vector<char> bytes = slurp(path);
  const std::uint64_t wrap = std::numeric_limits<std::uint64_t>::max() - 8;
  std::memcpy(bytes.data() + 8, &wrap, sizeof wrap);
  spit(path, bytes);
  try {
    (void)Vca::load(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated VCA"), std::string::npos);
  }
}

TEST(MalformedVcaTest, FlippedBodyByteFailsCrc) {
  TmpDir dir("malformed");
  const std::string path = healthy_vca(dir);
  std::vector<char> bytes = slurp(path);
  bytes[16] = static_cast<char>(bytes[16] ^ 0x01);
  spit(path, bytes);
  try {
    (void)Vca::load(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("CRC mismatch"), std::string::npos);
  }
}

/// Write a VCA container around an arbitrary body, with a valid CRC,
/// so corruptions survive the integrity check and reach the
/// structural validation.
void write_vca_container(const std::string& path,
                         const std::vector<std::byte>& body) {
  std::vector<char> bytes(8 + 8 + body.size() + 4);
  std::memcpy(bytes.data(), "DASVCA\0\1", 8);
  const std::uint64_t size = body.size();
  std::memcpy(bytes.data() + 8, &size, sizeof size);
  std::memcpy(bytes.data() + 16, body.data(), body.size());
  const std::uint32_t crc = wire::crc32(body.data(), body.size());
  std::memcpy(bytes.data() + 16 + body.size(), &crc, sizeof crc);
  spit(path, bytes);
}

TEST(MalformedVcaTest, MemberCountBombDoesNotAllocate) {
  TmpDir dir("malformed");
  const std::string path = dir.file("bomb.vca");
  wire::Encoder enc;
  enc.u32(0);                       // no global kv
  enc.u64(std::uint64_t{1} << 59);  // member count bomb
  write_vca_container(path, enc.bytes());
  try {
    (void)Vca::load(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("implausible member count"),
              std::string::npos);
  }
}

TEST(MalformedVcaTest, ZeroMembersIsRejected) {
  TmpDir dir("malformed");
  const std::string path = dir.file("empty.vca");
  wire::Encoder enc;
  enc.u32(0);
  enc.u64(0);
  write_vca_container(path, enc.bytes());
  try {
    (void)Vca::load(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("without members"),
              std::string::npos);
  }
}

TEST(MalformedVcaTest, InconsistentMemberRowsIsRejected) {
  TmpDir dir("malformed");
  const std::string path = dir.file("rows.vca");
  wire::Encoder enc;
  enc.u32(0);
  enc.u64(2);
  enc.str("a.dh5");
  enc.u64(3);  // rows
  enc.u64(5);  // cols
  enc.str("b.dh5");
  enc.u64(4);  // differs
  enc.u64(5);
  write_vca_container(path, enc.bytes());
  try {
    (void)Vca::load(path);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_NE(std::string(e.what()).find("channel counts differ"),
              std::string::npos);
  }
}

TEST(MalformedVcaTest, TotalWidthOverflowIsRejected) {
  // Two members whose summed widths wrap uint64 would break the
  // monotonic col_starts_ table resolve() binary-searches.
  TmpDir dir("malformed");
  const std::string path = dir.file("width.vca");
  const std::uint64_t half = std::numeric_limits<std::uint64_t>::max() / 2 + 1;
  wire::Encoder enc;
  enc.u32(0);
  enc.u64(2);
  enc.str("a.dh5");
  enc.u64(3);
  enc.u64(half);
  enc.str("b.dh5");
  enc.u64(3);
  enc.u64(half);
  write_vca_container(path, enc.bytes());
  EXPECT_THROW(Vca::load(path), Error);
}

TEST(MalformedVcaTest, MissingMemberFileSurfacesAsIoErrorOnRead) {
  // The container itself is fine; the member path points nowhere.
  // Loading succeeds (headers are lazy) but reading must throw IoError,
  // not crash.
  TmpDir dir("malformed");
  const std::string path = dir.file("ghost.vca");
  wire::Encoder enc;
  enc.u32(0);
  enc.u64(1);
  enc.str(dir.file("missing.dh5"));
  enc.u64(3);
  enc.u64(5);
  write_vca_container(path, enc.bytes());
  const Vca vca = Vca::load(path);
  EXPECT_EQ(vca.shape(), (Shape2D{3, 5}));
  EXPECT_THROW(vca.read_slab(Slab2D{0, 0, 3, 5}), IoError);
}

}  // namespace
}  // namespace dassa::io
