// DASSA common: little-endian byte codec + CRC32.
//
// One encoder/decoder pair serves every binary format in the tree: the
// DASH5 / VCA / interval-index containers (src/io), the serve wire
// protocol, and the metrics Snapshot frame (snapshot.hpp) that kStats,
// the cross-rank telemetry gather and the telemetry file all carry.
// The decoder is the untrusted-byte boundary: every read is bounds
// checked and raises dassa::FormatError on truncation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "dassa/common/error.hpp"

namespace dassa::wire {

/// CRC-32 (IEEE 802.3 polynomial) of a byte buffer.
[[nodiscard]] std::uint32_t crc32(const std::byte* data, std::size_t n);

/// Append-only little-endian encoder.
class Encoder {
 public:
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  /// LEB128: 7 bits per byte, low groups first, high bit = "more".
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>(v | 0x80));
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }
  /// u32 length prefix + bytes.
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  /// varint length prefix + bytes.
  void text(const std::string& s) {
    varint(s.size());
    raw(s.data(), s.size());
  }
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  [[nodiscard]] const std::vector<std::byte>& bytes() const { return buf_; }

 private:
  std::vector<std::byte> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer; throws
/// FormatError on truncation.
class Decoder {
 public:
  explicit Decoder(std::span<const std::byte> buf) : buf_(buf) {}

  std::uint8_t u8() {
    std::uint8_t v;
    raw(&v, 1);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, sizeof v);
    return v;
  }
  /// Strict LEB128: at most 10 bytes, no bits past 64, and no
  /// redundant trailing zero group -- each value has exactly one
  /// accepted encoding, so a re-encoded frame is byte-identical.
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const std::uint8_t b = u8();
      if (shift == 63 && b > 1) throw FormatError("varint overflows 64 bits");
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        if (b == 0 && shift > 0) throw FormatError("non-canonical varint");
        return v;
      }
    }
  }
  /// u32 length prefix + bytes.
  std::string str() { return chars(u32()); }
  /// varint length prefix + bytes; the length is checked against the
  /// bytes left before anything is allocated.
  std::string text() {
    const std::uint64_t n = varint();
    if (n > remaining()) throw FormatError("truncated message");
    return chars(static_cast<std::size_t>(n));
  }
  /// Exactly `n` bytes as a string.
  std::string chars(std::size_t n) {
    check(n);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  void raw(void* p, std::size_t n) {
    check(n);
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  // Subtraction form so a huge `n` cannot wrap past the bound
  // (pos_ <= buf_.size() is a class invariant).
  void check(std::size_t n) const {
    if (n > buf_.size() - pos_) throw FormatError("truncated message");
  }
  std::span<const std::byte> buf_;
  std::size_t pos_ = 0;
};

}  // namespace dassa::wire
