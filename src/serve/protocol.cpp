#include "dassa/serve/protocol.hpp"

#include "dassa/common/error.hpp"
#include "dassa/common/wire.hpp"

namespace dassa::serve {

namespace {

/// Every decode must consume the frame exactly: trailing bytes mean a
/// framing bug (or an attack), not padding.
void check_fully_consumed(const wire::Decoder& dec,
                          const std::vector<std::byte>& frame) {
  if (dec.position() != frame.size()) {
    throw FormatError("trailing bytes after serve message");
  }
}

}  // namespace

std::vector<std::byte> encode_request(const ReadRequest& req) {
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kReadRequest));
  enc.u64(req.id);
  enc.u8(static_cast<std::uint8_t>(req.addressing));
  enc.u64(req.row_off);
  enc.u64(req.row_cnt);
  if (req.addressing == Addressing::kColumns) {
    enc.u64(req.col_off);
    enc.u64(req.col_cnt);
  } else {
    enc.u64(static_cast<std::uint64_t>(req.begin_s));
    enc.u64(static_cast<std::uint64_t>(req.end_s));
  }
  return enc.bytes();
}

ReadRequest decode_request(const std::vector<std::byte>& frame) {
  if (frame.empty()) throw FormatError("empty serve frame");
  wire::Decoder dec(frame);
  if (static_cast<MsgType>(dec.u8()) != MsgType::kReadRequest) {
    throw FormatError("unexpected serve message type (want read request)");
  }
  ReadRequest req;
  req.id = dec.u64();
  const std::uint8_t mode = dec.u8();
  if (mode > static_cast<std::uint8_t>(Addressing::kTime)) {
    throw FormatError("unknown serve addressing mode");
  }
  req.addressing = static_cast<Addressing>(mode);
  req.row_off = dec.u64();
  req.row_cnt = dec.u64();
  if (req.addressing == Addressing::kColumns) {
    req.col_off = dec.u64();
    req.col_cnt = dec.u64();
  } else {
    req.begin_s = static_cast<std::int64_t>(dec.u64());
    req.end_s = static_cast<std::int64_t>(dec.u64());
  }
  check_fully_consumed(dec, frame);
  return req;
}

std::vector<std::byte> encode_response(const ReadResponse& resp) {
  wire::Encoder enc;
  if (!resp.ok) {
    enc.u8(static_cast<std::uint8_t>(MsgType::kError));
    enc.u64(resp.id);
    enc.u32(static_cast<std::uint32_t>(resp.code));
    enc.str(resp.error);
    return enc.bytes();
  }
  DASSA_CHECK(resp.data.size() == resp.shape.size(),
              "response payload does not match its shape");
  enc.u8(static_cast<std::uint8_t>(MsgType::kReadOk));
  enc.u64(resp.id);
  enc.u64(resp.row_off);
  enc.u64(resp.col_off);
  enc.u64(resp.shape.rows);
  enc.u64(resp.shape.cols);
  enc.raw(resp.data.data(), resp.data.size() * sizeof(double));
  return enc.bytes();
}

ReadResponse decode_response(const std::vector<std::byte>& frame) {
  if (frame.empty()) throw FormatError("empty serve frame");
  wire::Decoder dec(frame);
  const auto type = static_cast<MsgType>(dec.u8());
  ReadResponse resp;
  if (type == MsgType::kError) {
    resp.id = dec.u64();
    resp.ok = false;
    const std::uint32_t code = dec.u32();
    if (code < static_cast<std::uint32_t>(ErrorCode::kBadRequest) ||
        code > static_cast<std::uint32_t>(ErrorCode::kInternal)) {
      throw FormatError("unknown serve error code");
    }
    resp.code = static_cast<ErrorCode>(code);
    resp.error = dec.str();
    check_fully_consumed(dec, frame);
    return resp;
  }
  if (type != MsgType::kReadOk) {
    throw FormatError("unexpected serve message type (want response)");
  }
  resp.id = dec.u64();
  resp.ok = true;
  resp.row_off = dec.u64();
  resp.col_off = dec.u64();
  resp.shape.rows = dec.u64();
  resp.shape.cols = dec.u64();
  // The payload length must agree with the declared shape exactly.
  // Division form instead of rows * cols, so a corrupted shape near
  // 2^64 cannot wrap the product past the check.
  const std::size_t remaining = frame.size() - dec.position();
  if (remaining % sizeof(double) != 0) {
    throw FormatError("serve response payload is not whole doubles");
  }
  const std::size_t elems = remaining / sizeof(double);
  const bool shape_matches =
      (resp.shape.rows == 0 || resp.shape.cols == 0)
          ? elems == 0
          : elems / resp.shape.rows == resp.shape.cols &&
                elems % resp.shape.rows == 0;
  if (!shape_matches) {
    throw FormatError("serve response payload disagrees with its shape");
  }
  resp.data.resize(elems);
  if (remaining != 0) dec.raw(resp.data.data(), remaining);
  check_fully_consumed(dec, frame);
  return resp;
}

}  // namespace dassa::serve
