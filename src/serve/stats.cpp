#include "dassa/serve/stats.hpp"

#include <utility>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/telemetry.hpp"
#include "dassa/common/wire.hpp"

namespace dassa::serve {

namespace {

void check_fully_consumed(const wire::Decoder& dec) {
  if (dec.remaining() != 0) {
    throw FormatError("trailing bytes after stats message");
  }
}

}  // namespace

std::vector<std::byte> encode_stats_request() {
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kStatsRequest));
  return enc.bytes();
}

void decode_stats_request(const std::vector<std::byte>& frame) {
  if (frame.empty()) throw FormatError("empty serve frame");
  wire::Decoder dec(frame);
  if (static_cast<MsgType>(dec.u8()) != MsgType::kStatsRequest) {
    throw FormatError("unexpected serve message type (want stats request)");
  }
  check_fully_consumed(dec);
}

std::vector<std::byte> encode_stats(const Snapshot& s) {
  wire::Encoder enc;
  enc.u8(static_cast<std::uint8_t>(MsgType::kStatsOk));
  encode_snapshot(enc, s);
  return enc.bytes();
}

Snapshot decode_stats(const std::vector<std::byte>& frame) {
  if (frame.empty()) throw FormatError("empty serve frame");
  wire::Decoder dec(frame);
  if (static_cast<MsgType>(dec.u8()) != MsgType::kStatsOk) {
    throw FormatError("unexpected serve message type (want stats snapshot)");
  }
  Snapshot s = decode_snapshot(dec);
  check_fully_consumed(dec);
  return s;
}

Snapshot fetch_stats(Connection& conn) {
  conn.send_frame(encode_stats_request());
  const auto reply = conn.recv_frame();
  if (!reply) {
    throw IoError("daemon closed the connection mid stats poll");
  }
  if (!reply->empty() &&
      static_cast<MsgType>((*reply)[0]) == MsgType::kError) {
    const ReadResponse resp = decode_response(*reply);
    throw StateError("stats request refused: " + resp.error);
  }
  return decode_stats(*reply);
}

std::vector<std::byte> answer_stats(const std::vector<std::byte>& frame) {
  try {
    decode_stats_request(frame);
  } catch (const Error& e) {
    global_counters().add(counters::kStatsBadFrames);
    ReadResponse refusal;
    refusal.code = ErrorCode::kBadRequest;
    refusal.error = e.what();
    return encode_response(refusal);
  }
  global_counters().add(counters::kStatsRequests);
  return encode_stats(telemetry::collect());
}

StatsListener::StatsListener(std::string socket_path)
    : FrontEnd(std::move(socket_path), "stats", counters::kStatsConnections,
               [](const std::shared_ptr<Peer>& peer) {
                 while (true) {
                   std::optional<std::vector<std::byte>> frame;
                   try {
                     frame = peer->conn.recv_frame();
                     if (!frame) return;  // clean end-of-stream
                     peer->send(answer_stats(*frame));
                   } catch (const Error&) {
                     return;  // torn frame / vanished peer
                   }
                 }
               }) {}

}  // namespace dassa::serve
