// Live introspection: the kStats protocol (docs/SERVING.md).
//
// Any client can send a one-byte kStatsRequest frame over the audited
// socket layer and get back a kStatsOk frame: the type byte followed by
// one Snapshot frame (common/snapshot.hpp, version 2) of the process
// -- every global counter, registered gauge, exact 64-bucket latency
// histogram, and its resource usage. Both daemons answer it through
// answer_stats: das_serve inline on its main socket, das_ingest on a
// dedicated StatsListener. das_top polls either, diffs consecutive
// snapshots, and renders the live view.
//
// The Snapshot decoder is the strict untrusted-byte check; this layer
// adds the type byte and an exact-consumption check. Every violation is
// dassa::FormatError.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "dassa/common/snapshot.hpp"
#include "dassa/serve/front_end.hpp"
#include "dassa/serve/protocol.hpp"
#include "dassa/serve/socket.hpp"

namespace dassa::serve {

[[nodiscard]] std::vector<std::byte> encode_stats_request();
[[nodiscard]] std::vector<std::byte> encode_stats(const Snapshot& s);

/// Validate a received kStatsRequest frame (exactly one type byte).
void decode_stats_request(const std::vector<std::byte>& frame);

/// Decode a kStatsOk frame; throws FormatError on a wrong type byte,
/// trailing bytes, or anything decode_snapshot refuses.
[[nodiscard]] Snapshot decode_stats(const std::vector<std::byte>& frame);

/// One kStats round trip on an established connection (das_top's poll
/// body). Throws IoError if the daemon vanished, FormatError on a
/// malformed reply, StateError if the daemon refused the request.
[[nodiscard]] Snapshot fetch_stats(Connection& conn);

/// The one kStats answer both daemons give: a kStatsOk snapshot of
/// this process for a well-formed kStatsRequest, a typed kBadRequest
/// refusal for anything else, so a confused client gets an explicit
/// answer, not a hangup. Counts stats.requests / stats.bad_frames.
[[nodiscard]] std::vector<std::byte> answer_stats(
    const std::vector<std::byte>& frame);

/// A stats-only endpoint for daemons whose primary socket speaks some
/// other protocol (das_ingest): the shared front end, answering every
/// frame on a connection through answer_stats.
class StatsListener : public FrontEnd {
 public:
  explicit StatsListener(std::string socket_path);
};

}  // namespace dassa::serve
