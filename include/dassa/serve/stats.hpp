// Live introspection: the kStats protocol (docs/SERVING.md).
//
// Any client can send a one-byte kStatsRequest frame over the audited
// socket layer and get back a kStatsOk frame: the type byte followed by
// one Snapshot frame (common/snapshot.hpp, version 2) of the process
// -- every global counter, registered gauge, exact 64-bucket latency
// histogram, and its resource usage. das_serve answers it inline on its
// main socket; das_ingest exposes a dedicated StatsListener. das_top
// polls either, diffs consecutive snapshots, and renders the live view.
//
// The Snapshot decoder is the strict untrusted-byte check; this layer
// adds the type byte and an exact-consumption check. Every violation is
// dassa::FormatError.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dassa/common/snapshot.hpp"
#include "dassa/common/sync.hpp"
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

/// A stats-only endpoint for daemons whose primary socket speaks some
/// other protocol (das_ingest): accepts connections on its own path
/// and answers kStatsRequest frames, refusing anything else with a
/// typed kBadRequest so a confused client gets an explicit answer, not
/// a hangup. Reuses the audited Listener/Connection layer -- no raw
/// socket syscalls (no-naked-socket holds).
class StatsListener {
 public:
  explicit StatsListener(std::string socket_path);
  ~StatsListener();

  StatsListener(const StatsListener&) = delete;
  StatsListener& operator=(const StatsListener&) = delete;

  void start();
  /// Idempotent; joins the accept loop and every connection thread.
  void stop();

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Connection slots currently tracked (live plus finished-but-not-
  /// yet-reaped). Reaping runs on every accept, so this stays bounded
  /// by the live-client count no matter how many short-lived pollers
  /// come and go -- the property the listener tests pin.
  [[nodiscard]] std::size_t tracked_connections();

 private:
  /// One accepted stats client: its service thread, the connection
  /// (shutdown() from stop() unblocks the thread), and the flag the
  /// thread raises on exit so accept_loop can reap the slot.
  struct ConnSlot {
    std::thread thread;
    std::shared_ptr<Connection> conn;
    std::shared_ptr<std::atomic<bool>> done;
  };

  void accept_loop();
  /// Join and erase every slot whose thread has finished. Without
  /// this, a long-lived daemon scraped by repeated short-lived clients
  /// (das_top --once, Prometheus) accumulates joinable threads until
  /// stop().
  void reap_finished() DASSA_REQUIRES(conns_mu_);

  std::string path_;
  std::unique_ptr<Listener> listener_;
  std::thread accept_thread_;
  Mutex conns_mu_;
  std::vector<ConnSlot> conns_ DASSA_GUARDED_BY(conns_mu_);
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace dassa::serve
