// Query serving: the one socket front end of das_serve and das_ingest's
// --stats-socket (docs/SERVING.md). It binds, runs one accept loop
// with one thread per connection, reaps finished connections on every
// accept, backs off after a failed accept, and stops in two phases.
// The daemons differ only in the handler a connection's thread runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dassa/common/sync.hpp"
#include "dassa/serve/socket.hpp"

namespace dassa::serve {

/// One accepted client, shared between its connection thread (the only
/// reader) and anyone holding a reply for it, so its fd closes when the
/// last holder lets go.
struct Peer {
  Connection conn;
  /// Serialises frames from concurrent writers onto the one stream.
  Mutex send_mu;
  /// Accept order, from 1 (the client id in serve.slow_request).
  std::uint64_t id = 0;

  void send(std::span<const std::byte> frame) {
    MutexLock lock(send_mu);
    conn.send_frame(frame);
  }
};

class FrontEnd {
 public:
  /// Body of a connection's thread: answer frames until the peer hangs
  /// up. An exception ends the connection with a
  /// `<name>.connection_error` record.
  using Handler = std::function<void(const std::shared_ptr<Peer>&)>;

  /// `name` prefixes the log events (`<name>.listen`,
  /// `<name>.accept_error`); `connections_counter` counts accepts.
  FrontEnd(std::string socket_path, std::string name,
           const char* connections_counter, Handler handler);
  /// stop(); safe when start() threw or never ran.
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Bind, then start the accept loop. A bind failure throws IoError
  /// with nothing started.
  void start();
  /// Phase 1: refuse new clients and join the accept loop.
  void stop_accepting();
  /// Phase 2, after phase 1: shut down every connection and join its
  /// thread. Idempotent; not concurrent with itself.
  void stop();

  [[nodiscard]] const std::string& path() const { return path_; }
  /// Live connections plus those finished since the last accept.
  [[nodiscard]] std::size_t tracked_connections();

 private:
  struct Slot {
    std::shared_ptr<Peer> peer;
    std::thread thread;
    std::atomic<bool> done{false};  ///< handler returned; join is quick
  };

  void accept_loop();
  void reap_finished();

  std::string path_;
  std::string name_;
  const char* connections_counter_;
  Handler handler_;
  std::unique_ptr<Listener> listener_;
  Mutex slots_mu_;
  std::vector<std::unique_ptr<Slot>> slots_ DASSA_GUARDED_BY(slots_mu_);
  std::thread accept_thread_;
};

}  // namespace dassa::serve
