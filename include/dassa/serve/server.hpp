// Query serving: the das_serve front end (docs/SERVING.md).
//
// Thread topology:
//
//   front end (front_end.hpp): accept loop ──► one reader thread per
//   connection, reaped when it finishes
//                        │  decode + validate, admit; kStats polls are
//                        │  answered inline (answer_stats)
//                        ▼
//                 admission queue (BoundedQueue, serve.queue.*)
//                        │
//                 dispatcher: hold up to coalesce_window_us for more
//                 requests, coalesce() overlapping slabs into groups
//                        │
//                        ▼
//                 group queue ──► worker pool: ONE union read per
//                 group through the shared archive handle (all chunk
//                 decodes land in the global ChunkCache once), then
//                 slice + reply per member request.
//
// Admission control is backpressure, not load shedding: when the
// admission queue is full, readers block on push() and the kernel's
// socket buffer throttles the client. serve.queue.push_blocked counts
// how often that happened.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dassa/common/bounded_queue.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/io/interval_index.hpp"
#include "dassa/io/vca.hpp"
#include "dassa/serve/front_end.hpp"
#include "dassa/serve/protocol.hpp"

namespace dassa::serve {

/// Stage-latency histogram names fed by request-scoped tracing: one
/// record per answered request per stage, so every serve.lat.* count
/// equals the serve.request end-to-end count (pinned by
/// tests/serve/test_serve_stats.cpp). Kept next to ServeConfig so the
/// server, the tests, the bench, and das_top cannot drift apart.
namespace lat {
inline constexpr const char* kRequest = "serve.request";
inline constexpr const char* kQueueWait = "serve.lat.queue_wait";
inline constexpr const char* kCoalesce = "serve.lat.coalesce";
inline constexpr const char* kDecode = "serve.lat.decode";
inline constexpr const char* kWrite = "serve.lat.write";
}  // namespace lat

struct ServeConfig {
  std::string socket_path;
  /// Archive to serve: a .vca logical file, or a single DASH5 file.
  std::string archive;
  std::size_t workers = 4;
  std::size_t queue_capacity = 64;
  /// Max requests the dispatcher folds into one coalesce round.
  std::size_t max_batch = 16;
  /// How long the dispatcher holds the first admitted request hoping
  /// for overlapping company. 0 = dispatch immediately.
  std::uint64_t coalesce_window_us = 500;
  /// Column gap two slabs may leave and still share a union read.
  std::size_t gap_cols = 0;
  /// Off = every request is its own group (the bench baseline's
  /// "unbatched server" lever).
  bool batching = true;
  /// Request-scoped tracing: per-stage timestamps (received ->
  /// admitted -> dequeued -> grouped -> decode begin/end -> reply
  /// written) feeding the serve.lat.* histograms and the slow-request
  /// log. Off: no stage clock reads -- only the end-to-end
  /// serve.request histogram survives.
  bool request_tracing = true;
  /// End-to-end latency above which a request earns a structured
  /// serve.slow_request log record with its stage breakdown
  /// (das_serve --slow-ms). 0 = never. Needs request_tracing.
  std::uint64_t slow_ns = 0;
};

/// A das_serve instance. start() spawns the thread topology above;
/// stop() drains: in-flight requests are answered, late ones are
/// refused with kShuttingDown. Construction loads the archive and its
/// time-interval sidecar (or falls back to building the index from
/// member headers -- io.index.fallbacks).
class Server {
 public:
  explicit Server(ServeConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket first: a path that cannot be bound throws with
  /// nothing started, and destruction stays clean.
  void start();
  /// Graceful drain; idempotent. Safe to call while clients are
  /// mid-request: admitted work is finished, not abandoned.
  void stop();

  [[nodiscard]] const ServeConfig& config() const { return cfg_; }
  [[nodiscard]] Shape2D shape() const { return vca_.shape(); }
  /// Admission-queue depth right now (the das_serve telemetry gauge).
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }
  /// Client connections held right now (FrontEnd::tracked_connections).
  [[nodiscard]] std::size_t tracked_connections() {
    return front_.tracked_connections();
  }

 private:
  /// One admitted read, resolved to archive coordinates. The *_ns
  /// stamps are the request-scoped trace record (0 when tracing is
  /// off, except admit_ns which the end-to-end histogram always
  /// needs); request_seq is the server-assigned request ID the
  /// slow-request log keys on.
  struct Job {
    ReadRequest req;
    Slab2D slab;
    std::shared_ptr<Peer> conn;
    std::uint64_t request_seq = 0;
    std::uint64_t received_ns = 0;
    std::uint64_t admit_ns = 0;
    std::uint64_t dequeued_ns = 0;
    std::uint64_t grouped_ns = 0;
  };

  /// One coalesced batch handed to a worker.
  struct GroupWork {
    Slab2D span;
    std::vector<Job> jobs;
  };

  void reader_loop(const std::shared_ptr<Peer>& client);
  void dispatch_loop();
  void worker_loop();
  void dispatch_round(std::vector<Job> batch);
  /// Record a finished request's stage latencies and, past the
  /// slow_ns threshold, emit the structured slow-request record.
  /// write_begin_ns is per job -- the previous batch member's reply
  /// stamp (decode_end_ns for the first) -- so the write stage charges
  /// only this job's slice + socket write, not its predecessors'.
  void record_request_trace(const Job& job, std::uint64_t decode_begin_ns,
                            std::uint64_t decode_end_ns,
                            std::uint64_t write_begin_ns,
                            std::uint64_t reply_ns);

  /// Map a validated request onto archive coordinates; throws
  /// InvalidArgument (kBadRequest / kOutOfRange semantics handled by
  /// the caller).
  [[nodiscard]] Slab2D resolve(const ReadRequest& req) const;

  static void send_response(Peer& client, const ReadResponse& resp);
  static void send_error(Peer& client, std::uint64_t id, ErrorCode code,
                         const std::string& message);

  ServeConfig cfg_;
  io::Vca vca_;
  io::IntervalIndex index_;
  bool has_time_index_ = false;

  BoundedQueue<Job> queue_;
  BoundedQueue<GroupWork> groups_;

  std::thread dispatch_thread_;
  std::vector<std::thread> worker_threads_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> next_request_seq_{1};

  // Stage histograms resolved once at construction (registry entries
  // live for the process), so the per-request hot path never takes the
  // registry's name-lookup lock.
  LatencyHistogram& h_request_;
  LatencyHistogram& h_queue_wait_;
  LatencyHistogram& h_coalesce_;
  LatencyHistogram& h_decode_;
  LatencyHistogram& h_write_;

  // Last: its reader threads use everything above.
  FrontEnd front_;
};

}  // namespace dassa::serve
