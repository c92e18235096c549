// Query serving: RAII Unix-domain stream sockets + framing.
//
// This header and src/serve/socket.cpp are the ONLY places in the tree
// allowed to make raw socket syscalls (socket/bind/listen/accept/
// connect and fd-level reads/writes) -- das_lint's
// `no-naked-socket-call` rule pins everything else to this API, the
// same confinement pattern as the SIMD layer for intrinsics. That
// keeps EINTR handling, partial-read/write loops, frame-size limits,
// and byte accounting (serve.bytes_sent / serve.bytes_received) in one
// audited file.
//
// Framing: a 32-bit little-endian payload length, then the payload
// (see protocol.hpp for payload layouts). recv_frame() distinguishes a
// clean end-of-stream (nullopt, the peer closed between frames) from a
// torn one (IoError mid-frame) and rejects oversized length prefixes
// (FormatError) before allocating.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace dassa::serve {

/// One connected stream socket. Movable, not copyable; the destructor
/// closes. send_frame and recv_frame may run concurrently (one writer
/// thread, one reader thread); neither may run concurrently with
/// itself.
class Connection {
 public:
  Connection() = default;
  /// Adopt an already-connected file descriptor.
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection();

  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }

  /// Write one length-prefixed frame (full-write loop, EINTR-safe).
  /// Throws IoError if the peer is gone, InvalidArgument beyond
  /// kMaxFrameBytes.
  void send_frame(std::span<const std::byte> payload);

  /// Read one frame. nullopt on clean end-of-stream; IoError on a torn
  /// frame or syscall failure; FormatError on an oversized prefix.
  [[nodiscard]] std::optional<std::vector<std::byte>> recv_frame();

  /// Shut down both directions, waking a thread blocked in
  /// recv_frame() on another thread (it sees end-of-stream). The fd
  /// stays open until destruction, so this is safe to call
  /// concurrently with recv_frame/send_frame.
  void shutdown();

 private:
  void close_fd() noexcept;
  int fd_ = -1;
};

/// A listening Unix-domain socket bound to a filesystem path. The
/// constructor removes a stale socket file at `path` and throws
/// IoError if anything else is there; the destructor unlinks it again.
class Listener {
 public:
  explicit Listener(const std::string& path);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Block for the next client. nullopt once shutdown() was called;
  /// IoError on unexpected syscall failure.
  [[nodiscard]] std::optional<Connection> accept();

  /// Wake a blocked accept() and make all future accepts return
  /// nullopt. Idempotent; safe to call from another thread.
  void shutdown();

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
  std::atomic<bool> down_{false};
};

/// Client side: connect to a das_serve socket at `path`. A non-zero
/// `timeout` bounds the connect and every later send and read on the
/// connection; one that expires throws IoError.
[[nodiscard]] Connection connect_local(
    const std::string& path,
    std::chrono::milliseconds timeout = std::chrono::milliseconds{0});

}  // namespace dassa::serve
