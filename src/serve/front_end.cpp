#include "dassa/serve/front_end.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <optional>
#include <string>
#include <utility>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/log.hpp"

namespace dassa::serve {

FrontEnd::FrontEnd(std::string socket_path, std::string name,
                   const char* connections_counter, Handler handler)
    : path_(std::move(socket_path)),
      name_(std::move(name)),
      connections_counter_(connections_counter),
      handler_(std::move(handler)) {
  DASSA_CHECK(!path_.empty(), name_ + " needs a socket path");
  DASSA_CHECK(handler_ != nullptr, name_ + " needs a connection handler");
}

FrontEnd::~FrontEnd() { stop(); }

void FrontEnd::start() {
  DASSA_CHECK(listener_ == nullptr, name_ + " started twice");
  listener_ = std::make_unique<Listener>(path_);
  accept_thread_ = std::thread([this] { accept_loop(); });
  DASSA_SLOG(kInfo, name_ + ".listen").field("socket", path_);
}

void FrontEnd::stop_accepting() {
  if (listener_) listener_->shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
}

void FrontEnd::stop() {
  stop_accepting();  // nothing adds slots behind the swap below
  std::vector<std::unique_ptr<Slot>> slots;
  {
    MutexLock lock(slots_mu_);
    slots.swap(slots_);
  }
  for (const auto& s : slots) s->peer->conn.shutdown();
  for (const auto& s : slots) s->thread.join();
}

std::size_t FrontEnd::tracked_connections() {
  MutexLock lock(slots_mu_);
  return slots_.size();
}

void FrontEnd::reap_finished() {
  std::vector<std::unique_ptr<Slot>> finished;
  {
    MutexLock lock(slots_mu_);
    const auto live = std::partition(
        slots_.begin(), slots_.end(), [](const auto& s) { return !s->done; });
    finished.assign(std::make_move_iterator(live),
                    std::make_move_iterator(slots_.end()));
    slots_.erase(live, slots_.end());
  }
  for (const auto& s : finished) s->thread.join();
}

void FrontEnd::accept_loop() {
  std::uint64_t next_peer_id = 1;
  std::uint64_t unreported = 0;
  std::chrono::steady_clock::time_point last_report{};
  while (true) {
    std::optional<Connection> conn;
    std::optional<std::string> failure;
    try {
      conn = listener_->accept();
    } catch (const Error& e) {
      failure = e.what();
    }
    reap_finished();  // also on failure: reaping hands fds back
    if (failure) {
      // The usual failure is EMFILE, which leaves the client in the
      // backlog: retrying at once fails the same way and spins a core.
      // So pause a fixed interval, and log at most one record a second.
      ++unreported;
      const auto now = std::chrono::steady_clock::now();
      if (now - last_report >= std::chrono::seconds(1)) {
        DASSA_SLOG(kError, name_ + ".accept_error")
                .field("socket", path_)
                .field("failures", unreported)
            << *failure;
        last_report = now;
        unreported = 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (!conn) return;  // listener shut down

    auto slot = std::make_unique<Slot>();
    slot->peer = std::make_shared<Peer>();
    slot->peer->conn = std::move(*conn);
    slot->peer->id = next_peer_id++;
    slot->thread = std::thread([this, s = slot.get()] {
      try {
        handler_(s->peer);
      } catch (const std::exception& e) {
        DASSA_SLOG(kError, name_ + ".connection_error")
                .field("client", s->peer->id)
            << e.what();
      }
      s->done = true;
    });
    global_counters().add(connections_counter_);
    MutexLock lock(slots_mu_);
    slots_.push_back(std::move(slot));
  }
}

}  // namespace dassa::serve
