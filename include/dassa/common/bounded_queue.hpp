// DASSA common: the blocking bounded queue.
//
// Two subsystems pace mismatched producers and consumers with the same
// queue discipline: streaming ingest (spool poller vs window driver,
// docs/INGEST.md) and the query server (connection readers vs the
// batching dispatcher, docs/SERVING.md). The queue bounds the rate
// mismatch with *backpressure*, never drops: push() blocks while the
// queue is at capacity, so a slow consumer throttles the producer
// instead of silently losing work.
//
// Each instance charges its owner's counter namespace (pushed / popped
// / push_blocked / peak_depth) through the QueueCounterNames it is
// constructed with -- ingest.queue.* and serve.queue.* share this one
// implementation, so "pushed == popped after a clean drain" is the
// same no-drop invariant in both subsystems' tests. Pass `{}` for an uncounted
// internal queue.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/sync.hpp"

namespace dassa {

/// Counter names one queue instance charges; any may be null to skip
/// that count (all-null = an uncounted queue).
struct QueueCounterNames {
  const char* pushed = nullptr;
  const char* popped = nullptr;
  const char* push_blocked = nullptr;
  const char* peak_depth = nullptr;
};

/// Blocking bounded multi-producer/multi-consumer queue. close() wakes
/// every waiter: blocked pushes give up (return false) and pops drain
/// the remaining items before reporting end-of-stream (nullopt) -- the
/// graceful-shutdown order.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity, QueueCounterNames counters = {})
      : capacity_(capacity), counters_(counters) {
    DASSA_CHECK(capacity >= 1, "queue capacity must be at least 1");
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Block until there is room (backpressure), then enqueue. Returns
  /// false without enqueuing if the queue was closed first.
  bool push(T item) {
    MutexLock lock(mu_);
    if (items_.size() >= capacity_ && !closed_) {
      charge(counters_.push_blocked);
      while (items_.size() >= capacity_ && !closed_) not_full_.wait(lock);
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    charge(counters_.pushed);
    if (counters_.peak_depth != nullptr) {
      global_counters().high_water(counters_.peak_depth, items_.size());
    }
    not_empty_.notify_one();
    return true;
  }

  /// Block until an item is available or the queue is closed and
  /// drained; nullopt means no more items will ever arrive.
  std::optional<T> pop() {
    MutexLock lock(mu_);
    while (items_.empty() && !closed_) not_empty_.wait(lock);
    return pop_locked();
  }

  /// pop() with a deadline: nullopt either when the deadline passes
  /// with the queue still empty or when the queue is closed and
  /// drained. The serve dispatcher's coalesce window is this call --
  /// "wait a little longer for an overlapping request, then go".
  std::optional<T> try_pop_until(
      std::chrono::steady_clock::time_point deadline) {
    MutexLock lock(mu_);
    while (items_.empty() && !closed_) {
      if (not_empty_.wait_until(lock, deadline) == std::cv_status::timeout) {
        break;
      }
    }
    return pop_locked();
  }

  /// End the stream: blocked producers return false, consumers drain
  /// what is queued and then see nullopt. Idempotent.
  void close() {
    MutexLock lock(mu_);
    closed_ = true;
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  [[nodiscard]] std::size_t depth() const {
    MutexLock lock(mu_);
    return items_.size();
  }

  [[nodiscard]] bool closed() const {
    MutexLock lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  void charge(const char* name) {
    if (name != nullptr) global_counters().add(name);
  }

  std::optional<T> pop_locked() DASSA_REQUIRES(mu_) {
    if (items_.empty()) return std::nullopt;  // timed out, or closed+drained
    T item = std::move(items_.front());
    items_.pop_front();
    charge(counters_.popped);
    not_full_.notify_one();
    return item;
  }

  const std::size_t capacity_;
  const QueueCounterNames counters_;
  mutable Mutex mu_;
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<T> items_ DASSA_GUARDED_BY(mu_);
  bool closed_ DASSA_GUARDED_BY(mu_) = false;
};

}  // namespace dassa
