// DASSA common: fixed-size thread pool with parallel_for.
//
// DASSA's one thread runtime. The paper's ApplyMT (Algorithm 1) uses
// OpenMP; in this reproduction MiniMPI ranks are themselves threads,
// and nested OpenMP parallel regions launched from sibling rank-threads
// would contend for one process-wide OpenMP runtime. ApplyMT
// (core::apply_cells / apply_rows) therefore forks and joins on this
// explicit pool, inside a MiniMPI rank and on a single node alike.
// parallel_for reproduces the fork-join structure of an OpenMP
// static-schedule parallel for.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "dassa/common/error.hpp"
#include "dassa/common/sync.hpp"

namespace dassa {

/// A fixed pool of worker threads executing submitted tasks FIFO.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (must be >= 1). Workers inherit the
  /// creating thread's trace rank label (HAEE builds its ApplyMT pool
  /// inside a MiniMPI rank thread, so worker spans land in that rank's
  /// chrome-trace lane); pass `inherit_trace_rank = false` for pools
  /// shared across ranks, e.g. io_pool().
  explicit ThreadPool(std::size_t num_threads,
                      bool inherit_trace_rank = true);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Tasks queued plus tasks currently executing. The telemetry
  /// sampler exports this as the io.pool queue-depth gauge.
  [[nodiscard]] std::size_t queue_depth() const {
    MutexLock lock(mu_);
    return tasks_.size() + in_flight_;
  }

  /// Enqueue a task; returns immediately.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Static-schedule parallel for over [0, n): the range is split into
  /// size() contiguous chunks and `body(thread_index, begin, end)` runs
  /// once per chunk, like an OpenMP static schedule. Blocks until
  /// all chunks complete. Exceptions thrown by `body` are rethrown on
  /// the calling thread (first one wins).
  void parallel_for(
      std::size_t n,
      const std::function<void(std::size_t thread_index, std::size_t begin,
                               std::size_t end)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  mutable Mutex mu_;
  std::queue<std::function<void()>> tasks_ DASSA_GUARDED_BY(mu_);
  CondVar cv_task_;
  CondVar cv_idle_;
  std::size_t in_flight_ DASSA_GUARDED_BY(mu_) = 0;
  bool stop_ DASSA_GUARDED_BY(mu_) = false;
};

}  // namespace dassa
