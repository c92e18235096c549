// Streaming ingest: the bounded admission queue (docs/INGEST.md).
//
// The spool watcher (producer) and the window driver (consumer) run at
// different, bursty rates: a backlog of stable files can appear in one
// poll, while a window takes a full engine run to retire. The shared
// dassa::BoundedQueue bounds that mismatch with backpressure (push()
// blocks at capacity, never drops); this alias binds it to the
// ingest.queue.* counter namespace. A real deployment leaves the files
// in the spool while blocked -- which is exactly what blocking the
// admitting thread achieves here.
//
// Occupancy is observable three ways: the ingest.queue.* counters
// (pushed / popped / push_blocked / peak_depth), the depth() accessor
// das_ingest registers as the "ingest.queue.depth" telemetry gauge, and
// the daemon's final drain log line.
#pragma once

#include <cstddef>

#include "dassa/common/bounded_queue.hpp"
#include "dassa/common/counters.hpp"

namespace dassa::ingest {

/// The ingest admission queue: dassa::BoundedQueue charging
/// ingest.queue.* (pushed == popped after a clean drain is the no-drop
/// invariant IngestEquivalenceTest.UndersizedQueuePipeline* asserts).
template <typename T>
class BoundedQueue : public dassa::BoundedQueue<T> {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : dassa::BoundedQueue<T>(
            capacity, QueueCounterNames{counters::kIngestQueuePushed,
                                        counters::kIngestQueuePopped,
                                        counters::kIngestQueuePushBlocked,
                                        counters::kIngestQueuePeakDepth}) {}
};

}  // namespace dassa::ingest
