// BoundedQueue: backpressure (block, never drop), close/drain
// semantics, and the ingest.queue.* counters the pipeline test in
// test_ingest_equivalence.cpp asserts on.
#include "dassa/ingest/queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"

namespace dassa::ingest {
namespace {

TEST(IngestQueueTest, FifoWithinCapacity) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.depth(), 3u);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(IngestQueueTest, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedQueue<int>(0), InvalidArgument);
}

TEST(IngestQueueTest, PushBlocksUntilPopMakesRoom) {
  global_counters().reset();
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.push(3));  // must block: queue is full
    third_pushed.store(true);
  });
  // The producer must not complete while the queue stays full. A bounded
  // wait keeps the test honest without making it timing-flaky.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(q.depth(), 2u);

  EXPECT_EQ(q.pop(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);

  // The no-drop invariant, as counters: everything pushed was popped,
  // the push that found the queue full was counted, and the depth never
  // exceeded capacity.
  EXPECT_EQ(global_counters().get(counters::kIngestQueuePushed), 3u);
  EXPECT_EQ(global_counters().get(counters::kIngestQueuePopped), 3u);
  EXPECT_GE(global_counters().get(counters::kIngestQueuePushBlocked), 1u);
  EXPECT_LE(global_counters().get(counters::kIngestQueuePeakDepth), 2u);
}

TEST(IngestQueueTest, CloseDrainsThenEndsTheStream) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(7));
  ASSERT_TRUE(q.push(8));
  q.close();
  EXPECT_FALSE(q.push(9));  // closed: rejected, not enqueued
  EXPECT_EQ(q.pop(), 7);    // ...but the backlog still drains
  EXPECT_EQ(q.pop(), 8);
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_EQ(q.pop(), std::nullopt);  // idempotent end-of-stream
}

TEST(IngestQueueTest, CloseWakesBlockedProducer) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::thread producer([&] {
    EXPECT_FALSE(q.push(2));  // blocked on full, then woken by close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), std::nullopt);
}

// TSan leg: several producers racing one consumer through a tiny
// queue; every pushed item must come out exactly once.
TEST(IngestQueueStressTest, ManyProducersOneConsumerNoLossNoDup) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  BoundedQueue<int> q(3);

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }

  std::vector<int> seen_count(kProducers * kPerProducer, 0);
  std::thread consumer([&] {
    while (auto v = q.pop()) ++seen_count[static_cast<std::size_t>(*v)];
  });

  for (std::thread& t : producers) t.join();
  q.close();
  consumer.join();

  for (std::size_t i = 0; i < seen_count.size(); ++i) {
    ASSERT_EQ(seen_count[i], 1) << "item " << i << " lost or duplicated";
  }
}

}  // namespace
}  // namespace dassa::ingest
