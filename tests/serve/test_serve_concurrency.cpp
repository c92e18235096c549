// Serve concurrency harness (runs under the TSan leg of check.sh):
// concurrent clients with overlapping, disjoint and adversarial
// windows, a slow-reading client exercising write-side backpressure,
// and a mid-request shutdown drain where every admitted request is
// still answered. The shared-decode case pins what batching buys: one
// shared handle behind the coalescing dispatcher decodes at most half
// of what a fresh handle per request does. The ServeFrontEnd cases pin
// the shared socket front end: finished connections are reaped, and an
// unbindable socket fails start() without leaving anything to crash on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <thread>
#include <vector>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/common/telemetry.hpp"
#include "dassa/das/search.hpp"
#include "dassa/das/synth.hpp"
#include "dassa/io/vca.hpp"
#include "dassa/serve/client.hpp"
#include "dassa/serve/server.hpp"
#include "dassa/serve/stats.hpp"
#include "testing/tmpdir.hpp"

using namespace dassa;
using dassa::testing::TmpDir;

namespace {

/// Small chunked+compressed acquisition published as arch.vca + .tix.
struct ServedArchive {
  explicit ServedArchive(const TmpDir& dir, std::size_t channels = 16,
                         std::size_t files = 4,
                         double seconds_per_file = 4.0) {
    const das::SynthDas synth =
        das::SynthDas::fig1b_scene(channels, 50.0, /*seed=*/20260809);
    das::AcquisitionSpec spec;
    spec.dir = dir.file("data");
    spec.start = das::Timestamp::parse("170728224510");
    spec.file_count = files;
    spec.seconds_per_file = seconds_per_file;
    spec.chunk = io::ChunkShape{8, 64};
    spec.codec = io::CodecSpec::parse("shuffle+lz");
    spec.per_channel_metadata = false;
    const std::vector<std::string> paths =
        das::write_acquisition(synth, spec);
    vca_path = dir.file("arch.vca");
    das::save_vca_with_index(io::Vca::build(paths), vca_path);
    reference = io::Vca::load(vca_path);
  }

  std::string vca_path;
  io::Vca reference;
};

serve::ServeConfig base_config(const TmpDir& dir,
                               const ServedArchive& archive) {
  serve::ServeConfig cfg;
  cfg.socket_path = dir.file("s.sock");
  cfg.archive = archive.vca_path;
  cfg.workers = 2;
  cfg.queue_capacity = 8;
  cfg.max_batch = 8;
  cfg.coalesce_window_us = 2000;
  return cfg;
}

std::size_t open_fds() {
  return static_cast<std::size_t>(
      std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                    std::filesystem::directory_iterator{}));
}

}  // namespace

TEST(ServeConcurrency, OverlappingWindowsAllByteIdentical) {
  TmpDir dir("serve_overlap");
  ServedArchive archive(dir);
  const Shape2D shape = archive.reference.shape();
  serve::Server server(base_config(dir, archive));
  server.start();

  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kPerThread = 5;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      serve::Client client(server.config().socket_path);
      for (std::size_t r = 0; r < kPerThread; ++r) {
        // 75%-overlapping schedule: each window starts a quarter width
        // past its neighbour's.
        const std::size_t width = shape.cols / 2;
        const std::size_t off =
            ((t + r * kThreads) * (width / 4)) % (shape.cols - width);
        const Slab2D slab{0, off, shape.rows, width};
        if (client.read_slab(slab) != archive.reference.read_slab(slab)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  server.stop();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(global_counters().get(counters::kServeQueuePushed),
            global_counters().get(counters::kServeQueuePopped))
      << "admitted requests were dropped";
}

TEST(ServeConcurrency, SharedDecodeHalvesPerRequestDecodes) {
  // 8 clients x 4 requests of 512 columns, each window a quarter width
  // past the previous client's (75% overlap), over 32 x 3200 columns.
  TmpDir dir("serve_shared_decode");
  ServedArchive archive(dir, /*channels=*/32, /*files=*/8,
                        /*seconds_per_file=*/8.0);
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 4;
  constexpr std::uint64_t kRequests = kClients * kPerClient;
  constexpr std::size_t kWidth = 512;
  constexpr std::size_t kStride = kWidth / 4;
  const Shape2D shape = archive.reference.shape();
  const std::size_t steps = (shape.cols - kWidth) / kStride + 1;
  const auto slab_of = [&](std::size_t c, std::size_t r) {
    return Slab2D{0, ((c + r * kClients) % steps) * kStride, shape.rows,
                  kWidth};
  };
  std::vector<std::vector<double>> expected(kRequests);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t r = 0; r < kPerClient; ++r) {
      expected[c * kPerClient + r] = archive.reference.read_slab(slab_of(c, r));
    }
  }
  const auto count = [](const char* name) {
    return global_counters().get(name);
  };

  // Baseline: a fresh handle per request has fresh file ids, so the
  // global ChunkCache cannot help -- what a per-request server pays.
  const std::uint64_t baseline0 = count(counters::kIoCodecDecodeCalls);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t r = 0; r < kPerClient; ++r) {
      const io::Vca fresh = io::Vca::load(archive.vca_path);
      ASSERT_EQ(fresh.read_slab(slab_of(c, r)), expected[c * kPerClient + r]);
    }
  }
  const std::uint64_t baseline = count(counters::kIoCodecDecodeCalls) -
                                 baseline0;
  ASSERT_GT(baseline, 0u);

  serve::ServeConfig cfg = base_config(dir, archive);
  cfg.max_batch = 16;
  cfg.coalesce_window_us = 20000;
  const std::uint64_t served0 = count(counters::kIoCodecDecodeCalls);
  const std::uint64_t pushed0 = count(counters::kServeQueuePushed);
  const std::uint64_t popped0 = count(counters::kServeQueuePopped);
  const std::uint64_t responses0 = count(counters::kServeResponses);
  const std::uint64_t coalesced0 = count(counters::kServeBatchCoalesced);
  const HistogramSnapshot latency0 =
      global_metrics().histogram(serve::lat::kRequest).snapshot();
  serve::Server server(cfg);
  server.start();

  // Every client sends its round-r frame before any client reads a
  // round-r reply, so each round's requests meet in the dispatcher's
  // 20 ms coalesce window.
  std::barrier sent(static_cast<std::ptrdiff_t>(kClients));
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::Connection conn = serve::connect_local(cfg.socket_path);
      for (std::size_t r = 0; r < kPerClient; ++r) {
        const Slab2D slab = slab_of(c, r);
        serve::ReadRequest req;
        req.id = r + 1;
        req.row_cnt = slab.row_cnt;
        req.col_off = slab.col_off;
        req.col_cnt = slab.col_cnt;
        conn.send_frame(serve::encode_request(req));
        sent.arrive_and_wait();
        const auto frame = conn.recv_frame();
        if (!frame) {
          mismatches.fetch_add(1);
          continue;
        }
        const serve::ReadResponse resp = serve::decode_response(*frame);
        if (!resp.ok || resp.id != req.id ||
            resp.data != expected[c * kPerClient + r]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  server.stop();

  const std::uint64_t served = count(counters::kIoCodecDecodeCalls) - served0;
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_LE(2 * served, baseline)
      << "served decodes " << served << " vs per-request baseline "
      << baseline << ": shared decode is not engaging";
  EXPECT_GE(count(counters::kServeBatchCoalesced) - coalesced0, 2u)
      << "no coalesce round folded two requests";
  EXPECT_EQ(count(counters::kServeResponses) - responses0, kRequests);
  EXPECT_EQ(count(counters::kServeQueuePushed) - pushed0, kRequests);
  EXPECT_EQ(count(counters::kServeQueuePopped) - popped0, kRequests);
  const HistogramSnapshot latency =
      global_metrics().histogram(serve::lat::kRequest).snapshot().diff(
          latency0);
  EXPECT_EQ(latency.count, kRequests);
  EXPECT_LE(latency.quantile_ns(0.50), 1.0e9);
  EXPECT_LE(latency.quantile_ns(0.99), 2.0e9);
}

TEST(ServeConcurrency, DisjointWindowsAllByteIdentical) {
  TmpDir dir("serve_disjoint");
  ServedArchive archive(dir);
  const Shape2D shape = archive.reference.shape();
  serve::Server server(base_config(dir, archive));
  server.start();

  constexpr std::size_t kThreads = 4;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  const std::size_t width = shape.cols / kThreads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      serve::Client client(server.config().socket_path);
      const Slab2D slab{0, t * width, shape.rows, width};
      for (int r = 0; r < 4; ++r) {
        if (client.read_slab(slab) != archive.reference.read_slab(slab)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  server.stop();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(ServeConcurrency, AdversarialRequestsGetTypedRefusals) {
  TmpDir dir("serve_adversarial");
  ServedArchive archive(dir);
  const Shape2D shape = archive.reference.shape();
  serve::Server server(base_config(dir, archive));
  server.start();

  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> threads;

  // Thread 1: out-of-range and empty-window requests.
  threads.emplace_back([&] {
    serve::Client client(server.config().socket_path);
    for (int i = 0; i < 8; ++i) {
      serve::ReadRequest req;
      req.addressing = serve::Addressing::kColumns;
      req.col_off = shape.cols + 100;
      req.col_cnt = 10;
      serve::ReadResponse resp = client.call(req);
      if (resp.ok || resp.code != serve::ErrorCode::kOutOfRange) {
        failures.fetch_add(1);
      }
      serve::ReadRequest tiny;
      tiny.addressing = serve::Addressing::kTime;
      tiny.begin_s = 10;
      tiny.end_s = 5;  // inverted window
      resp = client.call(tiny);
      if (resp.ok || resp.code != serve::ErrorCode::kBadRequest) {
        failures.fetch_add(1);
      }
    }
  });

  // Thread 2: raw garbage frames; the server must refuse each and keep
  // the connection serviceable for the valid request that follows.
  threads.emplace_back([&] {
    serve::Connection raw =
        serve::connect_local(server.config().socket_path);
    for (int i = 0; i < 8; ++i) {
      const std::vector<std::byte> garbage(7, std::byte{0xee});
      raw.send_frame(garbage);
      const auto reply = raw.recv_frame();
      if (!reply) {
        failures.fetch_add(1);
        return;
      }
      const serve::ReadResponse resp = serve::decode_response(*reply);
      if (resp.ok || resp.code != serve::ErrorCode::kBadRequest) {
        failures.fetch_add(1);
      }
    }
  });

  // Thread 3: honest overlapping reads while the abuse is in flight.
  threads.emplace_back([&] {
    serve::Client client(server.config().socket_path);
    const Slab2D slab{0, 0, shape.rows, shape.cols / 2};
    const std::vector<double> expected = archive.reference.read_slab(slab);
    for (int i = 0; i < 8; ++i) {
      if (client.read_slab(slab) != expected) failures.fetch_add(1);
    }
  });

  for (auto& t : threads) t.join();
  server.stop();
  EXPECT_EQ(failures.load(), 0u);
}

TEST(ServeConcurrency, SlowClientDoesNotStarveOthers) {
  TmpDir dir("serve_slow");
  ServedArchive archive(dir);
  const Shape2D shape = archive.reference.shape();
  serve::ServeConfig cfg = base_config(dir, archive);
  cfg.queue_capacity = 2;  // tiny: slow consumers back up into readers
  cfg.workers = 1;
  serve::Server server(cfg);
  server.start();

  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> fast_done{0};

  // The slow client pipelines a burst of full-array requests on a raw
  // connection and dawdles before reading any reply, so its responses
  // pile into the socket buffer and the worker blocks on the write --
  // the admission queue backs up into the other readers.
  std::thread slow([&] {
    serve::Connection raw = serve::connect_local(cfg.socket_path);
    const Slab2D slab{0, 0, shape.rows, shape.cols};
    const std::vector<double> expected = archive.reference.read_slab(slab);
    constexpr int kBurst = 6;
    for (int i = 0; i < kBurst; ++i) {
      serve::ReadRequest req;
      req.id = static_cast<std::uint64_t>(i) + 1;
      req.addressing = serve::Addressing::kColumns;
      raw.send_frame(serve::encode_request(req));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    for (int i = 0; i < kBurst; ++i) {
      const auto frame = raw.recv_frame();
      if (!frame) {
        failures.fetch_add(1);
        return;
      }
      const serve::ReadResponse resp = serve::decode_response(*frame);
      if (!resp.ok || resp.data != expected) failures.fetch_add(1);
    }
  });

  std::vector<std::thread> fast;
  for (int t = 0; t < 3; ++t) {
    fast.emplace_back([&] {
      serve::Client client(cfg.socket_path);
      const Slab2D slab{0, 0, shape.rows, shape.cols / 4};
      const std::vector<double> expected =
          archive.reference.read_slab(slab);
      for (int i = 0; i < 6; ++i) {
        if (client.read_slab(slab) != expected) failures.fetch_add(1);
        fast_done.fetch_add(1);
      }
    });
  }
  slow.join();
  for (auto& t : fast) t.join();
  server.stop();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(fast_done.load(), 18u);
}

TEST(ServeConcurrency, ShutdownDrainAnswersEveryAdmittedRequest) {
  TmpDir dir("serve_drain");
  ServedArchive archive(dir);
  const Shape2D shape = archive.reference.shape();
  serve::ServeConfig cfg = base_config(dir, archive);
  cfg.coalesce_window_us = 5000;  // keep requests in flight at stop()
  serve::Server server(cfg);
  server.start();

  std::atomic<bool> go_stop{false};
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<std::size_t> eof{0};
  std::atomic<std::size_t> failures{0};

  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      serve::Client client(cfg.socket_path);
      const Slab2D slab{0, (t * 13) % (shape.cols / 2), shape.rows,
                        shape.cols / 2};
      const std::vector<double> expected =
          archive.reference.read_slab(slab);
      for (int i = 0; i < 50; ++i) {
        if (i == 3 && t == 0) go_stop.store(true);
        serve::ReadRequest req;
        req.addressing = serve::Addressing::kColumns;
        req.row_cnt = slab.row_cnt;
        req.col_off = slab.col_off;
        req.col_cnt = slab.col_cnt;
        try {
          const serve::ReadResponse resp = client.call(req);
          if (resp.ok) {
            if (resp.data != expected) failures.fetch_add(1);
            ok.fetch_add(1);
          } else if (resp.code == serve::ErrorCode::kShuttingDown) {
            rejected.fetch_add(1);
          } else {
            failures.fetch_add(1);
          }
        } catch (const IoError&) {
          eof.fetch_add(1);  // server closed the stream while draining
          return;
        }
      }
    });
  }
  while (!go_stop.load()) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));
  server.stop();
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(ok.load(), 3u) << "stop() fired before any request was served";
  // Drain accounting: everything admitted was answered, nothing was
  // silently dropped between the queue and the workers.
  EXPECT_EQ(global_counters().get(counters::kServeQueuePushed),
            global_counters().get(counters::kServeQueuePopped));
  EXPECT_LE(eof.load(), kThreads);
}

TEST(ServeConcurrency, StopIsIdempotentAndRestartableOnNewSocket) {
  TmpDir dir("serve_stop2");
  ServedArchive archive(dir);
  {
    serve::Server server(base_config(dir, archive));
    server.start();
    server.stop();
    server.stop();  // second stop is a no-op
  }
  // A new server on the same path binds cleanly (stale file removed).
  serve::Server again(base_config(dir, archive));
  again.start();
  serve::Client client(again.config().socket_path);
  const Shape2D shape = archive.reference.shape();
  const Slab2D slab{0, 0, shape.rows, 8};
  EXPECT_EQ(client.read_slab(slab), archive.reference.read_slab(slab));
  again.stop();
}

TEST(ServeFrontEnd, SequentialStatsPollsAreReaped) {
  TmpDir dir("serve_reap");
  ServedArchive archive(dir);
  serve::Server server(base_config(dir, archive));
  server.start();
  const std::size_t baseline_fds = open_fds();

  // das_top --once and Prometheus scrapes: connect, one kStats poll,
  // hang up. A finished connection is reaped at the next accept, so
  // what the server holds does not grow with the number of polls made.
  // A reader that has not yet run to see its end-of-stream is not
  // finished, so under load a few may still be held.
  const auto poll_once = [&] {
    serve::Connection conn = serve::connect_local(server.config().socket_path);
    EXPECT_TRUE(serve::fetch_stats(conn).counters.contains(
        counters::kStatsRequests));
    return server.tracked_connections();
  };
  std::size_t max_tracked = 0;
  for (int i = 0; i < 200; ++i) {
    max_tracked = std::max(max_tracked, poll_once());
  }
  EXPECT_LT(max_tracked, 20u);

  // Once those readers have exited, one more accept reaps them all:
  // the server holds only the live client.
  bool settled = false;
  for (int i = 0; i < 100 && !settled; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    settled = poll_once() <= 1;
  }
  EXPECT_TRUE(settled);
  // That client has hung up too; its server side waits for the next
  // accept or stop().
  EXPECT_LE(open_fds(), baseline_fds + 1);
  server.stop();
  EXPECT_EQ(server.tracked_connections(), 0u);
  EXPECT_LE(open_fds(), baseline_fds);
}

TEST(ServeFrontEnd, UnbindableSocketFailsStartAndDestructsCleanly) {
  TmpDir dir("serve_bad_bind");
  ServedArchive archive(dir);
  serve::ServeConfig cfg = base_config(dir, archive);
  cfg.socket_path = "/nonexistent-dassa-dir/s.sock";
  telemetry::register_gauge("serve.queue.depth", [] { return -7.0; });
  {
    serve::Server server(cfg);
    EXPECT_THROW(server.start(), Error);
    server.stop();  // nothing was started: a no-op, not a crash
  }
  // The failed start did not re-point the gauge into the dead server,
  // so a later snapshot is safe.
  EXPECT_EQ(telemetry::collect().gauge("serve.queue.depth"), -7.0);
  telemetry::register_gauge("serve.queue.depth", [] { return 0.0; });
}
