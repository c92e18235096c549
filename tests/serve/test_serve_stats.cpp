// Live introspection (serve/stats.hpp): kStats v2 round-trip and
// malformed-frame rejection, the pinned regression that every
// serve.lat.* stage histogram records exactly once per answered
// request, a quiesced poll that reconciles exactly with the in-process
// registries, the das_ingest-style StatsListener, and a concurrency
// stress of kStats polls against a server under load (runs under the
// TSan leg of check.sh).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dassa/common/counters.hpp"
#include "dassa/common/error.hpp"
#include "dassa/common/metrics.hpp"
#include "dassa/common/telemetry.hpp"
#include "dassa/common/wire.hpp"
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
  explicit ServedArchive(const TmpDir& dir) {
    const das::SynthDas synth =
        das::SynthDas::fig1b_scene(16, 50.0, /*seed=*/20260809);
    das::AcquisitionSpec spec;
    spec.dir = dir.file("data");
    spec.start = das::Timestamp::parse("170728224510");
    spec.file_count = 4;
    spec.seconds_per_file = 4.0;
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

/// A synthetic snapshot exercising every wire-format section.
Snapshot sample_snapshot() {
  Snapshot s;
  s.wall_ns = 123456789;
  s.counters["io.read_calls"] = 42;
  s.counters["serve.requests"] = 7;
  s.counters["zero.counter"] = 0;
  s.gauges["ingest.queue.depth"] = 3.0;
  s.gauges["negative.gauge"] = -1.5;
  s.res.rss_bytes = 1 << 20;
  s.res.peak_rss_bytes = 3 << 20;
  s.res.user_cpu_ns = 7;
  HistogramSnapshot h;
  h.buckets[0] = 2;
  h.buckets[17] = 5;
  h.buckets[63] = 1;
  h.count = 8;  // the bucket sum, as every producer derives it
  h.total_ns = 90000;
  s.hists["serve.request"] = h;
  s.hists["empty.hist"] = HistogramSnapshot{};
  return s;
}

std::uint64_t hist_count(const char* name) {
  const auto snap = global_metrics().snapshot();
  const auto it = snap.find(name);
  return it == snap.end() ? 0 : it->second.count;
}

}  // namespace

TEST(ServeStats, RoundTripPreservesEverySection) {
  const Snapshot s = sample_snapshot();
  const Snapshot back = serve::decode_stats(serve::encode_stats(s));
  EXPECT_EQ(back, s);
}

TEST(ServeStats, EmptySnapshotRoundTrips) {
  Snapshot s;
  s.wall_ns = 1;
  EXPECT_EQ(serve::decode_stats(serve::encode_stats(s)), s);
}

TEST(ServeStats, RequestFrameRoundTrips) {
  const auto frame = serve::encode_stats_request();
  EXPECT_NO_THROW(serve::decode_stats_request(frame));
  // Trailing byte after the type: rejected, not ignored.
  auto padded = frame;
  padded.push_back(std::byte{0});
  EXPECT_THROW(serve::decode_stats_request(padded), FormatError);
  EXPECT_THROW(serve::decode_stats_request({}), FormatError);
}

TEST(ServeStats, EveryTruncationIsRejected) {
  const auto frame = serve::encode_stats(sample_snapshot());
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const std::vector<std::byte> cut(frame.begin(),
                                     frame.begin() + static_cast<long>(len));
    EXPECT_THROW(serve::decode_stats(cut), FormatError) << "len=" << len;
  }
  auto padded = frame;
  padded.push_back(std::byte{0});
  EXPECT_THROW(serve::decode_stats(padded), FormatError) << "trailing byte";
}

TEST(ServeStats, ForgedFramesAreRejected) {
  // Wrong type byte.
  auto frame = serve::encode_stats(sample_snapshot());
  frame[0] = std::byte{99};
  EXPECT_THROW(serve::decode_stats(frame), FormatError);

  // Unsupported version (bytes 1..4, little-endian u32).
  frame = serve::encode_stats(sample_snapshot());
  frame[1] = std::byte{0xff};
  EXPECT_THROW(serve::decode_stats(frame), FormatError);
  frame[1] = std::byte{1};  // a version 1 frame is not read either
  EXPECT_THROW(serve::decode_stats(frame), FormatError);

  // Out-of-order section names: swap the two counter names' first
  // bytes so they decode out of ascending order.
  Snapshot s;
  s.counters["aaa"] = 1;
  s.counters["bbb"] = 2;
  frame = serve::encode_stats(s);
  std::vector<std::byte> swapped = frame;
  for (std::size_t i = 0; i + 3 <= swapped.size(); ++i) {
    if (std::memcmp(swapped.data() + i, "aaa", 3) == 0) {
      std::memcpy(swapped.data() + i, "ccc", 3);
      break;
    }
  }
  EXPECT_THROW(serve::decode_stats(swapped), FormatError);

  // Duplicate names (equal is not strictly increasing).
  swapped = frame;
  for (std::size_t i = 0; i + 3 <= swapped.size(); ++i) {
    if (std::memcmp(swapped.data() + i, "bbb", 3) == 0) {
      std::memcpy(swapped.data() + i, "aaa", 3);
      break;
    }
  }
  EXPECT_THROW(serve::decode_stats(swapped), FormatError);

  // Hand-built v2 frames: type byte, then the snapshot header (version,
  // wall clock, four resource varints) and whatever sections follow.
  const auto forged = [](auto&& sections) {
    wire::Encoder enc;
    enc.u8(static_cast<std::uint8_t>(serve::MsgType::kStatsOk));
    enc.u32(kSnapshotVersion);
    for (int i = 0; i < 5; ++i) enc.varint(0);
    sections(enc);
    return enc.bytes();
  };
  const auto one_hist = [&](std::uint8_t nonzero, std::uint8_t index0,
                            std::uint64_t value0, std::uint8_t index1,
                            std::uint64_t value1) {
    return forged([&](wire::Encoder& enc) {
      enc.varint(0);  // counters
      enc.varint(0);  // gauges
      enc.varint(1);  // histograms
      enc.varint(1);
      enc.raw("h", 1);
      enc.varint(100);  // total_ns
      enc.u8(nonzero);
      enc.u8(index0);
      enc.varint(value0);
      if (nonzero > 1) {
        enc.u8(index1);
        enc.varint(value1);
      }
    });
  };
  // The well-formed twin decodes; each forgery below differs in one
  // field.
  EXPECT_EQ(serve::decode_stats(one_hist(2, 3, 4, 9, 1)).hists.at("h").count,
            5u);
  // Bucket sum past 2^64: the derived count would wrap.
  EXPECT_THROW(serve::decode_stats(one_hist(2, 3, ~std::uint64_t{0}, 9, 1)),
               FormatError);
  // A zero entry contradicts the sparse encoding.
  EXPECT_THROW(serve::decode_stats(one_hist(2, 3, 4, 9, 0)), FormatError);
  // Bucket indexes out of order, repeated, or past the 64 bins.
  EXPECT_THROW(serve::decode_stats(one_hist(2, 9, 4, 3, 1)), FormatError);
  EXPECT_THROW(serve::decode_stats(one_hist(2, 3, 4, 3, 1)), FormatError);
  EXPECT_THROW(serve::decode_stats(one_hist(1, 64, 4, 0, 0)), FormatError);
  // More bucket entries than bins.
  EXPECT_THROW(serve::decode_stats(one_hist(65, 3, 4, 9, 1)), FormatError);
  // A non-canonical varint (a redundant zero group).
  EXPECT_THROW(serve::decode_stats(forged([](wire::Encoder& enc) {
                 enc.u8(0x80);
                 enc.u8(0x00);
                 enc.varint(0);
                 enc.varint(0);
               })),
               FormatError);

  // Entry-count ceiling enforced before allocation: a counters section
  // claiming 2^31 entries.
  EXPECT_THROW(serve::decode_stats(forged([](wire::Encoder& enc) {
                 enc.varint(std::uint64_t{1} << 31);
               })),
               FormatError);
  // An empty or oversized metric name.
  EXPECT_THROW(serve::decode_stats(forged([](wire::Encoder& enc) {
                 enc.varint(1);
                 enc.varint(0);
                 enc.varint(7);
                 enc.varint(0);
                 enc.varint(0);
               })),
               FormatError);
  EXPECT_THROW(serve::decode_stats(forged([](wire::Encoder& enc) {
                 enc.varint(1);
                 enc.varint(kMaxSnapshotNameBytes + 1);
                 const std::string name(kMaxSnapshotNameBytes + 1, 'n');
                 enc.raw(name.data(), name.size());
                 enc.varint(7);
                 enc.varint(0);
                 enc.varint(0);
               })),
               FormatError);
}

TEST(ServeStats, TornSnapshotIsReconciledBeforeEncoding) {
  // A histogram's count is its bucket sum by construction: the frame
  // carries no count, so a snapshot whose count disagrees with its
  // buckets (what a separate count atomic used to produce under
  // concurrent record_ns()) cannot reach the wire -- the decoder
  // rebuilds the count from the buckets.
  Snapshot torn;
  HistogramSnapshot ahead;
  ahead.buckets[5] = 3;
  ahead.count = 4;
  ahead.total_ns = 100;
  torn.hists["count.ahead"] = ahead;
  const Snapshot back = serve::decode_stats(serve::encode_stats(torn));
  EXPECT_EQ(back.hists.at("count.ahead").count, 3u);

  // A live process snapshot taken while recorders hammer a histogram
  // always encodes to a frame the strict decoder accepts, with the
  // count equal to the bucket sum.
  std::atomic<bool> stop{false};
  std::vector<std::thread> recorders;
  for (int t = 0; t < 2; ++t) {
    recorders.emplace_back([&stop] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        global_metrics().histogram("serve_stats.torn").record_ns(++i % 4096);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    const Snapshot live =
        serve::decode_stats(serve::encode_stats(telemetry::collect()));
    const auto it = live.hists.find("serve_stats.torn");
    if (it == live.hists.end()) continue;
    std::uint64_t sum = 0;
    for (const std::uint64_t b : it->second.buckets) sum += b;
    EXPECT_EQ(it->second.count, sum);
  }
  stop.store(true);
  for (auto& t : recorders) t.join();
}

TEST(ServeStats, ListenerStartFailureLeavesDestructorSafe) {
  // start() marks started_ before binding the socket, so a bad path
  // throws with no listener and no accept thread; the destructor's
  // stop() must survive that half-started state (das_ingest unwinds
  // through exactly this on a bad --stats-socket).
  serve::StatsListener listener("/nonexistent-dassa-dir/stats.sock");
  EXPECT_THROW(listener.start(), Error);
}

TEST(ServeStats, ListenerReapsFinishedConnections) {
  TmpDir dir("serve_stats_reap");
  serve::StatsListener listener(dir.file("stats.sock"));
  listener.start();

  // Short-lived pollers (das_top --once, scrapes): each connects,
  // polls once, and hangs up before the next arrives. Reaping on
  // accept must keep the tracked-slot count bounded instead of
  // accumulating one joinable thread per poller until stop().
  constexpr std::size_t kPollers = 32;
  for (std::size_t i = 0; i < kPollers; ++i) {
    serve::Connection conn = serve::connect_local(listener.path());
    EXPECT_TRUE(serve::fetch_stats(conn).counters.contains(
        counters::kStatsRequests));
  }
  EXPECT_LT(listener.tracked_connections(), kPollers / 2);
  listener.stop();
  EXPECT_EQ(listener.tracked_connections(), 0u);
}

TEST(ServeStats, LiveServerAnswersStatsInline) {
  TmpDir dir("serve_stats_live");
  ServedArchive archive(dir);
  serve::Server server(base_config(dir, archive));
  server.start();

  serve::Connection poll = serve::connect_local(server.config().socket_path);
  const Snapshot before = serve::fetch_stats(poll);
#if defined(__linux__)
  EXPECT_GT(before.res.peak_rss_bytes, 0u);  // resources ride along
#endif
  EXPECT_TRUE(before.counters.contains(counters::kStatsRequests));
  // The admission-queue depth gauge is registered by the server, not
  // the tool, so every kStats client sees it.
  EXPECT_TRUE(before.gauges.contains("serve.queue.depth"));

  const Shape2D shape = archive.reference.shape();
  serve::Client client(server.config().socket_path);
  const Slab2D slab{0, 0, shape.rows, shape.cols / 2};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(client.read_slab(slab), archive.reference.read_slab(slab));
  }

  // The worker charges serve.responses and the end-to-end histogram
  // just AFTER the reply frame hits the socket, so a fast poller can
  // legitimately sample before the 5th record lands. Poll until the
  // accounting catches up (bounded), then pin the exact totals.
  const auto request_delta = [&](const Snapshot& s) {
    const auto& h_after = s.hists.at(serve::lat::kRequest);
    const auto it = before.hists.find(serve::lat::kRequest);
    return it == before.hists.end() ? h_after : h_after.diff(it->second);
  };
  Snapshot after = serve::fetch_stats(poll);
  const auto responses = [&before](const Snapshot& s) {
    return s.counter(counters::kServeResponses) -
           before.counter(counters::kServeResponses);
  };
  for (int i = 0;
       i < 200 && (responses(after) < 5u || request_delta(after).count < 5u);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    after = serve::fetch_stats(poll);
  }
  EXPECT_GE(after.wall_ns, before.wall_ns);
  EXPECT_EQ(responses(after), 5u);
  // Stats polls are counted but are NOT admitted requests: the
  // admission pipeline's accounting must not move on their behalf.
  EXPECT_GE(after.counter(counters::kStatsRequests),
            before.counter(counters::kStatsRequests) + 1);

  // Interval view: the end-to-end histogram diff covers exactly the 5
  // requests between the polls.
  EXPECT_EQ(request_delta(after).count, 5u);
  server.stop();
}

TEST(ServeStats, StageHistogramCountsEqualEndToEndCount) {
  TmpDir dir("serve_stats_stages");
  ServedArchive archive(dir);
  const std::uint64_t base_request = hist_count(serve::lat::kRequest);
  const std::uint64_t base_queue = hist_count(serve::lat::kQueueWait);
  const std::uint64_t base_coalesce = hist_count(serve::lat::kCoalesce);
  const std::uint64_t base_decode = hist_count(serve::lat::kDecode);
  const std::uint64_t base_write = hist_count(serve::lat::kWrite);

  serve::Server server(base_config(dir, archive));
  server.start();
  const Shape2D shape = archive.reference.shape();
  constexpr std::uint64_t kRequests = 12;
  serve::Client client(server.config().socket_path);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const Slab2D slab{0, (i * 7) % (shape.cols / 2), shape.rows, 16};
    EXPECT_EQ(client.read_slab(slab), archive.reference.read_slab(slab));
  }
  server.stop();

  // The pinned invariant: request tracing records every stage exactly
  // once per answered request -- no stage is skipped, none double
  // counts, so per-stage quantiles are quantiles over the same
  // population the end-to-end histogram describes.
  EXPECT_EQ(hist_count(serve::lat::kRequest) - base_request, kRequests);
  EXPECT_EQ(hist_count(serve::lat::kQueueWait) - base_queue, kRequests);
  EXPECT_EQ(hist_count(serve::lat::kCoalesce) - base_coalesce, kRequests);
  EXPECT_EQ(hist_count(serve::lat::kDecode) - base_decode, kRequests);
  EXPECT_EQ(hist_count(serve::lat::kWrite) - base_write, kRequests);
}

TEST(ServeStats, QuiescedPollReconcilesWithRegistries) {
  // The das_top attach scenario: once the server is quiet, a kStats
  // poll agrees exactly -- counter for counter, bucket for bucket --
  // with the in-process registries the end-of-run telemetry export
  // serializes.
  TmpDir dir("serve_stats_reconcile");
  ServedArchive archive(dir);
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 4;
  constexpr std::uint64_t kRequests = kClients * kPerClient;
  const std::array<const char*, 5> stages = {
      serve::lat::kRequest, serve::lat::kQueueWait, serve::lat::kCoalesce,
      serve::lat::kDecode, serve::lat::kWrite};
  std::array<std::uint64_t, 5> base{};
  for (std::size_t i = 0; i < stages.size(); ++i) {
    base[i] = hist_count(stages[i]);
  }

  serve::Server server(base_config(dir, archive));
  server.start();
  // The accept loop counts a connection just after starting its reader,
  // so a poller's first answer may not count the poller itself. Attach
  // (and poll once) before the load, as das_top attaches to a live
  // daemon, so that the count has landed by the time the load is done.
  serve::Connection poller =
      serve::connect_local(server.config().socket_path);
  (void)serve::fetch_stats(poller);

  const Shape2D shape = archive.reference.shape();
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::Client client(server.config().socket_path);
      for (std::size_t r = 0; r < kPerClient; ++r) {
        const std::size_t off = ((c + r * kClients) * 16) % (shape.cols / 2);
        const Slab2D slab{0, off, shape.rows, shape.cols / 4};
        if (client.read_slab(slab) != archive.reference.read_slab(slab)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0u);

  // Names whose polled value disagrees with the in-process registries.
  // stats.* moves with the polling itself, and the socket layer charges
  // the byte counters for a stats reply after its snapshot was taken.
  const auto disagreements = [&](const Snapshot& polled) {
    std::vector<std::string> names;
    const auto local_hists = global_metrics().snapshot();
    for (const char* stage : stages) {
      const auto p = polled.hists.find(stage);
      const auto l = local_hists.find(stage);
      if (p == polled.hists.end() || l == local_hists.end() ||
          !(p->second == l->second)) {
        names.emplace_back(stage);
      }
    }
    for (const auto& [name, value] : global_counters().snapshot()) {
      if (name.starts_with("stats.") || name == counters::kServeBytesReceived ||
          name == counters::kServeBytesSent) {
        continue;
      }
      if (!polled.counters.contains(name) || polled.counter(name) != value) {
        names.push_back(name);
      }
    }
    return names;
  };
  const auto landed = [&](const Snapshot& polled) {
    for (std::size_t i = 0; i < stages.size(); ++i) {
      const auto it = polled.hists.find(stages[i]);
      if (it == polled.hists.end() ||
          it->second.count - base[i] < kRequests) {
        return false;
      }
    }
    return true;
  };
  // A worker records a request's histograms just after writing its
  // reply, so poll until the server is quiet.
  Snapshot polled = serve::fetch_stats(poller);
  for (int spin = 0;
       spin < 2000 && !(landed(polled) && disagreements(polled).empty());
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    polled = serve::fetch_stats(poller);
  }
  server.stop();

  EXPECT_EQ(disagreements(polled), std::vector<std::string>{});
  for (std::size_t i = 0; i < stages.size(); ++i) {
    ASSERT_TRUE(polled.hists.contains(stages[i])) << stages[i];
    EXPECT_EQ(polled.hists.at(stages[i]).count - base[i], kRequests)
        << stages[i];
  }
}

TEST(ServeStats, TracingOffKeepsStageHistogramsQuiet) {
  TmpDir dir("serve_stats_off");
  ServedArchive archive(dir);
  const std::uint64_t base_request = hist_count(serve::lat::kRequest);
  const std::uint64_t base_queue = hist_count(serve::lat::kQueueWait);

  serve::ServeConfig cfg = base_config(dir, archive);
  cfg.request_tracing = false;
  serve::Server server(cfg);
  server.start();
  const Shape2D shape = archive.reference.shape();
  serve::Client client(cfg.socket_path);
  const Slab2D slab{0, 0, shape.rows, 16};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(client.read_slab(slab), archive.reference.read_slab(slab));
  }
  server.stop();

  // End-to-end accounting survives with tracing off; the stage
  // histograms stay untouched.
  EXPECT_EQ(hist_count(serve::lat::kRequest) - base_request, 4u);
  EXPECT_EQ(hist_count(serve::lat::kQueueWait) - base_queue, 0u);
}

TEST(ServeStats, SlowRequestThresholdChargesCounter) {
  TmpDir dir("serve_stats_slow");
  ServedArchive archive(dir);
  const std::uint64_t base_slow =
      global_counters().get(counters::kServeSlowRequests);

  serve::ServeConfig cfg = base_config(dir, archive);
  cfg.slow_ns = 1;  // every request is over this threshold
  serve::Server server(cfg);
  server.start();
  const Shape2D shape = archive.reference.shape();
  serve::Client client(cfg.socket_path);
  const Slab2D slab{0, 0, shape.rows, 16};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.read_slab(slab), archive.reference.read_slab(slab));
  }
  server.stop();
  EXPECT_EQ(global_counters().get(counters::kServeSlowRequests) - base_slow,
            3u);
}

TEST(ServeStats, StatsListenerServesAndRefuses) {
  TmpDir dir("serve_stats_listener");
  serve::StatsListener listener(dir.file("stats.sock"));
  listener.start();

  serve::Connection conn = serve::connect_local(listener.path());
  const std::uint64_t base_bad =
      global_counters().get(counters::kStatsBadFrames);
  const Snapshot s = serve::fetch_stats(conn);
  EXPECT_TRUE(s.counters.contains(counters::kStatsRequests));

  // Garbage gets a typed kBadRequest refusal, and the connection stays
  // serviceable for the valid poll that follows.
  conn.send_frame(std::vector<std::byte>(5, std::byte{0xee}));
  const auto reply = conn.recv_frame();
  ASSERT_TRUE(reply.has_value());
  const serve::ReadResponse refusal = serve::decode_response(*reply);
  EXPECT_FALSE(refusal.ok);
  EXPECT_EQ(refusal.code, serve::ErrorCode::kBadRequest);
  EXPECT_GE(global_counters().get(counters::kStatsBadFrames), base_bad + 1);
  EXPECT_NO_THROW((void)serve::fetch_stats(conn));

  listener.stop();
  listener.stop();  // idempotent
}

TEST(ServeStats, ConcurrentStatsPollsDuringLoad) {
  TmpDir dir("serve_stats_stress");
  ServedArchive archive(dir);
  serve::Server server(base_config(dir, archive));
  server.start();
  const Shape2D shape = archive.reference.shape();

  std::atomic<std::size_t> failures{0};
  std::atomic<bool> done{false};

  // Load: 4 clients reading overlapping windows.
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      serve::Client client(server.config().socket_path);
      for (int r = 0; r < 8; ++r) {
        const std::size_t off = ((t * 11 + static_cast<std::size_t>(r) * 5) %
                                 (shape.cols / 2));
        const Slab2D slab{0, off, shape.rows, 32};
        if (client.read_slab(slab) != archive.reference.read_slab(slab)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // Monitors: 2 pollers hammering kStats on their own connections
  // while the workers mutate every registry the snapshot reads.
  for (int m = 0; m < 2; ++m) {
    threads.emplace_back([&] {
      serve::Connection conn =
          serve::connect_local(server.config().socket_path);
      std::uint64_t last_responses = 0;
      while (!done.load()) {
        Snapshot s;
        try {
          s = serve::fetch_stats(conn);
        } catch (const Error&) {
          failures.fetch_add(1);
          return;
        }
        // Monotonicity across one poller's consecutive snapshots.
        const std::uint64_t responses = s.counter(counters::kServeResponses);
        if (responses < last_responses) failures.fetch_add(1);
        last_responses = responses;
      }
    });
  }
  for (std::size_t t = 0; t < 4; ++t) threads[t].join();
  done.store(true);
  for (std::size_t t = 4; t < threads.size(); ++t) threads[t].join();
  server.stop();
  EXPECT_EQ(failures.load(), 0u);
}
