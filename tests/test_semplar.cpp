// SEMPLAR core tests: config validation, the async engine (FIFO, lazy
// spawn, drain, errors), multi-stream striping correctness, and the
// double-open trick from §7.2.
#include <gtest/gtest.h>

#include <atomic>

#include "common/rng.hpp"
#include "core/semplar.hpp"
#include "simnet/timescale.hpp"
#include "srb/server.hpp"

namespace remio::semplar {
namespace {

// --- Config -----------------------------------------------------------------

TEST(Config, ValidateRejectsBadFields) {
  Config cfg;
  cfg.client_host = "node0";
  validate(cfg);  // baseline OK

  Config bad = cfg;
  bad.client_host.clear();
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = cfg;
  bad.streams_per_node = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = cfg;
  bad.streams_per_node = 100;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = cfg;
  bad.stripe_size = Config::kAutoStripe;  // legal: auto mode
  validate(bad);
  bad = cfg;
  bad.io_threads = -1;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = cfg;
  bad.queue_capacity = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(Config, LazySpawnConvention) {
  Config cfg;
  cfg.io_threads = 0;
  EXPECT_TRUE(cfg.lazy_spawn());
  EXPECT_EQ(cfg.effective_io_threads(), 1);
  cfg.io_threads = 4;
  EXPECT_FALSE(cfg.lazy_spawn());
  EXPECT_EQ(cfg.effective_io_threads(), 4);
}

// --- AsyncEngine ---------------------------------------------------------------

TEST(AsyncEngine, ExecutesFifoSingleThread) {
  AsyncEngine engine(1, 64);
  std::vector<int> order;
  std::mutex mu;
  std::vector<mpiio::IoRequest> reqs;
  for (int i = 0; i < 16; ++i)
    reqs.push_back(engine.submit([i, &order, &mu] {
      std::lock_guard lk(mu);
      order.push_back(i);
      return std::size_t{1};
    }));
  for (auto& r : reqs) EXPECT_EQ(r.wait(), 1u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(AsyncEngine, LazySpawnRunsOnFirstSubmit) {
  AsyncEngine engine(0, 8);  // io_threads == 0: lazy single worker
  auto req = engine.submit([] { return std::size_t{7}; });
  EXPECT_EQ(req.wait(), 7u);
}

TEST(AsyncEngine, InvalidConstructionRejected) {
  EXPECT_THROW(AsyncEngine(-1, 8), std::invalid_argument);
  EXPECT_THROW(AsyncEngine(257, 8), std::invalid_argument);
  EXPECT_THROW(AsyncEngine(1, 0), std::invalid_argument);
}

TEST(AsyncEngine, ThreadCountResolvesLazyConvention) {
  // thread_count() reports the *effective* worker count, matching
  // Config::effective_io_threads(): a lazy engine (io_threads == 0) is one
  // worker whether or not it has spawned yet.
  AsyncEngine lazy(0, 8);
  EXPECT_EQ(lazy.thread_count(), 1);
  EXPECT_TRUE(lazy.lazy());
  lazy.submit([] { return std::size_t{0}; }).wait();
  EXPECT_EQ(lazy.thread_count(), 1);  // unchanged by the spawn

  AsyncEngine eager(3, 8);
  EXPECT_EQ(eager.thread_count(), 3);
  EXPECT_FALSE(eager.lazy());

  Config cfg;
  cfg.client_host = "node0";
  cfg.io_threads = 0;
  AsyncEngine from_cfg(cfg.io_threads, cfg.queue_capacity);
  EXPECT_EQ(from_cfg.thread_count(), cfg.effective_io_threads());
}

TEST(AsyncEngine, MultiThreadConcurrency) {
  AsyncEngine engine(4, 64);
  std::atomic<int> inflight{0};
  std::atomic<int> peak{0};
  std::vector<mpiio::IoRequest> reqs;
  for (int i = 0; i < 8; ++i)
    reqs.push_back(engine.submit([&] {
      const int now = ++inflight;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      --inflight;
      return std::size_t{0};
    }));
  for (auto& r : reqs) r.wait();
  EXPECT_GE(peak.load(), 2);  // genuinely parallel consumers
}

TEST(AsyncEngine, TaskErrorSurfacesOnWait) {
  AsyncEngine engine(1, 8);
  auto req = engine.submit([]() -> std::size_t { throw mpiio::IoError("disk on fire"); });
  EXPECT_THROW(req.wait(), mpiio::IoError);
}

TEST(AsyncEngine, DrainWaitsForEverything) {
  AsyncEngine engine(2, 64);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i)
    engine.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++done;
      return std::size_t{0};
    });
  engine.drain();
  EXPECT_EQ(done.load(), 10);
}

TEST(AsyncEngine, ShutdownCompletesQueuedWork) {
  std::atomic<int> done{0};
  {
    AsyncEngine engine(1, 64);
    for (int i = 0; i < 5; ++i)
      engine.submit([&] {
        ++done;
        return std::size_t{0};
      });
  }  // destructor drains
  EXPECT_EQ(done.load(), 5);
}

TEST(AsyncEngine, SubmitAfterShutdownFails) {
  AsyncEngine engine(1, 8);
  engine.shutdown();
  auto req = engine.submit([] { return std::size_t{0}; });
  EXPECT_THROW(req.wait(), mpiio::IoError);
}

TEST(AsyncEngine, LazyEngineSubmitAfterShutdownFailsAndSpawnsNothing) {
  // Regression: shutting down a lazy engine that was never used leaves the
  // spawn flag unconsumed. A later submit()'s ensure_spawned() must not
  // spawn workers then — nobody joins them, and destroying a Worker whose
  // std::thread is still joinable calls std::terminate. shutdown() consumes
  // the flag, so the submit fails with the shutdown error and the dtor has
  // nothing left to reap.
  AsyncEngine engine(0, 8);  // lazy: no worker until the first async call
  engine.shutdown();
  auto req = engine.submit([] { return std::size_t{1}; });
  EXPECT_THROW(req.wait(), mpiio::IoError);
  EXPECT_FALSE(engine.try_submit([] { return std::size_t{0}; }));
  mpiio::IoRequest sup = engine.submit_supervised([] { return std::size_t{0}; });
  EXPECT_THROW(sup.wait(), mpiio::IoError);
}  // engine dtor: must not terminate on an unjoined worker

TEST(AsyncEngine, StatsTrackTasksAndQueue) {
  Stats stats;
  AsyncEngine engine(1, 64, &stats);
  std::vector<mpiio::IoRequest> reqs;
  for (int i = 0; i < 6; ++i)
    reqs.push_back(engine.submit([] { return std::size_t{0}; }));
  for (auto& r : reqs) r.wait();
  const auto snap = stats.snapshot();
  EXPECT_EQ(snap.async_tasks, 6u);
  EXPECT_GE(snap.queue_peak, 1u);
}

// --- SemplarFile over a live broker -----------------------------------------------

class SemplarFileTest : public ::testing::Test {
 protected:
  SemplarFileTest() : scale_(2000.0) {
    simnet::HostSpec server_host;
    server_host.name = "orion";
    fabric_.add_host(server_host);
    simnet::HostSpec node;
    node.name = "node0";
    node.latency_to_core = 0.002;
    fabric_.add_host(node);
    server_ = std::make_unique<srb::SrbServer>(fabric_, srb::ServerConfig{});
    server_->start();
  }

  Config config(int streams, int io_threads = 0) {
    Config cfg;
    cfg.client_host = "node0";
    cfg.streams_per_node = streams;
    cfg.io_threads = io_threads;
    cfg.stripe_size = 64 * 1024;
    cfg.conn.tcp_window = 0;  // unshaped for functional tests
    return cfg;
  }

  simnet::ScopedTimeScale scale_;
  simnet::Fabric fabric_;
  std::unique_ptr<srb::SrbServer> server_;
};

TEST_F(SemplarFileTest, SyncWriteReadViaDriver) {
  SrbfsDriver driver(fabric_, config(1));
  mpiio::File f(driver, "/data/obj",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
  const Bytes data = to_bytes("semplar sync path");
  EXPECT_EQ(f.write_at(0, ByteSpan(data.data(), data.size())), data.size());
  Bytes back(data.size());
  EXPECT_EQ(f.read_at(0, MutByteSpan(back.data(), back.size())), data.size());
  EXPECT_EQ(back, data);
  EXPECT_EQ(f.size(), data.size());
  f.close();
  EXPECT_TRUE(driver.exists("/data/obj"));
  driver.remove("/data/obj");
  EXPECT_FALSE(driver.exists("/data/obj"));
}

TEST_F(SemplarFileTest, AsyncSingleStream) {
  SrbfsDriver driver(fabric_, config(1));
  mpiio::File f(driver, "/data/a1",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
  remio::Rng rng(2);
  const Bytes data = rng.bytes(200 * 1024 + 13);
  mpiio::IoRequest w = f.iwrite_at(0, ByteSpan(data.data(), data.size()));
  EXPECT_EQ(MPIO_Wait(w), data.size());
  EXPECT_TRUE(MPIO_Test(w));

  Bytes back(data.size());
  mpiio::IoRequest r = f.iread_at(0, MutByteSpan(back.data(), back.size()));
  EXPECT_EQ(r.wait(), data.size());
  EXPECT_EQ(back, data);
  f.close();
}

class SemplarStripingTest
    : public SemplarFileTest,
      public ::testing::WithParamInterface<std::tuple<int, int, std::size_t>> {};

TEST_P(SemplarStripingTest, AsyncStripedRoundTrip) {
  const auto& [streams, io_threads, size] = GetParam();
  SrbfsDriver driver(fabric_, config(streams, io_threads));
  mpiio::File f(driver, "/data/striped",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate |
                    mpiio::kModeTrunc);
  remio::Rng rng(static_cast<std::uint64_t>(size) + streams);
  const Bytes data = rng.bytes(size);
  if (!data.empty()) {
    mpiio::IoRequest w = f.iwrite_at(0, ByteSpan(data.data(), data.size()));
    EXPECT_EQ(w.wait(), data.size());
  }
  Bytes back(size);
  if (!back.empty()) {
    mpiio::IoRequest r = f.iread_at(0, MutByteSpan(back.data(), back.size()));
    EXPECT_EQ(r.wait(), size);
  }
  EXPECT_EQ(back, data);
  f.close();
}

INSTANTIATE_TEST_SUITE_P(
    StreamsThreadsSizes, SemplarStripingTest,
    ::testing::Values(
        // stripe_size is 64 KiB: cover below/at/above stripe boundaries,
        // uneven tails, stream counts 1/2/4, threads fewer/equal to streams.
        std::make_tuple(1, 1, std::size_t{1}),
        std::make_tuple(2, 2, std::size_t{1}),
        std::make_tuple(2, 2, std::size_t{64 * 1024}),
        std::make_tuple(2, 2, std::size_t{64 * 1024 + 1}),
        std::make_tuple(2, 1, std::size_t{256 * 1024 + 7}),
        std::make_tuple(2, 2, std::size_t{256 * 1024 + 7}),
        std::make_tuple(4, 4, std::size_t{1024 * 1024 + 99}),
        std::make_tuple(4, 2, std::size_t{500 * 1024}),
        std::make_tuple(3, 3, std::size_t{193 * 1024})),
    [](const auto& info) {
      return "s" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param)) + "_n" +
             std::to_string(std::get<2>(info.param));
    });

TEST_F(SemplarFileTest, ZeroByteAsyncOps) {
  SrbfsDriver driver(fabric_, config(2, 2));
  mpiio::File f(driver, "/data/zero",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
  mpiio::IoRequest w = f.iwrite_at(0, ByteSpan());
  EXPECT_EQ(w.wait(), 0u);
  mpiio::IoRequest r = f.iread_at(0, MutByteSpan());
  EXPECT_EQ(r.wait(), 0u);
  f.close();
}

TEST_F(SemplarFileTest, DoubleOpenSameFileTwoConnections) {
  // §7.2: calling MPI_File_open twice on the same file yields two
  // descriptors with independent connections that can transfer in parallel.
  SrbfsDriver driver(fabric_, config(1));
  mpiio::File f1(driver, "/data/double",
                 mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
  mpiio::File f2(driver, "/data/double", mpiio::kModeRead | mpiio::kModeWrite);

  const std::size_t half = 96 * 1024;
  remio::Rng rng(3);
  const Bytes data = rng.bytes(2 * half);
  mpiio::IoRequest w1 = f1.iwrite_at(0, ByteSpan(data.data(), half));
  mpiio::IoRequest w2 = f2.iwrite_at(half, ByteSpan(data.data() + half, half));
  w1.wait();
  w2.wait();

  Bytes back(2 * half);
  EXPECT_EQ(f1.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
  EXPECT_EQ(back, data);
  f1.close();
  f2.close();
}

TEST_F(SemplarFileTest, ReadShortAtEofStriped) {
  SrbfsDriver driver(fabric_, config(2, 2));
  mpiio::File f(driver, "/data/short",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
  const Bytes data(10 * 1024, 'x');
  f.write_at(0, ByteSpan(data.data(), data.size()));
  Bytes big(1 << 20);
  mpiio::IoRequest r = f.iread_at(0, MutByteSpan(big.data(), big.size()));
  EXPECT_EQ(r.wait(), data.size());
  f.close();
}

TEST_F(SemplarFileTest, StatsAccumulate) {
  SrbfsDriver driver(fabric_, config(2, 2));
  auto handle = driver.open("/data/stats", mpiio::kModeRead | mpiio::kModeWrite |
                                               mpiio::kModeCreate);
  auto* sf = dynamic_cast<SemplarFile*>(handle.get());
  ASSERT_NE(sf, nullptr);
  const Bytes data(300 * 1024, 'y');
  sf->iwrite_at(0, ByteSpan(data.data(), data.size())).wait();
  sf->write_at(300 * 1024, ByteSpan(data.data(), 1024));
  const auto snap = sf->stats().snapshot();
  EXPECT_EQ(snap.bytes_written, 300u * 1024u + 1024u);
  EXPECT_GE(snap.async_tasks, 2u);  // striped across 2 streams
  EXPECT_EQ(snap.sync_calls, 1u);
  EXPECT_EQ(sf->streams().count(), 2);
}

TEST_F(SemplarFileTest, ErrorPropagatesFromStripedWrite) {
  SrbfsDriver driver(fabric_, config(2, 2));
  mpiio::File f(driver, "/data/err",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate);
  server_->stop();  // break the connections mid-flight
  const Bytes data(512 * 1024, 'e');
  mpiio::IoRequest w = f.iwrite_at(0, ByteSpan(data.data(), data.size()));
  EXPECT_ANY_THROW(w.wait());
}

}  // namespace
}  // namespace remio::semplar
