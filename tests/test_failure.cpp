// Failure-injection tests: broker death mid-operation, engine behaviour
// after task failures, corrupted compressed objects, and rank crashes —
// errors must surface on the right call and never hang or crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "chaos.hpp"
#include "common/rng.hpp"
#include "core/semplar.hpp"
#include "minimpi/runtime.hpp"
#include "simnet/faults.hpp"
#include "simnet/timescale.hpp"
#include "srb/server.hpp"

namespace remio {
namespace {

class FailureTest : public ::testing::Test {
 protected:
  FailureTest() : scale_(2000.0) {
    simnet::HostSpec server_host;
    server_host.name = "orion";
    fabric_.add_host(server_host);
    simnet::HostSpec node;
    node.name = "node0";
    fabric_.add_host(node);
    server_ = std::make_unique<srb::SrbServer>(fabric_, srb::ServerConfig{});
    server_->start();
  }

  semplar::Config config(int streams = 1) {
    semplar::Config cfg;
    cfg.client_host = "node0";
    cfg.streams_per_node = streams;
    cfg.io_threads = streams;
    cfg.conn.tcp_window = 0;
    return cfg;
  }

  simnet::ScopedTimeScale scale_;
  simnet::Fabric fabric_;
  std::unique_ptr<srb::SrbServer> server_;
};

TEST_F(FailureTest, SyncWriteFailsAfterServerStop) {
  semplar::SrbfsDriver driver(fabric_, config());
  mpiio::File f(driver, "/f/a", mpiio::kModeRead | mpiio::kModeWrite |
                                    mpiio::kModeCreate);
  server_->stop();
  const Bytes data(64 * 1024, 'x');
  EXPECT_ANY_THROW(f.write_at(0, ByteSpan(data.data(), data.size())));
}

TEST_F(FailureTest, ConnectRefusedAfterServerStop) {
  server_->stop();
  EXPECT_ANY_THROW(semplar::SrbfsDriver(fabric_, config())
                       .open("/f/b", mpiio::kModeWrite | mpiio::kModeCreate));
}

TEST_F(FailureTest, AsyncErrorDeliveredOnWaitNotSubmit) {
  semplar::SrbfsDriver driver(fabric_, config());
  mpiio::File f(driver, "/f/c", mpiio::kModeRead | mpiio::kModeWrite |
                                    mpiio::kModeCreate);
  server_->stop();
  const Bytes data(64 * 1024, 'y');
  // Submission itself must not throw; the failure belongs to the request.
  mpiio::IoRequest req = f.iwrite_at(0, ByteSpan(data.data(), data.size()));
  EXPECT_ANY_THROW(req.wait());
}

TEST_F(FailureTest, EngineKeepsServingAfterFailedTask) {
  semplar::AsyncEngine engine(1, 16);
  auto bad = engine.submit([]() -> std::size_t { throw mpiio::IoError("boom"); });
  auto good = engine.submit([] { return std::size_t{11}; });
  EXPECT_THROW(bad.wait(), mpiio::IoError);
  EXPECT_EQ(good.wait(), 11u);  // the I/O thread survived the exception
}

TEST_F(FailureTest, StripedWriteOneStreamDiesOthersReport) {
  // Kill the broker mid-striped-write: the master request must fail (not
  // hang), and subsequent waits stay failed.
  semplar::Config cfg = config(2);
  cfg.stripe_size = 64 * 1024;
  semplar::SrbfsDriver driver(fabric_, cfg);
  mpiio::File f(driver, "/f/d", mpiio::kModeRead | mpiio::kModeWrite |
                                    mpiio::kModeCreate);
  Rng rng(9);
  const Bytes data = rng.bytes(1 << 20);
  server_->stop();
  mpiio::IoRequest req = f.iwrite_at(0, ByteSpan(data.data(), data.size()));
  EXPECT_ANY_THROW(req.wait());
  EXPECT_TRUE(req.test());
}

TEST_F(FailureTest, CorruptedCompressedObjectDetectedOnRead) {
  semplar::SrbfsDriver driver(fabric_, config());
  auto handle = driver.open("/f/z", mpiio::kModeRead | mpiio::kModeWrite |
                                        mpiio::kModeCreate);
  {
    semplar::CompressPipe pipe(*handle, compress::codec_by_name("lzmini"));
    const Bytes block(100 * 1024, 'c');
    pipe.write(ByteSpan(block.data(), block.size()));
    pipe.finish();
  }
  // Corrupt one byte of the stored frame payload via a direct client.
  {
    srb::SrbClient client(fabric_, "node0", "orion", 5544);
    const auto fd = client.open("/f/z", srb::kRead | srb::kWrite);
    const Bytes evil = to_bytes("X");
    client.pwrite(fd, ByteSpan(evil.data(), evil.size()), 40);
    client.close(fd);
  }
  EXPECT_THROW(semplar::read_all_decompressed(*handle), compress::CodecError);
}

TEST_F(FailureTest, TruncatedCompressedObjectDetected) {
  semplar::SrbfsDriver driver(fabric_, config());
  auto handle = driver.open("/f/t", mpiio::kModeRead | mpiio::kModeWrite |
                                        mpiio::kModeCreate);
  {
    semplar::CompressPipe pipe(*handle, compress::codec_by_name("lzmini"));
    const Bytes block(50 * 1024, 't');
    pipe.write(ByteSpan(block.data(), block.size()));
    pipe.finish();
  }
  // Reopen truncated: decode must reject, not crash.
  {
    srb::SrbClient client(fabric_, "node0", "orion", 5544);
    const auto st = client.stat("/f/t");
    ASSERT_TRUE(st.has_value());
    const auto fd = client.open("/f/t", srb::kRead | srb::kWrite);
    (void)fd;
    // ObjectStore truncation via the server is not exposed; emulate by
    // reading a shortened range through a fresh handle instead.
    Bytes raw(st->size - 5);
    client.pread(fd, MutByteSpan(raw.data(), raw.size()), 0);
    EXPECT_THROW(compress::decode_frame_stream(ByteSpan(raw.data(), raw.size())),
                 compress::CodecError);
    client.close(fd);
  }
}

TEST_F(FailureTest, RankCrashAbortsJobCleanly) {
  // One rank throws mid-job while others are blocked in recv and barrier:
  // run() must rethrow the original error and not deadlock.
  EXPECT_THROW(mpi::run(4,
                        [](mpi::Comm& comm) {
                          if (comm.rank() == 1)
                            throw std::runtime_error("simulated rank crash");
                          if (comm.rank() == 0) comm.recv(1, 99);
                          comm.barrier();
                        }),
               std::runtime_error);
}

TEST_F(FailureTest, IsendToCrashedWorldSurfacesOnWait) {
  EXPECT_THROW(mpi::run(2,
                        [](mpi::Comm& comm) {
                          if (comm.rank() == 0) throw mpi::MpiError("dead");
                          // Rank 1 blocks on a receive that can never match.
                          comm.recv(0, 7);
                        }),
               mpi::MpiError);
}

TEST_F(FailureTest, DoubleCloseAndUseAfterCloseAreSafe) {
  semplar::SrbfsDriver driver(fabric_, config());
  mpiio::File f(driver, "/f/dc", mpiio::kModeRead | mpiio::kModeWrite |
                                     mpiio::kModeCreate);
  f.close();
  f.close();  // idempotent
}

// ---------------------------------------------------------------------------
// Transport supervision: fault injection + reconnect/retry/backoff.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kRwc =
    mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate;

class SupervisedFailureTest : public FailureTest {
 protected:
  SupervisedFailureTest() : faults_(std::make_shared<simnet::FaultInjector>()) {
    fabric_.set_fault_injector(faults_);
  }

  semplar::Config retry_config(int streams = 1) {
    semplar::Config cfg = config(streams);
    cfg.retry.max_attempts = 6;
    cfg.retry.backoff_base = 0.01;
    cfg.retry.backoff_cap = 0.08;
    cfg.retry.jitter = 0.25;
    return cfg;
  }

  static const semplar::SemplarFile& file_of(mpiio::File& f) {
    auto* sf = dynamic_cast<semplar::SemplarFile*>(&f.handle());
    EXPECT_NE(sf, nullptr);
    return *sf;
  }

  std::shared_ptr<simnet::FaultInjector> faults_;
};

TEST_F(SupervisedFailureTest, SyncWriteSurvivesInjectedDrop) {
  semplar::SrbfsDriver driver(fabric_, retry_config());
  mpiio::File f(driver, "/s/drop", kRwc);
  faults_->arm_kill();  // the very next send dies
  Rng rng(3);
  const Bytes data = rng.bytes(128 * 1024);
  EXPECT_EQ(f.write_at(0, ByteSpan(data.data(), data.size())), data.size());
  Bytes back(data.size());
  EXPECT_EQ(f.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
  EXPECT_EQ(back, data);
  const auto snap = file_of(f).stats().snapshot();
  EXPECT_GE(snap.reconnects, 1u);
  EXPECT_GE(snap.replayed_ops, 1u);
  EXPECT_GT(snap.backoff_sim_seconds, 0.0);
  EXPECT_EQ(faults_->drops(), 1u);
  f.close();
}

TEST_F(SupervisedFailureTest, RetriesDisabledIsFailFast) {
  // Default config: retry off. An injected drop must surface immediately
  // (the paper's behaviour) and nothing may be replayed behind our back.
  semplar::SrbfsDriver driver(fabric_, config());
  mpiio::File f(driver, "/s/fastfail", kRwc);
  faults_->arm_kill();
  const Bytes data(64 * 1024, 'q');
  EXPECT_ANY_THROW(f.write_at(0, ByteSpan(data.data(), data.size())));
  const auto snap = file_of(f).stats().snapshot();
  EXPECT_EQ(snap.reconnects, 0u);
  EXPECT_EQ(snap.replayed_ops, 0u);
  EXPECT_EQ(snap.backoff_sim_seconds, 0.0);
}

TEST_F(SupervisedFailureTest, BrokerRestartMidStripeRecovers) {
  // Stop and restart the broker between two striped async writes: the
  // second one finds every connection dead, reconnects (fresh SRB login +
  // reopen), replays, and the file ends up byte-identical to the intent.
  semplar::Config cfg = retry_config(2);
  cfg.stripe_size = 64 * 1024;
  semplar::SrbfsDriver driver(fabric_, cfg);
  mpiio::File f(driver, "/s/restart", kRwc);
  Rng rng(11);
  const Bytes first = rng.bytes(512 * 1024);
  const Bytes second = rng.bytes(512 * 1024);
  mpiio::IoRequest r1 = f.iwrite_at(0, ByteSpan(first.data(), first.size()));
  EXPECT_EQ(r1.wait(), first.size());

  server_->stop();   // all sessions die; the object store survives
  server_->start();  // broker comes back on the same port

  mpiio::IoRequest r2 =
      f.iwrite_at(first.size(), ByteSpan(second.data(), second.size()));
  EXPECT_EQ(r2.wait(), second.size());

  Bytes back(first.size() + second.size());
  EXPECT_EQ(f.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
  EXPECT_TRUE(std::equal(first.begin(), first.end(), back.begin()));
  EXPECT_TRUE(std::equal(second.begin(), second.end(),
                         back.begin() + static_cast<std::ptrdiff_t>(first.size())));
  const auto snap = file_of(f).stats().snapshot();
  EXPECT_GE(snap.reconnects, 2u);  // both streams re-logged-in
  f.close();
}

TEST_F(SupervisedFailureTest, BackoffFollowsCappedExponentialSchedule) {
  // jitter = 0 makes the schedule exact: delays 0.01, 0.02, 0.04, 0.08,
  // 0.08 (capped) for the five replays of a six-attempt op that never
  // succeeds. ScopedTimeScale(2000) compresses the wait to microseconds of
  // wall time while the sim clock still advances by the full amount.
  semplar::Config cfg = retry_config();
  cfg.retry.jitter = 0.0;
  semplar::SrbfsDriver driver(fabric_, cfg);
  mpiio::File f(driver, "/s/backoff", kRwc);
  faults_->arm_kill();     // first attempt dies...
  faults_->ban("node0");   // ...and every reconnect is refused
  const Bytes data(32 * 1024, 'b');
  const double t0 = simnet::sim_now();
  EXPECT_ANY_THROW(f.write_at(0, ByteSpan(data.data(), data.size())));
  const double elapsed = simnet::sim_now() - t0;
  const double expected = 0.01 + 0.02 + 0.04 + 0.08 + 0.08;
  const auto snap = file_of(f).stats().snapshot();
  EXPECT_NEAR(snap.backoff_sim_seconds, expected, 1e-9);
  EXPECT_EQ(snap.replayed_ops, 5u);
  EXPECT_GE(elapsed, expected);  // the sleeps really happened, in sim time
  EXPECT_EQ(snap.reconnects, 0u);
}

TEST_F(SupervisedFailureTest, OpDeadlineExpiresWithTaxonomy) {
  semplar::Config cfg = retry_config();
  cfg.retry.max_attempts = 100;
  cfg.retry.backoff_base = 0.5;
  cfg.retry.backoff_cap = 0.5;
  cfg.retry.jitter = 0.0;
  cfg.retry.op_deadline = 1.0;  // expires after at most two 0.5 s waits
  semplar::SrbfsDriver driver(fabric_, cfg);
  mpiio::File f(driver, "/s/deadline", kRwc);
  faults_->arm_kill();
  faults_->ban("node0");
  const Bytes data(16 * 1024, 'd');
  try {
    f.write_at(0, ByteSpan(data.data(), data.size()));
    FAIL() << "expected the op deadline to expire";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.domain(), ErrorDomain::kDeadline);
    EXPECT_FALSE(e.retryable());
  }
  EXPECT_EQ(file_of(f).stats().snapshot().deadline_expirations, 1u);
}

TEST_F(SupervisedFailureTest, DeadStreamDegradesOntoSurvivor) {
  // Stream 1 of 2 dies and can never reconnect: after the repair budget is
  // spent it is declared dead, and its striped share is transparently
  // re-routed onto stream 0. The request completes — no hang, right bytes.
  semplar::Config cfg = retry_config(2);
  cfg.stripe_size = 64 * 1024;
  semplar::SrbfsDriver driver(fabric_, cfg);
  mpiio::File f(driver, "/s/degrade", kRwc);
  faults_->ban("/s1");     // reconnects of stream 1 are refused forever
  faults_->arm_kill("/s1");  // and its next send kills the connection
  Rng rng(17);
  const Bytes data = rng.bytes(1 << 20);
  mpiio::IoRequest req = f.iwrite_at(0, ByteSpan(data.data(), data.size()));
  EXPECT_EQ(req.wait(), data.size());
  Bytes back(data.size());
  EXPECT_EQ(f.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
  EXPECT_EQ(back, data);
  auto* sf = dynamic_cast<semplar::SemplarFile*>(&f.handle());
  ASSERT_NE(sf, nullptr);
  EXPECT_EQ(sf->streams().alive_count(), 1);
  EXPECT_EQ(sf->streams().count(), 2);
  f.close();
}

TEST_F(SupervisedFailureTest, ReplayedRunMatchesFaultFreeRunByteForByte) {
  // Idempotence property: the same randomized workload produces the
  // intended object with and without a 1.5% per-send drop probability,
  // because every replayed op is offset-addressed and re-run from scratch.
  struct Op {
    std::uint64_t off;
    Bytes chunk;
    bool async;
    bool wait_here;  // join all pending requests after this op
  };
  std::vector<Op> ops;
  std::uint64_t high = 0;
  {
    Rng rng(23);
    for (int i = 0; i < 24; ++i) {
      // One disjoint 64 KiB slot per op: concurrent in-flight writes never
      // overlap, so the final object is deterministic regardless of which
      // replays happen (only overlap order would be racy, not replays).
      const std::uint64_t slot = static_cast<std::uint64_t>(i) * (64 * 1024);
      Op op;
      op.off = slot + rng.below(8 * 1024);
      op.chunk = rng.bytes(1024 + static_cast<std::size_t>(rng.below(48 * 1024)));
      op.async = rng.chance(0.5);
      op.wait_here = rng.chance(0.4);
      high = std::max(high, op.off + op.chunk.size());
      ops.push_back(std::move(op));
    }
  }
  Bytes expected(high, 0);  // unwritten gaps read back as zeros
  for (const Op& op : ops)
    std::copy(op.chunk.begin(), op.chunk.end(),
              expected.begin() + static_cast<std::ptrdiff_t>(op.off));

  const auto run = [&](const std::string& path, bool faulty) {
    semplar::Config cfg = retry_config(2);
    cfg.retry.max_attempts = 10;
    semplar::SrbfsDriver driver(fabric_, cfg);
    mpiio::File f(driver, path, kRwc);
    if (faulty) {
      faults_->seed(0xfee1u);
      faults_->set_drop_probability(0.015);
    }
    std::vector<mpiio::IoRequest> pending;
    for (const Op& op : ops) {
      if (op.async) {
        pending.push_back(
            f.iwrite_at(op.off, ByteSpan(op.chunk.data(), op.chunk.size())));
      } else {
        EXPECT_EQ(f.write_at(op.off, ByteSpan(op.chunk.data(), op.chunk.size())),
                  op.chunk.size());
      }
      if (op.wait_here) {
        for (auto& r : pending) r.wait();
        pending.clear();
      }
    }
    for (auto& r : pending) r.wait();
    f.close();
    faults_->set_drop_probability(0.0);
    // Verify through a fresh fail-fast handle: supervision must have left a
    // fully consistent object behind, not merely masked the damage.
    semplar::SrbfsDriver check(fabric_, config());
    mpiio::File g(check, path, mpiio::kModeRead);
    Bytes content(high);
    EXPECT_EQ(g.read_at(0, MutByteSpan(content.data(), content.size())),
              content.size());
    g.close();
    return content;
  };

  const Bytes reference = run("/s/ref", /*faulty=*/false);
  EXPECT_EQ(reference, expected);  // sanity: the fault-free run is intact
  const Bytes replayed = run("/s/faulty", /*faulty=*/true);
  EXPECT_GT(faults_->drops(), 0u);  // the faulty run really was faulty
  EXPECT_EQ(replayed, expected);
}

TEST_F(SupervisedFailureTest, LatencySpikesSlowButNeverFail) {
  semplar::SrbfsDriver driver(fabric_, config());  // no retries needed
  mpiio::File f(driver, "/s/spike", kRwc);
  faults_->set_latency_spike(1.0, 0.002);  // every send stalls 2 sim-ms
  const Bytes data(64 * 1024, 's');
  EXPECT_EQ(f.write_at(0, ByteSpan(data.data(), data.size())), data.size());
  EXPECT_GT(faults_->latency_spikes(), 0u);
  EXPECT_EQ(faults_->drops(), 0u);
  f.close();
}

TEST_F(SupervisedFailureTest, WaitStatusReportsTaxonomyWithoutThrowing) {
  semplar::SrbfsDriver driver(fabric_, config());
  mpiio::File f(driver, "/s/status", kRwc);
  server_->stop();
  const Bytes data(64 * 1024, 'w');
  mpiio::IoRequest req = f.iwrite_at(0, ByteSpan(data.data(), data.size()));
  const Status st = req.wait_status();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.domain(), ErrorDomain::kTransport);
  EXPECT_TRUE(st.retryable());  // a dead connection is transient by contract
  EXPECT_FALSE(req.error().ok());  // error() agrees after completion
  EXPECT_TRUE(req.test());
}

TEST_F(SupervisedFailureTest, EngineReplayDoesNotStallUnrelatedTasks) {
  // One supervised task keeps failing retryably and waits out long backoffs;
  // tasks submitted after it must still complete promptly because workers
  // never sleep on a backoff — the deferred heap does the waiting.
  semplar::Config::Retry retry;
  retry.max_attempts = 4;
  // 60 sim seconds per backoff (30 ms wall at the fixture's 2000x scale):
  // enormous next to a healthy task, small next to the test budget.
  retry.backoff_base = 60.0;
  retry.backoff_cap = 60.0;
  retry.jitter = 0.0;
  semplar::AsyncEngine engine(1, 16, nullptr, retry);
  std::atomic<int> failures{0};
  mpiio::IoRequest doomed = engine.submit_supervised([&]() -> std::size_t {
    ++failures;
    throw mpiio::IoError({ErrorDomain::kTransport, 0, /*retryable=*/true, "t"},
                         "flaky");
  });
  const double t0 = simnet::sim_now();
  mpiio::IoRequest healthy = engine.submit([] { return std::size_t{7}; });
  EXPECT_EQ(healthy.wait(), 7u);
  // The healthy task finished while the doomed one was still backing off.
  EXPECT_LT(simnet::sim_now() - t0, 60.0);
  EXPECT_LT(failures.load(), 4);
  EXPECT_FALSE(doomed.wait_status().ok());  // eventually exhausts attempts
  EXPECT_EQ(failures.load(), 4);
  engine.shutdown();
}

TEST_F(SupervisedFailureTest, ShutdownFailsParkedReplaysInsteadOfWaiting) {
  semplar::Config::Retry retry;
  retry.max_attempts = 10;
  retry.backoff_base = 3600.0;  // absurd: shutdown must not wait this out
  retry.backoff_cap = 3600.0;
  retry.jitter = 0.0;
  semplar::AsyncEngine engine(1, 16, nullptr, retry);
  mpiio::IoRequest doomed = engine.submit_supervised([]() -> std::size_t {
    throw mpiio::IoError({ErrorDomain::kTransport, 0, /*retryable=*/true, "t"},
                         "flaky");
  });
  // Give the worker a moment to run the task and park the replay; shutdown
  // is correct in every interleaving, but this exercises the parked path.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  engine.shutdown();  // must return promptly and fail the parked replay
  EXPECT_FALSE(doomed.wait_status().ok());
}

// ---------------------------------------------------------------------------
// Supervision x corruption matrix. In-flight bit flips (both directions —
// the server socket corrupts responses too) land on CRC-checked frames, so
// every one must surface as a typed integrity error; with retries on the
// supervisor replays it on the SAME stream (integrity never demotes a
// connection) and the final bytes match the intent exactly.
// ---------------------------------------------------------------------------

TEST_F(SupervisedFailureTest, RandomizedCorruptionIsNeverSilent) {
  // Property test: a randomized workload under an ambient per-frame corrupt
  // probability must end byte-identical to the flat model. Detection is the
  // only acceptable fate for a flipped frame — wrong data landing (write) or
  // being returned (read) would show up in the verify pass.
  struct Slot {
    std::uint64_t off;
    Bytes chunk;
    bool async;
  };
  std::vector<Slot> slots;
  std::uint64_t high = 0;
  Rng rng(29);
  for (int i = 0; i < 28; ++i) {
    Slot s;
    s.off = static_cast<std::uint64_t>(i) * (32 * 1024) + rng.below(4 * 1024);
    s.chunk = rng.bytes(1024 + static_cast<std::size_t>(rng.below(20 * 1024)));
    s.async = rng.chance(0.5);
    high = std::max(high, s.off + s.chunk.size());
    slots.push_back(std::move(s));
  }
  Bytes expected(high, 0);
  for (const Slot& s : slots)
    std::copy(s.chunk.begin(), s.chunk.end(),
              expected.begin() + static_cast<std::ptrdiff_t>(s.off));

  semplar::Config cfg = retry_config(2);
  cfg.retry.max_attempts = 10;
  semplar::SrbfsDriver driver(fabric_, cfg);
  mpiio::File f(driver, "/x/corrupt", kRwc);
  // Arm corruption only after connect: the handshake is unchecksummed by
  // design, and integrity errors never trigger reconnects, so from here on
  // every frame either side sends is covered by a CRC trailer.
  faults_->seed(0x0c0ffee5u);
  faults_->set_corrupt_probability(std::max(0.02, chaos_corrupt_rate()),
                                   "semplar/");
  std::vector<mpiio::IoRequest> pending;
  for (const Slot& s : slots) {
    if (s.async) {
      pending.push_back(f.iwrite_at(s.off, ByteSpan(s.chunk.data(), s.chunk.size())));
    } else {
      EXPECT_EQ(f.write_at(s.off, ByteSpan(s.chunk.data(), s.chunk.size())),
                s.chunk.size());
    }
  }
  for (auto& r : pending) r.wait();
  // Read back through the same supervised handle with corruption still on:
  // flipped *responses* must be retried just like flipped requests.
  Bytes back(high);
  EXPECT_EQ(f.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
  EXPECT_EQ(back, expected);

  const auto snap = file_of(f).stats().snapshot();
  EXPECT_GT(faults_->corruptions(), 0u);  // the run really was corrupted
  EXPECT_GE(snap.corruptions_detected, 1u);
  EXPECT_GE(snap.integrity_retries, 1u);
  EXPECT_EQ(snap.reconnects, 0u);  // integrity errors stay on their stream
  // Every detection leaves its own kIntegrity span, not a sample.
  std::uint64_t integrity_spans = 0;
  for (const obs::Span& s : f.handle().tracer()->snapshot())
    if (s.kind == obs::SpanKind::kIntegrity) ++integrity_spans;
  EXPECT_EQ(integrity_spans, snap.corruptions_detected);
  faults_->set_corrupt_probability(0.0);
  f.close();

  // Belt and braces: a fresh fail-fast handle sees the same bytes, so
  // supervision left a consistent object, not a masked one.
  semplar::SrbfsDriver check(fabric_, config());
  mpiio::File g(check, "/x/corrupt", mpiio::kModeRead);
  Bytes content(high);
  EXPECT_EQ(g.read_at(0, MutByteSpan(content.data(), content.size())),
            content.size());
  EXPECT_EQ(content, expected);
  g.close();
}

TEST_F(SupervisedFailureTest, RetriesOffCorruptionFailsFastWithTaxonomy) {
  semplar::SrbfsDriver driver(fabric_, config());  // retries disabled
  mpiio::File f(driver, "/x/fastfail", kRwc);
  faults_->set_corrupt_probability(1.0, "semplar/");
  const Bytes data(32 * 1024, 'c');
  try {
    f.write_at(0, ByteSpan(data.data(), data.size()));
    FAIL() << "expected a checksum mismatch to surface";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.domain(), ErrorDomain::kIntegrity);
    EXPECT_TRUE(e.retryable());  // typed so a supervisor COULD retry it
  }
  const auto snap = file_of(f).stats().snapshot();
  EXPECT_GE(snap.corruptions_detected, 1u);
  EXPECT_EQ(snap.integrity_retries, 0u);
  EXPECT_EQ(snap.replayed_ops, 0u);
  EXPECT_EQ(snap.reconnects, 0u);

  // The detection left framing in phase: the same session serves cleanly
  // the moment the interference stops.
  faults_->set_corrupt_probability(0.0);
  EXPECT_EQ(f.write_at(0, ByteSpan(data.data(), data.size())), data.size());
  Bytes back(data.size());
  EXPECT_EQ(f.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
  EXPECT_EQ(back, data);
  f.close();
}

TEST_F(SupervisedFailureTest, DropsAndCorruptionTogetherStillConverge) {
  // The full matrix cell: transport faults (drop + reconnect + replay) and
  // integrity faults (detect + in-place retry) interleaving on one handle.
  semplar::Config cfg = retry_config(2);
  cfg.retry.max_attempts = 12;
  cfg.stripe_size = 64 * 1024;  // many frames: both fault kinds get to fire
  semplar::SrbfsDriver driver(fabric_, cfg);
  mpiio::File f(driver, "/x/matrix", kRwc);
  Rng rng(31);
  const Bytes data = rng.bytes(768 * 1024);
  faults_->seed(0xdeadbea7u);
  faults_->set_drop_probability(0.02);
  faults_->set_corrupt_probability(0.05, "semplar/");
  // Loop passes until both fault kinds have demonstrably fired (the draw
  // order depends on I/O thread interleaving, so a fixed pass count would
  // be flaky); the cap keeps a pathological run bounded.
  Bytes back(data.size());
  for (int pass = 0; pass < 10; ++pass) {
    mpiio::IoRequest req = f.iwrite_at(0, ByteSpan(data.data(), data.size()));
    EXPECT_EQ(req.wait(), data.size());
    std::fill(back.begin(), back.end(), 0);
    EXPECT_EQ(f.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
    EXPECT_EQ(back, data);
    if (pass >= 1 && faults_->drops() > 0 && faults_->corruptions() > 0) break;
  }
  EXPECT_GT(faults_->drops(), 0u);
  EXPECT_GT(faults_->corruptions(), 0u);
  faults_->set_drop_probability(0.0);
  faults_->set_corrupt_probability(0.0);
  f.close();
}

TEST_F(SupervisedFailureTest, GarbledReconnectHandshakeIsRetried) {
  // The login exchange carries no checksum, so a drop followed by a damaged
  // re-login must read as a transient dial failure, never as a broker
  // verdict that ends the op.
  semplar::Config cfg = retry_config();
  cfg.retry.max_attempts = 3;
  semplar::SrbfsDriver driver(fabric_, cfg);
  mpiio::File f(driver, "/s/relogin", kRwc);
  const Bytes data(16 * 1024, 'h');
  faults_->arm_kill();  // the next send dies, forcing a repair...
  faults_->set_corrupt_probability(1.0, "semplar/");  // ...over a bad line
  try {
    f.write_at(0, ByteSpan(data.data(), data.size()));
    FAIL() << "expected every repair over a corrupting line to fail";
  } catch (const StatusError& e) {
    EXPECT_TRUE(e.retryable()) << e.what();
  }
  EXPECT_EQ(file_of(f).stats().snapshot().reconnects, 0u);
  // Once the line is clean the same handle re-logs in and serves.
  faults_->set_corrupt_probability(0.0);
  EXPECT_EQ(f.write_at(0, ByteSpan(data.data(), data.size())), data.size());
  Bytes back(data.size());
  EXPECT_EQ(f.read_at(0, MutByteSpan(back.data(), back.size())), back.size());
  EXPECT_EQ(back, data);
  EXPECT_EQ(file_of(f).stats().snapshot().reconnects, 1u);
  f.close();
}

TEST_F(SupervisedFailureTest, RepairNeverDropsWireChecksums) {
  // A damaged feature word can negotiate a session down without any error;
  // a broker that really stopped granting checksums looks the same to the
  // client. Either way a repaired stream must not run unprotected.
  semplar::Config cfg = retry_config();
  cfg.retry.max_attempts = 3;
  semplar::SrbfsDriver driver(fabric_, cfg);
  mpiio::File f(driver, "/s/downgrade", kRwc);
  const Bytes data(16 * 1024, 'd');
  EXPECT_EQ(f.write_at(0, ByteSpan(data.data(), data.size())), data.size());
  server_->stop();
  srb::ServerConfig plain;
  plain.wire_checksums = false;
  server_ = std::make_unique<srb::SrbServer>(fabric_, plain);
  server_->start();
  try {
    f.write_at(0, ByteSpan(data.data(), data.size()));
    FAIL() << "expected the repair to refuse an unchecksummed session";
  } catch (const StatusError& e) {
    EXPECT_TRUE(e.retryable()) << e.what();
    EXPECT_NE(std::string(e.what()).find("checksums"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(file_of(f).stats().snapshot().reconnects, 0u);
}

// ---------------------------------------------------------------------------
// Config::Retry validation — one check per invariant.
// ---------------------------------------------------------------------------

TEST(RetryConfigValidation, EveryInvariantHasAMessage) {
  const auto expect_invalid = [](auto mutate) {
    semplar::Config cfg;
    cfg.client_host = "node0";
    mutate(cfg);
    EXPECT_THROW(semplar::validate(cfg), std::invalid_argument);
  };
  expect_invalid([](semplar::Config& c) { c.retry.max_attempts = -1; });
  expect_invalid([](semplar::Config& c) { c.retry.max_attempts = 1001; });
  expect_invalid([](semplar::Config& c) { c.retry.backoff_base = -0.01; });
  expect_invalid([](semplar::Config& c) {
    c.retry.backoff_base = 1.0;
    c.retry.backoff_cap = 0.5;
  });
  expect_invalid([](semplar::Config& c) { c.retry.jitter = 1.0; });
  expect_invalid([](semplar::Config& c) { c.retry.jitter = -0.1; });
  expect_invalid([](semplar::Config& c) { c.retry.op_deadline = -1.0; });
  expect_invalid([](semplar::Config& c) { c.conn.quantum = 0; });
  expect_invalid([](semplar::Config& c) { c.conn.buffer_bytes = 0; });

  semplar::Config ok;
  ok.client_host = "node0";
  ok.retry.max_attempts = 5;
  ok.retry.op_deadline = 2.0;
  EXPECT_NO_THROW(semplar::validate(ok));
  EXPECT_TRUE(ok.retry.enabled());
  EXPECT_FALSE(semplar::Config{}.retry.enabled());  // off by default
}

TEST(BackoffSchedule, DeterministicCappedAndJittered) {
  semplar::Config::Retry retry;
  retry.max_attempts = 8;
  retry.backoff_base = 0.05;
  retry.backoff_cap = 2.0;
  retry.jitter = 0.5;
  semplar::Backoff a(retry, 42);
  semplar::Backoff b(retry, 42);
  for (int k = 0; k < 16; ++k) {
    const double d = a.delay(k);
    EXPECT_EQ(d, b.delay(k));  // same seed, same schedule
    const double full = std::min(retry.backoff_cap, 0.05 * std::ldexp(1.0, k));
    EXPECT_LE(d, full);
    EXPECT_GE(d, full * (1.0 - retry.jitter) - 1e-12);
  }
  retry.jitter = 0.0;
  semplar::Backoff exact(retry, 7);
  EXPECT_DOUBLE_EQ(exact.delay(0), 0.05);
  EXPECT_DOUBLE_EQ(exact.delay(3), 0.4);
  EXPECT_DOUBLE_EQ(exact.delay(10), 2.0);  // capped
}

TEST(ErrorTaxonomy, StatusFromExceptionClassifies) {
  const auto classify = [](auto&& make) {
    try {
      make();
    } catch (...) {
      return status_from_exception(std::current_exception());
    }
    return Status();
  };
  Status s = classify([] {
    throw simnet::NetError("link dropped");
  });
  EXPECT_EQ(s.domain(), ErrorDomain::kTransport);
  EXPECT_TRUE(s.retryable());

  s = classify([] { throw srb::SrbError(srb::Status::kNotFound, "missing"); });
  EXPECT_EQ(s.domain(), ErrorDomain::kBroker);
  EXPECT_FALSE(s.retryable());
  EXPECT_EQ(s.code(), static_cast<std::int32_t>(srb::Status::kNotFound));

  s = classify([] { throw std::runtime_error("plain"); });
  EXPECT_EQ(s.domain(), ErrorDomain::kGeneric);
  EXPECT_FALSE(s.retryable());

  EXPECT_TRUE(status_from_exception(nullptr).ok());
  EXPECT_TRUE(Status().ok());
  const Status fail = Status::failure(
      {ErrorDomain::kDeadline, 0, false, "op"}, "too slow");
  EXPECT_FALSE(fail.ok());
  EXPECT_NE(fail.to_string().find("deadline"), std::string::npos);
}

}  // namespace
}  // namespace remio
