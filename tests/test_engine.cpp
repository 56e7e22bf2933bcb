// Concurrency tests for the AsyncEngine's FIFO worker pool: multi-producer
// submit storms, drain() under concurrent submitters, FIFO dispatch across
// workers, supervised replay migrating across workers, and submissions
// from inside a task.
//
// The EngineMatrix suite reads REMIO_ENGINE_THREADS (default 4) so the same
// binary can be re-registered under different pool sizes — see
// tests/CMakeLists.txt, which runs it at 1, 4, and 8 workers (label
// `engine_matrix`), in both the Release and TSan CI lanes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/async_engine.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "mpiio/request.hpp"
#include "obs/span.hpp"
#include "obs/tracer.hpp"
#include "simnet/timescale.hpp"

namespace remio::semplar {
namespace {

int matrix_threads() {
  const char* env = std::getenv("REMIO_ENGINE_THREADS");
  if (env == nullptr) return 4;
  const int n = std::atoi(env);
  return n >= 1 && n <= 256 ? n : 4;
}

// --- EngineMatrix: parameterized by REMIO_ENGINE_THREADS --------------------

TEST(EngineMatrix, StealStormCompletesEveryTask) {
  // N external producers blast short tasks at M workers through the one
  // bounded queue. Every task must run exactly once (sum check) and the
  // engine must end quiescent. Run under TSan in CI, this is the race probe
  // for the queue, capacity and park/wake protocols.
  const int threads = matrix_threads();
  Stats stats;
  AsyncEngine engine(threads, 256, &stats);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2500;
  std::atomic<std::int64_t> sum{0};
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      std::vector<mpiio::IoRequest> reqs;
      reqs.reserve(kPerProducer);
      for (int i = 0; i < kPerProducer; ++i) {
        const std::int64_t v = static_cast<std::int64_t>(p) * kPerProducer + i;
        reqs.push_back(engine.submit([&sum, &ran, v] {
          sum.fetch_add(v, std::memory_order_relaxed);
          ran.fetch_add(1, std::memory_order_relaxed);
          return static_cast<std::size_t>(1);
        }));
      }
      for (auto& r : reqs) EXPECT_EQ(r.wait(), 1u);
    });
  for (auto& t : producers) t.join();
  engine.drain();
  const std::int64_t n = static_cast<std::int64_t>(kProducers) * kPerProducer;
  EXPECT_EQ(ran.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  EXPECT_EQ(stats.snapshot().async_tasks, static_cast<std::uint64_t>(n));
}

TEST(EngineMatrix, DrainUnderConcurrentSubmitters) {
  // Property: drain() called while other threads keep submitting must (a)
  // never wedge and (b) on a quiet engine imply everything submitted so far
  // has completed. The final drain after producers stop must leave
  // completed == submitted.
  const int threads = matrix_threads();
  AsyncEngine engine(threads, 64);
  std::atomic<int> submitted{0};
  std::atomic<int> completed{0};
  std::atomic<bool> stop{false};
  constexpr int kSubmitters = 3;
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s)
    submitters.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        ++submitted;
        engine.submit([&completed] {
          completed.fetch_add(1, std::memory_order_relaxed);
          return std::size_t{0};
        });
      }
    });
  for (int round = 0; round < 20; ++round) {
    engine.drain();  // must return despite the ongoing submit stream
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : submitters) t.join();
  engine.drain();
  EXPECT_EQ(completed.load(), submitted.load());
}

TEST(EngineMatrix, DrainWaitsForSlowPreDrainTaskDespiteLaterCompletions) {
  // Regression: the snapshot barrier must track the snapshot *set*, not a
  // global completion count. A slow task submitted before drain() pins one
  // worker while hundreds of post-drain submissions complete on the others;
  // a count-based barrier (completed >= submitted-at-entry) is satisfied by
  // those later completions and returns with the pre-drain task still
  // running. The drain ticket must keep the drainer blocked until the slow
  // task itself finishes.
  const int threads = matrix_threads();
  AsyncEngine engine(threads, 64);
  std::atomic<bool> release{false};
  std::atomic<bool> started{false};
  std::atomic<bool> slow_done{false};
  auto slow = engine.submit([&]() -> std::size_t {
    started.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    slow_done.store(true, std::memory_order_release);
    return std::size_t{7};
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  std::atomic<bool> drained{false};
  std::thread drainer([&] {
    engine.drain();
    drained.store(true, std::memory_order_release);
  });
  // Let the drainer take its snapshot, then push the global completion
  // count far past the snapshot-time submit count. With one worker the
  // quick tasks queue behind the hog, so only assert their completion on
  // multi-worker pools (the premature-return bug is a multi-worker race).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  if (threads > 1) {
    for (int i = 0; i < 200; ++i)
      engine.submit([] { return std::size_t{0}; }).wait();
  }
  EXPECT_FALSE(drained.load(std::memory_order_acquire));
  release.store(true, std::memory_order_release);
  drainer.join();
  EXPECT_TRUE(slow_done.load(std::memory_order_acquire));
  EXPECT_EQ(slow.wait(), 7u);
}

TEST(EngineMatrix, TrySubmitStormNeverBlocksAndNeverLoses) {
  // Speculative submissions racing real ones: try_submit either lands (and
  // runs exactly once) or reports false — never blocks, never double-runs.
  const int threads = matrix_threads();
  AsyncEngine engine(threads, 32);
  std::atomic<int> accepted{0};
  std::atomic<int> ran{0};
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i)
        if (engine.try_submit([&ran] {
              ran.fetch_add(1, std::memory_order_relaxed);
              return std::size_t{0};
            }))
          ++accepted;
    });
  for (auto& t : producers) t.join();
  engine.drain();
  EXPECT_EQ(ran.load(), accepted.load());
  EXPECT_GT(accepted.load(), 0);
}

// --- fixed-shape engine behaviour -------------------------------------------

TEST(FifoEngine, FanOutFromWorkerCompletesEveryTask) {
  // One task fans 32 children out from inside a worker. Those submits
  // never wait for room, and the other three workers must pick the
  // children up while their spawner is still running.
  Stats stats;
  AsyncEngine engine(4, 256, &stats);
  std::atomic<int> ran{0};
  engine
      .submit([&] {
        for (int i = 0; i < 32; ++i)
          engine.submit([&ran] {
            ran.fetch_add(1, std::memory_order_relaxed);
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            return std::size_t{0};
          });
        return std::size_t{0};
      })
      .wait();
  engine.drain();
  EXPECT_EQ(ran.load(), 32);
  EXPECT_EQ(stats.snapshot().async_tasks, 33u);
}

TEST(FifoEngine, DispatchIsFifoAcrossWorkers) {
  // Both workers of a 2-worker pool are pinned while four tasks queue
  // behind them. Releasing the pins one at a time must start the queued
  // tasks oldest first: task 0 on the first freed worker, then task 1 on
  // the second, not a newer task.
  AsyncEngine engine(2, 64);
  struct Hog {
    std::atomic<bool> running{false};
    std::atomic<bool> release{false};
  };
  Hog hogs[2];
  std::vector<mpiio::IoRequest> reqs;
  for (Hog& h : hogs)
    reqs.push_back(engine.submit([&h] {
      h.running.store(true, std::memory_order_release);
      while (!h.release.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return std::size_t{0};
    }));
  for (Hog& h : hogs)
    while (!h.running.load(std::memory_order_acquire))
      std::this_thread::yield();

  std::mutex mu;
  std::condition_variable cv;
  std::vector<int> started;
  for (int i = 0; i < 4; ++i)
    reqs.push_back(engine.submit([&, i] {
      std::unique_lock lk(mu);
      started.push_back(i);
      cv.notify_all();
      // Hold the first freed worker until a second task has started.
      if (i == 0)
        cv.wait_for(lk, std::chrono::seconds(5),
                    [&] { return started.size() >= 2; });
      return std::size_t{0};
    }));
  hogs[0].release.store(true, std::memory_order_release);
  {
    std::unique_lock lk(mu);
    EXPECT_TRUE(cv.wait_for(lk, std::chrono::seconds(5),
                            [&] { return !started.empty(); }));
  }
  hogs[1].release.store(true, std::memory_order_release);
  for (auto& r : reqs) r.wait();
  ASSERT_EQ(started.size(), 4u);
  EXPECT_EQ(started[0], 0);
  EXPECT_EQ(started[1], 1);
}

TEST(FifoEngine, ParkedWorkersWakeOnSubmit) {
  Stats stats;
  AsyncEngine engine(2, 64, &stats);
  engine.submit([] { return std::size_t{0}; }).wait();
  engine.drain();
  // Idle long enough for both workers to park on the empty queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto idle = stats.snapshot();
  EXPECT_GT(idle.parks, 0u);
  auto req = engine.submit([] { return std::size_t{3}; });
  EXPECT_EQ(req.wait(), 3u);
  EXPECT_GT(stats.snapshot().wakes, 0u);
}

TEST(FifoEngine, NestedSubmitFromWorkerDoesNotDeadlock) {
  // A task chain that submits its successor from the worker thread, with a
  // queue capacity far smaller than the chain: a submit from a worker never
  // waits for room, so the single worker can never block on its own
  // backlog.
  AsyncEngine engine(1, 2);
  constexpr int kDepth = 100;
  std::atomic<int> ran{0};
  std::function<void(int)> spawn = [&](int remaining) {
    engine.submit([&, remaining] {
      ++ran;
      if (remaining > 1) spawn(remaining - 1);
      return std::size_t{0};
    });
  };
  spawn(kDepth);
  // Each link only exists after its parent runs; drain until the chain ends.
  while (ran.load() < kDepth) engine.drain();
  EXPECT_EQ(ran.load(), kDepth);
}

TEST(FifoEngine, WorkerLocalTrySubmitHonorsCapacity) {
  // Speculation from a worker is bounded by queue_capacity like any other
  // try_submit: a prefetch storm cannot grow the queue without bound.
  AsyncEngine engine(1, 4);
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  engine
      .submit([&] {
        for (int i = 0; i < 64; ++i) {
          if (engine.try_submit([] { return std::size_t{0}; }))
            ++accepted;
          else
            ++rejected;
        }
        return std::size_t{0};
      })
      .wait();
  engine.drain();
  EXPECT_GT(accepted.load(), 0);
  EXPECT_GT(rejected.load(), 0);  // the cap engaged
  EXPECT_LE(accepted.load(), 8);  // capacity 4 plus pop-racing slack
}

TEST(FifoEngine, SupervisedReplayMigratesAcrossWorkers) {
  // A supervised task fails on worker A, parks for its backoff, and is
  // re-queued by the timer while worker A is pinned by a hog — so the
  // replay *must* complete on a different worker, and its span bookkeeping
  // must still record exactly one kTask and one kBackoff span.
  simnet::ScopedTimeScale scale(10.0);  // sim 1s == 100ms wall
  obs::Tracer tracer(1024);
  Stats stats;
  Config::Retry retry;
  retry.max_attempts = 2;
  retry.backoff_base = 1.0;  // 100ms wall: long enough to stage the hogs
  retry.backoff_cap = 1.0;
  retry.jitter = 0.0;
  AsyncEngine engine(2, 64, &stats, retry, &tracer);

  std::atomic<bool> failed_once{false};
  std::thread::id first_tid;
  std::thread::id second_tid;
  std::mutex tid_mu;
  mpiio::IoRequest doomed = engine.submit_supervised([&]() -> std::size_t {
    std::lock_guard lk(tid_mu);
    if (second_tid == std::thread::id{} && first_tid == std::thread::id{}) {
      // First attempt: publish the tid *before* the flag main spins on.
      first_tid = std::this_thread::get_id();
      failed_once.store(true, std::memory_order_release);
      throw mpiio::IoError(
          {remio::ErrorDomain::kTransport, 0, /*retryable=*/true, "test"},
          "transient");
    }
    second_tid = std::this_thread::get_id();
    return std::size_t{1};
  });
  while (!failed_once.load()) std::this_thread::yield();

  // Pin both workers. Exactly one hog runs on the worker that served the
  // first attempt; release the *other* one, so the only idle worker when
  // the replay lands is a different thread than first_tid.
  struct Hog {
    std::atomic<bool> running{false};
    std::atomic<bool> release{false};
    std::thread::id tid;
  };
  Hog hogs[2];
  std::vector<mpiio::IoRequest> hog_reqs;
  for (Hog& h : hogs)
    hog_reqs.push_back(engine.submit([&h] {
      h.tid = std::this_thread::get_id();
      h.running.store(true, std::memory_order_release);
      while (!h.release.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return std::size_t{0};
    }));
  for (Hog& h : hogs)
    while (!h.running.load(std::memory_order_acquire))
      std::this_thread::yield();
  Hog& other = hogs[hogs[0].tid == first_tid ? 1 : 0];
  Hog& pinner = hogs[hogs[0].tid == first_tid ? 0 : 1];
  ASSERT_NE(other.tid, first_tid);
  other.release.store(true, std::memory_order_release);

  EXPECT_EQ(doomed.wait(), 1u);  // replay succeeded
  EXPECT_NE(second_tid, first_tid);
  EXPECT_NE(second_tid, std::thread::id{});
  pinner.release.store(true, std::memory_order_release);
  for (auto& r : hog_reqs) r.wait();
  engine.drain();

  EXPECT_EQ(stats.snapshot().replayed_ops, 1u);
  std::uint64_t doomed_tasks = 0;
  std::uint64_t doomed_backoffs = 0;
  std::uint64_t doomed_op = 0;
  for (const auto& s : tracer.snapshot())
    if (s.kind == obs::SpanKind::kBackoff) doomed_op = s.op_id;
  ASSERT_NE(doomed_op, 0u);
  for (const auto& s : tracer.snapshot()) {
    if (s.op_id != doomed_op) continue;
    if (s.kind == obs::SpanKind::kTask) ++doomed_tasks;
    if (s.kind == obs::SpanKind::kBackoff) ++doomed_backoffs;
  }
  EXPECT_EQ(doomed_tasks, 1u);     // recorded once, at the final outcome
  EXPECT_EQ(doomed_backoffs, 1u);  // one parked interval
}

TEST(FifoEngine, ShutdownRacingSubmittersLosesNoAcceptedTask) {
  // Submitters race shutdown(): every submit either completes (request
  // succeeds) or fails with the shutdown error — nothing hangs, nothing is
  // silently dropped.
  for (int round = 0; round < 8; ++round) {
    AsyncEngine engine(2, 32);
    std::atomic<int> outcomes{0};
    constexpr int kSubmitters = 3;
    std::atomic<bool> go{false};
    std::vector<std::thread> submitters;
    for (int s = 0; s < kSubmitters; ++s)
      submitters.emplace_back([&] {
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < 50; ++i) {
          auto req = engine.submit([] { return std::size_t{1}; });
          const auto st = req.wait_status();  // completes either way
          (void)st;
          ++outcomes;
        }
      });
    go.store(true);
    std::this_thread::sleep_for(std::chrono::microseconds(200 * round));
    engine.shutdown();
    for (auto& t : submitters) t.join();
    EXPECT_EQ(outcomes.load(), kSubmitters * 50);
  }
}

}  // namespace
}  // namespace remio::semplar
