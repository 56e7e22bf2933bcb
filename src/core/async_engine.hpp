// The multi-threaded asynchronous core of SEMPLAR (Fig. 2 / §4.2–4.3): one
// FIFO queue under a mutex, drained by N dedicated I/O threads that sleep on
// a condition variable while it is empty (§4.3: no busy wait). Every worker
// takes the oldest queued task, so tasks start in submission order at any
// worker count.
//
// Supervision (Config::Retry enabled): tasks submitted through
// submit_supervised() that fail with a *retryable* error (see
// common/error.hpp) are not failed immediately. They are parked in a
// deferred min-heap keyed by their backoff due-time and re-queued by a
// timer thread when the backoff elapses — workers never sleep on a
// backoff, so unrelated queued requests keep flowing while a failed one
// waits out its delay. A replayed task may complete on a different worker
// than its first attempt; its kTask span still records exactly once, with
// queue residency measured from the first submission.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/fixed_function.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "core/supervisor.hpp"
#include "mpiio/request.hpp"
#include "obs/tracer.hpp"

namespace remio::semplar {

class AsyncEngine {
 public:
  /// A task performs one synchronous I/O call and returns bytes moved.
  /// Stored inline when the captures fit (no separate heap allocation).
  using Task = FixedFunction<std::size_t(), 104>;
  /// Invoked exactly once with the task's *final* outcome — after any
  /// replays — with (bytes, error); error is null on success. Runs on a
  /// worker thread; must not block on the engine.
  using Completion = FixedFunction<void(std::size_t, std::exception_ptr), 56>;

  /// io_threads follows the Config convention directly: 0 = one worker
  /// spawned lazily on the first asynchronous call (§7.1); >= 1 = that
  /// many pre-spawned workers (§7.2 uses one per stream). `retry`
  /// (default: disabled) enables the deferred-replay supervisor for
  /// submit_supervised() tasks. `tracer` (optional) records a kTask span
  /// per task — queue residency through final completion across replays —
  /// and a kBackoff span per parked replay.
  AsyncEngine(int io_threads, std::size_t queue_capacity,
              Stats* stats = nullptr, const Config::Retry& retry = {},
              obs::Tracer* tracer = nullptr,
              // Unused; perfbench/src/ladder.cpp still passes cfg.engine.
              const Config::Engine& = {});
  ~AsyncEngine();

  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  /// Enqueues the task; returns the completion handle (MPIO_Wait/Test on
  /// it). Blocks while the queue holds queue_capacity tasks; a submit from
  /// a worker thread never waits for room, so a task that spawns follow-up
  /// work cannot deadlock the engine. A failed task fails its request on
  /// the first error (no replay).
  mpiio::IoRequest submit(Task task);

  /// Like submit(), but retryable failures are replayed after a capped,
  /// jittered backoff (without occupying a worker while waiting). The
  /// task must be idempotent — it re-runs from scratch, possibly on a
  /// different worker. `done`, if set, observes the final outcome (for
  /// striped-join bookkeeping).
  mpiio::IoRequest submit_supervised(Task task, Completion done = {});

  /// Non-blocking fire-and-forget enqueue for speculative work (cache
  /// read-ahead): returns false instead of waiting when the queue is full
  /// or the engine is shut down, so a worker can submit without deadlock.
  /// The task's result and any exception are discarded.
  bool try_submit(Task task);

  /// Blocks until everything enqueued so far has completed — including
  /// deferred replays still waiting out a backoff. A snapshot barrier, not
  /// quiescence: tasks submitted by other threads *after* the call starts
  /// are not waited for, so drain() returns in bounded time even against a
  /// continuous submit stream that never lets the engine go idle.
  void drain();

  /// Stops accepting work, runs what is queued, joins. Pending deferred
  /// replays are failed immediately (shutdown does not wait out
  /// backoffs). Idempotent; called by dtor.
  void shutdown();

  /// Effective worker count — always >= 1, resolving the lazy-0
  /// convention exactly like Config::effective_io_threads() (a lazy
  /// engine reports 1 whether or not its worker has spawned yet).
  int thread_count() const { return threads_; }

  /// True when constructed with io_threads == 0 (worker spawns on the
  /// first asynchronous call).
  bool lazy() const { return lazy_; }

 private:
  struct Item;  // one task + its request state + span
  using ItemPtr = std::unique_ptr<Item>;

  /// What enqueue() does when the queue already holds capacity_ tasks.
  enum class Room { kWait, kRefuse, kIgnore };

  struct Deferred {
    double due;  // sim time at which the replay may run
    ItemPtr item;
  };

  /// One drain() in progress: it waits for the `remaining` tasks that were
  /// outstanding when it started, i.e. those with a sequence number below
  /// `seq`.
  struct DrainTicket {
    std::uint64_t seq;
    std::size_t remaining;
  };

  mpiio::IoRequest submit_item(Task task, Completion done, bool supervised);
  ItemPtr make_item(Task task, std::shared_ptr<mpiio::IoRequest::State> state);
  /// Moves `item` into the queue and returns true, or returns false and
  /// leaves it with the caller when the engine is closed or (kRefuse)
  /// full. A replay keeps the sequence number of its first submission.
  bool enqueue(ItemPtr& item, Room room, bool replay);
  void worker_loop();
  void run_item(ItemPtr item);
  void finish(ItemPtr item, std::size_t n);
  void fail_item(ItemPtr item, std::exception_ptr err);
  void handle_failure(ItemPtr item, std::exception_ptr err);
  void defer(ItemPtr item, double due);
  void retire(std::uint64_t seq);
  void timer_loop();

  const int threads_;  // effective worker count (>= 1)
  const bool lazy_;
  const std::size_t capacity_;
  Stats* stats_;
  obs::Tracer* tracer_;
  const Config::Retry retry_;
  Backoff backoff_;

  // The Fig. 2 queue and everything its workers, submitters and drainers
  // wait on.
  std::mutex mu_;
  std::condition_variable work_cv_;   // queue non-empty, or closed
  std::condition_variable space_cv_;  // queue below capacity, or closed
  std::condition_variable drain_cv_;  // a drain ticket reached zero
  std::deque<ItemPtr> queue_;
  bool closed_ = false;
  int idle_ = 0;           // workers waiting on work_cv_
  int wakes_pending_ = 0;  // notifies sent to idle workers, not yet woken
  int space_waiters_ = 0;  // submitters waiting on space_cv_
  std::uint64_t next_seq_ = 0;    // stamped on each accepted submission
  std::size_t outstanding_ = 0;   // accepted, final outcome not yet reached
  std::vector<DrainTicket*> drains_;
  std::vector<std::thread> workers_;  // spawned on first use when lazy

  // Deferred replays (supervision). The timer thread is spawned on the
  // first defer — fault-free runs never pay for it.
  std::mutex defer_mu_;
  std::condition_variable defer_cv_;
  std::vector<Deferred> deferred_;  // min-heap on due
  bool timer_stop_ = false;
  std::thread timer_;

  std::mutex lifecycle_mu_;  // serializes shutdown()
  bool shut_down_ = false;
};

}  // namespace remio::semplar
