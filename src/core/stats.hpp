// Per-file SEMPLAR instrumentation: logical and wire byte counts, task
// counts, queue depth high-water mark, and the block cache's
// hit/miss/prefetch/coalescing counters. Snapshots feed
// EXPERIMENTS.md's overlap and bandwidth numbers.
#pragma once

#include <atomic>
#include <cstdint>

#include "cache/cache_stats.hpp"

namespace remio::semplar {

struct StatsSnapshot {
  std::uint64_t bytes_written = 0;  // application bytes
  std::uint64_t bytes_read = 0;
  std::uint64_t async_tasks = 0;
  std::uint64_t sync_calls = 0;
  std::uint64_t queue_peak = 0;
  /// Protocol round-trips issued for data transfer (one per read/write
  /// message; a chunked transfer counts one per chunk, a list-I/O batch
  /// counts one per message regardless of how many extents it carries).
  /// Deterministic for a given access pattern — the noncontiguous ablation
  /// gates on it.
  std::uint64_t wire_ops = 0;

  std::uint64_t steals = 0;  // Always 0; perfbench/src/ladder.cpp prints it.
  // Engine sleep protocol: parks counts I/O-thread waits on an empty
  // queue, wakes counts notifies sent to an idle I/O thread.
  std::uint64_t parks = 0;
  std::uint64_t wakes = 0;

  // Transport supervision (all zero when retries are disabled).
  std::uint64_t reconnects = 0;           // successful re-dials + re-logins
  std::uint64_t replayed_ops = 0;         // ops re-run after transient failure
  std::uint64_t deadline_expirations = 0; // supervised ops that ran out of time
  double backoff_sim_seconds = 0.0;       // total simulated backoff slept

  // End-to-end integrity (zero on a clean run).
  std::uint64_t corruptions_detected = 0; // kIntegrity failures observed
  std::uint64_t integrity_retries = 0;    // replays caused by those failures

  // Block cache (all zero when the cache is disabled).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_useful = 0;  // prefetched blocks later demanded
  std::uint64_t writeback_coalesced = 0;  // small writes merged into a run
  std::uint64_t writeback_flushes = 0;    // coalesced wire writes issued
  std::uint64_t cache_integrity_verified = 0;  // resident-block CRC checks
  std::uint64_t cache_integrity_failures = 0;  // checks that found rot
};

class Stats {
 public:
  void add_write(std::uint64_t n) { bytes_written_ += n; }
  void add_read(std::uint64_t n) { bytes_read_ += n; }
  void add_task() { ++async_tasks_; }
  void add_sync() { ++sync_calls_; }
  void add_wire_ops(std::uint64_t n) { wire_ops_ += n; }
  void note_queue_depth(std::uint64_t d) {
    std::uint64_t cur = queue_peak_.load(std::memory_order_relaxed);
    while (d > cur &&
           !queue_peak_.compare_exchange_weak(cur, d, std::memory_order_relaxed)) {
    }
  }
  void add_park() { ++parks_; }
  void add_wake() { ++wakes_; }
  void add_reconnect() { ++reconnects_; }
  void add_replayed_op() { ++replayed_ops_; }
  void add_deadline_expiration() { ++deadline_expirations_; }
  void add_backoff(double sim_seconds) {
    backoff_sim_.fetch_add(sim_seconds, std::memory_order_relaxed);
  }
  void add_corruption_detected() { ++corruptions_detected_; }
  void add_integrity_retry() { ++integrity_retries_; }

  /// The block cache writes its counters here directly.
  cache::CacheCounters& cache() { return cache_; }

  StatsSnapshot snapshot() const {
    // Monitoring read: each counter is independently consistent, so relaxed
    // loads are enough — there is no release store to pair an acquire with.
    StatsSnapshot s;
    s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
    s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
    s.async_tasks = async_tasks_.load(std::memory_order_relaxed);
    s.sync_calls = sync_calls_.load(std::memory_order_relaxed);
    s.queue_peak = queue_peak_.load(std::memory_order_relaxed);
    s.wire_ops = wire_ops_.load(std::memory_order_relaxed);
    s.parks = parks_.load(std::memory_order_relaxed);
    s.wakes = wakes_.load(std::memory_order_relaxed);
    s.reconnects = reconnects_.load(std::memory_order_relaxed);
    s.replayed_ops = replayed_ops_.load(std::memory_order_relaxed);
    s.deadline_expirations =
        deadline_expirations_.load(std::memory_order_relaxed);
    s.backoff_sim_seconds = backoff_sim_.load(std::memory_order_relaxed);
    s.corruptions_detected =
        corruptions_detected_.load(std::memory_order_relaxed);
    s.integrity_retries = integrity_retries_.load(std::memory_order_relaxed);
    s.cache_hits = cache_.hits.load(std::memory_order_relaxed);
    s.cache_misses = cache_.misses.load(std::memory_order_relaxed);
    s.prefetch_issued = cache_.prefetch_issued.load(std::memory_order_relaxed);
    s.prefetch_useful = cache_.prefetch_useful.load(std::memory_order_relaxed);
    s.writeback_coalesced =
        cache_.writeback_coalesced.load(std::memory_order_relaxed);
    s.writeback_flushes =
        cache_.writeback_flushes.load(std::memory_order_relaxed);
    s.cache_integrity_verified =
        cache_.integrity_verified.load(std::memory_order_relaxed);
    s.cache_integrity_failures =
        cache_.integrity_failures.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> async_tasks_{0};
  std::atomic<std::uint64_t> sync_calls_{0};
  std::atomic<std::uint64_t> queue_peak_{0};
  std::atomic<std::uint64_t> wire_ops_{0};
  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> wakes_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> replayed_ops_{0};
  std::atomic<std::uint64_t> deadline_expirations_{0};
  std::atomic<double> backoff_sim_{0.0};
  std::atomic<std::uint64_t> corruptions_detected_{0};
  std::atomic<std::uint64_t> integrity_retries_{0};
  cache::CacheCounters cache_;
};

}  // namespace remio::semplar
