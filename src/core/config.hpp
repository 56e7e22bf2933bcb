// SEMPLAR configuration: where this rank lives on the fabric, how many TCP
// streams per open file (§7.2), how many dedicated I/O threads (§4.3), and
// the striping / queueing parameters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "simnet/fabric.hpp"

namespace remio::semplar {

struct Config {
  /// Fabric host this rank's node is registered as (e.g. "das2-node3").
  std::string client_host;
  /// The broker's host and port on the fabric.
  std::string server_host = "orion";
  int server_port = 5544;

  /// Tenant identity sent at login. Empty (the default) = untenanted. On a
  /// multi-tenant broker a non-empty tenant confines every stream of this
  /// rank to /tenants/<tenant> and its quotas. Must not contain '/'.
  std::string tenant;

  /// TCP connections opened per file handle. 1 reproduces the original
  /// SEMPLAR; 2 is the paper's §7.2 configuration. The paper obtained >1 by
  /// calling MPI_File_open twice; this knob is the library-level version it
  /// lists as future work (also still reproducible via two opens).
  int streams_per_node = 1;

  /// Dedicated I/O threads. 0 = one thread, spawned lazily on the first
  /// asynchronous call (the §7.1 configuration); >=1 = that many
  /// pre-spawned threads (§7.2 uses one per stream).
  int io_threads = 0;

  /// Striping unit when a single async request is split across streams.
  /// kAutoStripe sends a request smaller than one window
  /// (min(conn.tcp_window, 64 KiB); 64 KiB when the window is 0) whole,
  /// each such request on the next stream in turn, and divides a larger
  /// one contiguously and evenly across the streams (one broker round trip
  /// per stream — how the paper's modified perf splits its array). A byte
  /// value forces round-robin chunks of that size (useful to exercise
  /// stripe-boundary behaviour).
  static constexpr std::size_t kAutoStripe = 0;
  std::size_t stripe_size = kAutoStripe;

  /// I/O queue capacity (Fig. 2 queue); submits beyond it block the
  /// caller. Submits from an I/O thread itself (prefetch chains) and
  /// supervised replays never wait for room, so a worker can never
  /// deadlock on its own backlog.
  std::size_t queue_capacity = 1024;

  /// No fields; perfbench/src/ladder.cpp still passes it to AsyncEngine.
  struct Engine {};
  Engine engine;

  /// Client-side block cache (src/cache). 0 = disabled (the paper's
  /// configuration); >0 = total bytes of file data cached per open file.
  std::size_t cache_bytes = 0;

  /// Cache block size. Reads fetch whole tails of a block, so this is also
  /// the intra-block read-ahead granularity.
  std::size_t cache_block_bytes = 1u << 20;

  /// Speculative read-ahead depth in blocks once a sequential or strided
  /// pattern is confirmed. 0 = no prefetch. Needs cache_bytes > 0.
  int readahead_blocks = 0;

  /// Write-behind high-water mark in dirty bytes: writes are buffered and
  /// coalesced until this much is dirty, then flushed as contiguous runs.
  /// 0 = write-through (every write goes to the broker immediately, the
  /// cache only absorbs re-reads). Needs cache_bytes > 0.
  std::size_t writeback_hwm = 0;

  /// End-to-end data integrity (src/common/checksum). Detection is
  /// default-ON — each knob only turns checking off; recovery from a
  /// detected mismatch is governed by `retry` like any transient failure.
  struct Integrity {
    /// Request per-frame CRC32C on every SRB stream at connect. Off sends
    /// no flags word, so the session runs the unchecksummed frame format.
    bool wire_checksums = true;
    /// Per-block CRC32C on cached file data, verified before eviction and
    /// on demand (verify_resident); adds no work to the hit path.
    bool cache_verify = true;
  };
  Integrity integrity;

  /// Per-connection transport tuning (TCP window, shared-resource charges
  /// such as the node I/O bus).
  simnet::ConnectOptions conn;

  /// Transport supervision: reconnect / retry / backoff for transient
  /// (retryable) failures on the SRB streams. Defaults to OFF
  /// (max_attempts == 0), preserving the paper's fail-fast behaviour —
  /// every knob here only takes effect once max_attempts > 0.
  struct Retry {
    /// Total attempts per operation (first try + replays). 0 disables
    /// supervision entirely.
    int max_attempts = 0;
    /// Delay before the first replay, simulated seconds. Doubles each
    /// further replay (capped below, jittered).
    double backoff_base = 0.05;
    /// Ceiling on the exponential backoff, simulated seconds.
    double backoff_cap = 2.0;
    /// Randomized fraction of each delay, in [0, 1): the actual delay is
    /// uniform in (delay * (1 - jitter), delay]. Decorrelates the retry
    /// storms of many ranks hitting a restarting broker.
    double jitter = 0.5;
    /// Per-operation deadline including backoff, simulated seconds;
    /// 0 = none. Expiry surfaces as an ErrorDomain::kDeadline failure.
    double op_deadline = 0.0;

    bool enabled() const { return max_attempts > 0; }
  };
  Retry retry;

  /// Observability (src/obs): per-op span tracing. Default ON — the rings
  /// are drop-oldest so overhead and memory stay bounded regardless of run
  /// length.
  struct Obs {
    /// Master switch. Off = no Tracer is created; every instrumentation
    /// site degrades to a null-pointer check.
    bool enabled = true;
    /// Spans retained per (thread, file) ring before drop-oldest kicks in.
    std::size_t ring_capacity = 8192;
  };
  Obs obs;

  /// Effective I/O thread count (resolving the lazy-0 convention).
  int effective_io_threads() const { return io_threads <= 0 ? 1 : io_threads; }
  bool lazy_spawn() const { return io_threads <= 0; }
};

/// Validates invariants (positive streams, stripe size, retry schedule,
/// connection tuning, ...). Throws std::invalid_argument with a
/// field-specific message.
void validate(const Config& cfg);

}  // namespace remio::semplar
