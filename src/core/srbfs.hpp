// SEMPLAR: the SRBFS ADIO driver (§3.2) with the asynchronous extension
// (§4). Synchronous read_at/write_at use a single blocking stream, exactly
// like the original SEMPLAR; the asynchronous verbs route through the
// multi-threaded engine and spread requests over the file's TCP streams, so
// transfers on both connections advance simultaneously (§7.2): a request of
// at least one window is striped across the streams, a smaller one goes
// whole to the next stream in turn.
//
// With cfg.cache_bytes > 0 every verb additionally routes through the
// client-side block cache (src/cache): re-reads are served locally,
// sequential/strided reads trigger speculative read-ahead on the async
// engine, and small writes coalesce into large write-behind flushes.
// Cross-client coherence rides on an MCAT generation attribute checked on
// open and size() and bumped whenever this handle's dirty data is flushed.
#pragma once

#include <atomic>
#include <memory>

#include "cache/block_cache.hpp"
#include "core/async_engine.hpp"
#include "core/config.hpp"
#include "core/stream_pool.hpp"
#include "mpiio/adio.hpp"
#include "obs/tracer.hpp"
#include "srb/generation.hpp"

namespace remio::semplar {

class SemplarFile final : public mpiio::adio::FileHandle,
                          private cache::CacheBackend {
 public:
  SemplarFile(simnet::Fabric& fabric, const Config& cfg, const std::string& path,
              std::uint32_t mode);
  ~SemplarFile() override;

  // --- synchronous path (original SEMPLAR): one blocking stream ----------
  std::size_t read_at(std::uint64_t offset, MutByteSpan out) override;
  std::size_t write_at(std::uint64_t offset, ByteSpan data) override;
  std::uint64_t size() override;
  void flush() override;

  // --- noncontiguous path (ROMIO §data sieving / list I/O) ----------------
  // Writes and sparse reads take the list-I/O wire verbs (many extents per
  // message). A read whose holes cost no more wire bytes than the list
  // descriptors they replace (srb::kListReadBytesPerExtent per extent)
  // fetches the extents' hull in one piece and scatters it locally; writes
  // never touch the hull, so concurrent writers of interleaved extents
  // cannot overwrite each other's bytes. Single-extent lists delegate to
  // the plain verbs so accounting and tracing are identical either way;
  // with the block cache enabled both paths are bypassed in favour of
  // cache-granular access.
  std::size_t readv(const ExtentList& extents, MutByteSpan out) override;
  std::size_t writev(const ExtentList& extents, ByteSpan data) override;
  mpiio::IoRequest ireadv(const ExtentList& extents, MutByteSpan out) override;
  mpiio::IoRequest iwritev(const ExtentList& extents, ByteSpan data) override;

  // --- asynchronous path (this paper) -------------------------------------
  mpiio::IoRequest iread_at(std::uint64_t offset, MutByteSpan out) override;
  mpiio::IoRequest iwrite_at(std::uint64_t offset, ByteSpan data) override;

  /// §9 future work, implemented: redundant read. The same read is issued
  /// on *every* stream of the file; the first stream to deliver wins and
  /// its data is copied into `out`, the stragglers' results are discarded.
  /// Cuts tail latency when streams see variable congestion, at the cost
  /// of duplicated wire traffic. With one stream it degrades to iread_at.
  mpiio::IoRequest iread_redundant(std::uint64_t offset, MutByteSpan out);

  const Stats& stats() const { return stats_; }
  StreamPool& streams() { return *streams_; }
  AsyncEngine& engine() { return *engine_; }
  const Config& config() const { return cfg_; }
  bool cached() const { return cache_ != nullptr; }
  cache::BlockCache* cache() { return cache_.get(); }

  /// The file's span tracer; null when Config::Obs is disabled. Snapshot it
  /// (obs::Tracer::snapshot) for per-rank overlap analysis or trace export.
  obs::Tracer* tracer() override { return tracer_.get(); }

 private:
  // --- CacheBackend: what the block cache calls back into ------------------
  // Wire transfers round-robin across the file's streams so concurrent
  // fills/flushes from different I/O threads use different connections.
  std::size_t cache_pread(std::uint64_t offset, MutByteSpan out) override;
  std::size_t cache_pwrite(std::uint64_t offset, ByteSpan data) override;
  std::uint64_t cache_stat_size() override;
  bool cache_run_async(std::function<void()> fn) override;

  /// The file's stream round-robin: the cache's wire transfers and the
  /// whole (below-one-window) async requests each take the next stream.
  int pick_stream();

  /// Coherence check (open, size()): re-reads the object's generation
  /// attribute and invalidates cached blocks when another writer moved it.
  void check_generation();
  /// Publishes our dirty data's visibility: bumps the generation after a
  /// flush that wrote anything (and remembers it so we don't self-invalidate).
  void publish_generation();

  /// The synchronous verbs' one span site: counts the call, runs `io` on
  /// the caller's thread, then records its kSyncRead/kSyncWrite span and
  /// its bytes.
  template <bool IsWrite, class Io>
  std::size_t sync_op(Io io);

  /// The cached async verbs' one span site: `io` (cache-granular access)
  /// runs as one engine task, which records the kIread/kIwrite span from
  /// issue to completion and the bytes.
  template <bool IsWrite, class Io>
  mpiio::IoRequest submit_cached(Io io);

  /// The uncached async verbs' one span site: submits task_for(k) for
  /// k in [0, active) as supervised engine tasks joined into one master
  /// request, which completes (and records its kIread/kIwrite span) when
  /// the last task reaches its final outcome.
  template <bool IsWrite, class TaskFor>
  mpiio::IoRequest submit_joined(int active, TaskFor task_for);

  /// Plans a striped transfer. Explicit stripe_size: stream s handles
  /// chunks s, s+S, s+2S, ... of `stripe_size` each, and the whole
  /// per-stream series runs as one FIFO task so chunks on a stream stay
  /// ordered while streams proceed in parallel. Auto (Config::kAutoStripe):
  /// a request smaller than min(conn.tcp_window, 64 KiB) (64 KiB when the
  /// window is 0) fits one window, so it runs whole as one task on the
  /// stream pick_stream() returns next; a larger one is split into S even
  /// contiguous ranges, one task per stream.
  template <bool IsWrite, class Span>
  mpiio::IoRequest submit_striped(std::uint64_t offset, Span data);

  /// Moves `extents` <-> the packed buffer on one stream: one hull fetch
  /// plus a local scatter when `hull_read` (reads only), the list verbs
  /// otherwise. `once` selects the single-attempt pool flavours (engine-
  /// replayed tasks) over the blocking-supervised ones (sync callers).
  /// Returns the bytes moved; reads stop at the first short extent.
  template <bool IsWrite, class Span>
  std::size_t transfer_extents(int stream, const ExtentList& extents,
                               Span data, bool hull_read, bool once);

  /// Async flavour of transfer_extents: partitions the list count-evenly
  /// across the file's streams, one supervised engine task per stream,
  /// joined into one master request (submit_joined). The hull-or-list
  /// choice is made once for the whole list, as on the sync path.
  template <bool IsWrite, class Span>
  mpiio::IoRequest submit_extents(const ExtentList& extents, Span data);

  Config cfg_;
  Stats stats_;
  // Declared before the layers that record into it: members are destroyed
  // in reverse order, so the tracer outlives pool/engine/cache.
  std::unique_ptr<obs::Tracer> tracer_;  // null when cfg_.obs.enabled == false
  std::unique_ptr<StreamPool> streams_;
  std::unique_ptr<AsyncEngine> engine_;
  std::unique_ptr<cache::BlockCache> cache_;  // null when cfg_.cache_bytes == 0
  std::atomic<unsigned> rr_{0};               // backend stream round-robin
  std::string writer_tag_;                    // this handle's generation tag
  srb::Generation last_gen_;                  // last generation we observed
};

class SrbfsDriver final : public mpiio::adio::Driver {
 public:
  /// One driver per node/rank: `cfg.client_host` pins which fabric host the
  /// connections originate from.
  SrbfsDriver(simnet::Fabric& fabric, Config cfg);

  std::string scheme() const override { return "srbfs"; }
  std::unique_ptr<mpiio::adio::FileHandle> open(const std::string& path,
                                                std::uint32_t mode) override;
  void remove(const std::string& path) override;
  bool exists(const std::string& path) override;

  const Config& config() const { return cfg_; }
  Config& config() { return cfg_; }

 private:
  /// Short-lived catalog connection for namespace operations.
  std::unique_ptr<srb::SrbClient> catalog_client();

  simnet::Fabric& fabric_;
  Config cfg_;
};

/// Paper-facing aliases for the request operations (§4.2).
inline std::size_t MPIO_Wait(mpiio::IoRequest& req) { return req.wait(); }
inline bool MPIO_Test(const mpiio::IoRequest& req) { return req.test(); }

}  // namespace remio::semplar
