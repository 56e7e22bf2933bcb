// Client-side per-file block cache for remote I/O: an LRU cache of
// fixed-size blocks layered between the SEMPLAR file handle and its stream
// pool. Where the paper's async engine *hides* broker round-trip latency
// behind compute (§7.1), this layer *removes* round trips on re-reads,
// overlaps speculative read-ahead with compute, and coalesces small writes
// into large striped flushes (ROMIO data-sieving spirit).
//
// Concurrency model: one mutex guards all metadata; every wire call happens
// with the mutex released. A block being populated is marked `filling` and
// pinned — pinned blocks are never evicted or invalidated, and any other
// access to a filling block waits on a condition variable until the fill
// lands. Fill transfers only touch bytes at or beyond `valid`, and dirty
// bytes only exist below `valid`, so fills never clobber dirty data.
//
// Block layout invariant: `data[0, valid)` is meaningful (a mix of clean
// bytes fetched from the broker and dirty bytes written locally); bytes
// beyond `valid` are unknown. Writes that land past `valid` first fetch the
// gap (read-modify-write, zero-filling past EOF to match the broker's
// sparse-object semantics), so `valid` always grows contiguously.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <unordered_map>

#include "cache/cache_stats.hpp"
#include "cache/prefetcher.hpp"
#include "cache/writeback.hpp"
#include "common/bytes.hpp"
#include "common/extent.hpp"
#include "obs/tracer.hpp"

namespace remio::cache {

struct CacheOptions {
  std::size_t capacity_bytes = 0;      // total data bytes resident
  std::size_t block_bytes = 1u << 20;  // fixed block size
  int readahead_blocks = 0;            // 0 = no prefetch
  std::size_t writeback_hwm = 0;       // 0 = write-through
  /// Per-block CRC32C on fetched data: computed when a fill lands, checked
  /// before a clean block is evicted and by verify_resident(). The hit path
  /// does no checksum work, so hits stay as cheap as before. Local writes
  /// stale a block's sum (dirty bytes are covered by the wire/at-rest
  /// checksums once flushed).
  bool verify = true;
};

/// What the cache needs from the layer below. SEMPLAR wires this to its
/// StreamPool (synchronous transfers) and AsyncEngine (speculative fills).
class CacheBackend {
 public:
  virtual ~CacheBackend() = default;
  virtual std::size_t cache_pread(std::uint64_t offset, MutByteSpan out) = 0;
  virtual std::size_t cache_pwrite(std::uint64_t offset, ByteSpan data) = 0;
  virtual std::uint64_t cache_stat_size() = 0;
  /// Schedules `fn` on the owner's async engine; returns false when it cannot
  /// be scheduled right now (queue full / shut down) — the caller abandons
  /// the speculation instead of blocking an I/O thread.
  virtual bool cache_run_async(std::function<void()> fn) = 0;
};

class BlockCache {
 public:
  /// `counters` may be null (bench/unit use); `backend` must outlive the
  /// cache, and all async fills must have completed before destruction
  /// (SEMPLAR shuts its engine down first). `tracer` (optional) records
  /// fill/prefetch/flush/integrity spans and a 1-in-64 sample of hits.
  BlockCache(CacheBackend& backend, const CacheOptions& opts,
             CacheCounters* counters, obs::Tracer* tracer = nullptr);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// POSIX pread/pwrite semantics (short read at EOF, writes extend).
  std::size_t read(std::uint64_t offset, MutByteSpan out);
  std::size_t write(std::uint64_t offset, ByteSpan data);

  /// Vectored flavours over a sorted, disjoint extent list and a packed
  /// buffer. One lock acquisition for the whole list; fills are block-
  /// granular, so the holes between extents are never fetched. A strided
  /// write rides the normal dirty-marking, giving it the same read-modify-
  /// write and write-behind coalescing as contiguous writes.
  std::size_t readv(const ExtentList& extents, MutByteSpan out);
  std::size_t writev(const ExtentList& extents, ByteSpan data);

  /// Writes back everything dirty, coalesced into contiguous runs; returns
  /// bytes put on the wire.
  std::size_t flush();

  /// Flushes dirty data, then drops every unpinned block and the access
  /// history (coherence: another client's generation bump was observed).
  void invalidate();

  /// max(broker size, local write extent) — what `size()` must report while
  /// dirty data has not reached the broker yet.
  std::uint64_t logical_size();

  /// True once any write went through the cache since the last take_wrote();
  /// the owner uses it to decide when to bump the coherence generation.
  bool take_wrote();

  /// Checks every resident block whose CRC is current against its data;
  /// returns the number of mismatches (also counted in CacheCounters).
  /// A scrub for the client-side copy of the data.
  std::size_t verify_resident();

  /// Test hook: silently flips one byte of resident cached data (no CRC
  /// update), simulating client-memory rot the verify paths must catch.
  /// No-op when the byte is not resident.
  void debug_flip_byte(std::uint64_t offset);

  // Introspection (tests, stats dumps).
  std::size_t resident_blocks() const;
  std::size_t dirty_bytes() const;

 private:
  struct Block {
    std::uint64_t index = 0;
    Bytes data;
    std::size_t valid = 0;    // contiguous meaningful prefix of `data`
    int pins = 0;             // in-flight users; pinned blocks never leave
    bool filling = false;     // a wire fetch is populating this block
    bool queued_prefetch = false;  // speculative fill queued, not yet running
    bool prefetched = false;  // filled speculatively, not yet demanded
    std::uint32_t sum = 0;       // CRC32C over data[0, sum_valid)
    std::size_t sum_valid = 0;   // prefix the sum covers; != valid ⇒ stale
    std::list<std::uint64_t>::iterator lru_it;
  };

  using Lock = std::unique_lock<std::mutex>;

  /// read()/write() bodies with the lock already held; readv/writev loop
  /// these per extent under one acquisition. Both may release and retake
  /// the lock around wire transfers but return with it held.
  std::size_t read_locked(Lock& lk, std::uint64_t offset, MutByteSpan out);
  std::size_t write_locked(Lock& lk, std::uint64_t offset, ByteSpan data);

  /// Finds or creates the block, waits out any in-flight fill, pins it and
  /// front-moves its LRU slot. May release the lock (fills, eviction I/O).
  Block& acquire_block(Lock& lk, std::uint64_t index);
  void unpin(Block& b);

  /// Extends b.valid to at least `target` by fetching [valid, block end)
  /// from the backend (released lock); zero-fills any tail the broker does
  /// not have when `target` demands it (write gap past EOF). Waits out a
  /// concurrent fill of the same block first.
  void fill_block(Lock& lk, Block& b, std::size_t target);

  /// Extends b's CRC over the bytes a fill just landed in [from, b.valid),
  /// seed-chaining from the existing sum; skipped when the sum was already
  /// stale (a local write intervened).
  void extend_sum(Block& b, std::size_t from) const;
  /// True when b's CRC is current and matches its data; counts the check
  /// (and any failure) in CacheCounters / the tracer.
  bool check_sum(const Block& b);

  /// Evicts LRU blocks (never pinned/filling ones) until within capacity;
  /// dirty victims are written back first. Tolerates overshoot when
  /// everything is pinned.
  void enforce_capacity(Lock& lk);

  /// Flush under flush_mu_ (whole flushes are serialized so an overlapping
  /// later flush cannot land before an earlier snapshot): `plan` is invoked
  /// once flush_mu_ and mu_ are both held, buffers are assembled under the
  /// lock, dirty marks cleared, wire writes issued with mu_ released.
  /// Re-marks still-resident parts on error.
  std::size_t flush_planned(
      Lock& lk, const std::function<std::vector<WritebackBuffer::Run>()>& plan);
  std::size_t flush_all(Lock& lk);

  /// Issues read-ahead for `candidates` (already filtered): creates pinned
  /// filling placeholders, then schedules fills outside the lock.
  void issue_prefetch(Lock& lk, const std::vector<std::uint64_t>& candidates);
  void prefetch_fill(std::uint64_t index);

  CacheBackend& backend_;
  const CacheOptions opts_;
  CacheCounters* counters_;
  obs::Tracer* tracer_;

  mutable std::mutex mu_;
  std::mutex flush_mu_;  // serializes whole flushes; taken with mu_ released
  std::condition_variable fill_cv_;
  std::unordered_map<std::uint64_t, Block> blocks_;
  std::list<std::uint64_t> lru_;  // front = most recent
  WritebackBuffer writeback_;
  Prefetcher prefetcher_;
  int prefetch_inflight_ = 0;
  std::uint64_t known_size_ = 0;   // max(broker size seen, local extent)
  std::uint64_t local_extent_ = 0; // furthest byte written through the cache
  bool wrote_ = false;
};

}  // namespace remio::cache
