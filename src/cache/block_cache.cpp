#include "cache/block_cache.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/checksum.hpp"
#include "simnet/timescale.hpp"

namespace remio::cache {

BlockCache::BlockCache(CacheBackend& backend, const CacheOptions& opts,
                       CacheCounters* counters, obs::Tracer* tracer)
    : backend_(backend),
      opts_(opts),
      counters_(counters),
      tracer_(tracer),
      writeback_(opts.writeback_hwm, counters),
      prefetcher_(opts.readahead_blocks) {
  if (opts_.block_bytes == 0)
    throw std::invalid_argument("BlockCache: block_bytes must be > 0");
  if (opts_.capacity_bytes < opts_.block_bytes)
    throw std::invalid_argument("BlockCache: capacity below one block");
  known_size_ = backend_.cache_stat_size();
}

// ---------------------------------------------------------------------------
// Block acquisition / fills
// ---------------------------------------------------------------------------

BlockCache::Block& BlockCache::acquire_block(Lock& lk, std::uint64_t index) {
  for (;;) {
    auto it = blocks_.find(index);
    if (it == blocks_.end()) break;
    Block& b = it->second;
    if (b.queued_prefetch) {
      // The speculative fill has not started yet — steal the placeholder
      // rather than wait on a task that may sit behind us in the I/O queue.
      b.queued_prefetch = false;
      b.prefetched = false;
      // We own the pending task's pin now (the task will see the cleared
      // flag and leave pins alone); it becomes the caller's pin.
      lru_.splice(lru_.begin(), lru_, b.lru_it);
      return b;
    }
    if (!b.filling) {
      ++b.pins;
      lru_.splice(lru_.begin(), lru_, b.lru_it);
      return b;
    }
    // A wire fetch is running on another thread; it finishes without
    // needing this queue slot, so waiting here cannot deadlock.
    fill_cv_.wait(lk);
  }

  auto [it, inserted] = blocks_.try_emplace(index);
  Block& b = it->second;
  b.index = index;
  b.data.resize(opts_.block_bytes);
  lru_.push_front(index);
  b.lru_it = lru_.begin();
  b.pins = 1;
  enforce_capacity(lk);  // may release the lock; `b` is pinned so it stays
  return b;
}

void BlockCache::unpin(Block& b) { --b.pins; }

void BlockCache::fill_block(Lock& lk, Block& b, std::size_t target) {
  // Two pinned users of the same block may both decide to extend it; only
  // one fill runs at a time (fills write into b.data with the lock dropped).
  while (b.filling) fill_cv_.wait(lk);
  if (target <= b.valid) return;
  b.filling = true;
  const std::uint64_t base = b.index * opts_.block_bytes;
  const std::size_t from = b.valid;
  // Fetch through to the end of the block (intra-block read-ahead): same
  // round trip, and the rest of the block becomes hits. Clamp to the file.
  const std::uint64_t limit = known_size_ > base ? known_size_ - base : 0;
  const auto fetch_end = static_cast<std::size_t>(
      std::min<std::uint64_t>(opts_.block_bytes, limit));

  std::size_t n = 0;
  std::exception_ptr err;
  if (fetch_end > from) {
    lk.unlock();
    // Filling blocks are never evicted or erased, and bytes >= valid are
    // untouched by everyone else, so writing into b.data unlocked is safe.
    try {
      n = backend_.cache_pread(base + from,
                               MutByteSpan(b.data.data() + from, fetch_end - from));
    } catch (...) {
      err = std::current_exception();
    }
    lk.lock();
  }
  b.valid = from + n;
  if (!err && b.valid < target) {
    // The broker has fewer bytes than the logical size (an unflushed local
    // write further out extends the file): the hole reads as zeros, exactly
    // what the broker's sparse objects will produce once the flush lands.
    std::fill(b.data.begin() + static_cast<std::ptrdiff_t>(b.valid),
              b.data.begin() + static_cast<std::ptrdiff_t>(target), 0);
    b.valid = target;
  }
  if (!err) extend_sum(b, from);
  b.filling = false;
  fill_cv_.notify_all();
  if (err) std::rethrow_exception(err);
}

// ---------------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------------

std::size_t BlockCache::read(std::uint64_t offset, MutByteSpan out) {
  Lock lk(mu_);
  return read_locked(lk, offset, out);
}

std::size_t BlockCache::readv(const ExtentList& extents, MutByteSpan out) {
  // One lock acquisition for the whole list; fills still release the lock
  // per block. Only the blocks an extent actually touches are filled, so
  // the holes between extents never hit the wire (hole-aware fills).
  Lock lk(mu_);
  std::size_t total = 0;
  std::size_t packed = 0;
  for (const Extent& x : extents) {
    const auto want = static_cast<std::size_t>(x.len);
    const std::size_t n = read_locked(lk, x.offset, out.subspan(packed, want));
    total += n;
    packed += want;
    if (n < want) break;  // EOF: a sorted list has nothing further
  }
  return total;
}

std::size_t BlockCache::read_locked(Lock& lk, std::uint64_t offset,
                                    MutByteSpan out) {
  if (out.empty()) return 0;
  // Refresh EOF knowledge when the request reaches past what we believe
  // exists (covers files grown by other handles between coherence checks).
  if (offset + out.size() > known_size_) {
    lk.unlock();
    const std::uint64_t server = backend_.cache_stat_size();
    lk.lock();
    known_size_ = std::max({known_size_, server, local_extent_});
  }
  if (offset >= known_size_) return 0;
  const auto want = static_cast<std::size_t>(
      std::min<std::uint64_t>(out.size(), known_size_ - offset));

  const std::uint64_t first = offset / opts_.block_bytes;
  const std::uint64_t last = (offset + want - 1) / opts_.block_bytes;

  std::size_t done = 0;
  while (done < want) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t idx = pos / opts_.block_bytes;
    const auto in_blk = static_cast<std::size_t>(pos % opts_.block_bytes);
    const std::size_t len = std::min(want - done, opts_.block_bytes - in_blk);

    Block& b = acquire_block(lk, idx);
    const bool was_prefetched = b.prefetched;
    b.prefetched = false;
    const bool missed = in_blk + len > b.valid;
    if (missed) {
      const double t0 = tracer_ != nullptr ? simnet::sim_now() : 0.0;
      try {
        fill_block(lk, b, in_blk + len);
      } catch (...) {
        unpin(b);
        throw;
      }
      if (tracer_ != nullptr) {
        obs::Span s;
        s.op_id = tracer_->next_op_id();
        s.kind = obs::SpanKind::kCacheFill;
        s.bytes = len;
        s.enqueue = s.dequeue = s.wire_start = t0;
        s.wire_end = simnet::sim_now();
        tracer_->record(s);
      }
    } else if (tracer_ != nullptr) {
      // Hits are the hot path (every cached application read lands here):
      // counted in CacheCounters, materialized as ring spans only 1-in-64.
      tracer_->note_instant(obs::SpanKind::kCacheHit, len);
    }
    if (counters_ != nullptr) {
      CacheCounters::bump(missed ? counters_->misses : counters_->hits);
      if (was_prefetched && !missed)
        CacheCounters::bump(counters_->prefetch_useful);
    }
    std::copy_n(b.data.data() + in_blk, len, out.data() + done);
    unpin(b);
    done += len;
  }

  issue_prefetch(lk, prefetcher_.on_access(first, last - first + 1));
  return done;
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

std::size_t BlockCache::write(std::uint64_t offset, ByteSpan data) {
  Lock lk(mu_);
  return write_locked(lk, offset, data);
}

std::size_t BlockCache::writev(const ExtentList& extents, ByteSpan data) {
  Lock lk(mu_);
  std::size_t total = 0;
  std::size_t packed = 0;
  for (const Extent& x : extents) {
    const auto len = static_cast<std::size_t>(x.len);
    total += write_locked(lk, x.offset, data.subspan(packed, len));
    packed += len;
  }
  return total;
}

std::size_t BlockCache::write_locked(Lock& lk, std::uint64_t offset,
                                     ByteSpan data) {
  if (data.empty()) return 0;
  bool crossed_hwm = false;
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t idx = pos / opts_.block_bytes;
    const auto in_blk = static_cast<std::size_t>(pos % opts_.block_bytes);
    const std::size_t len = std::min(data.size() - done, opts_.block_bytes - in_blk);

    Block& b = acquire_block(lk, idx);
    // A co-pinned reader may have started a fill after we acquired (the lock
    // drops inside acquire_block's eviction); our copy below may extend past
    // `valid` into the very bytes that fill is streaming into — wait it out.
    while (b.filling) fill_cv_.wait(lk);
    b.prefetched = false;
    if (in_blk > b.valid) {
      // Read-modify-write: materialize the gap below the write position so
      // `valid` stays a contiguous prefix.
      try {
        fill_block(lk, b, in_blk);
      } catch (...) {
        unpin(b);
        throw;
      }
    }
    std::copy_n(data.data() + done, len, b.data.data() + in_blk);
    b.valid = std::max(b.valid, in_blk + len);
    // Local writes stale the fill-time CRC; the dirty bytes get fresh
    // coverage from the wire checksum on flush and the at-rest sums after.
    b.sum_valid = b.data.size() + 1;  // never equals valid again until refill
    if (!writeback_.write_through())
      crossed_hwm =
          writeback_.mark_dirty(idx, in_blk, in_blk + len, opts_.block_bytes) ||
          crossed_hwm;
    unpin(b);
    done += len;
  }
  wrote_ = true;
  local_extent_ =
      std::max(local_extent_, offset + static_cast<std::uint64_t>(data.size()));
  known_size_ = std::max(known_size_, local_extent_);

  if (writeback_.write_through()) {
    // Cache updated for future reads; the write itself goes straight out.
    // Re-lock afterwards: writev loops back into write_locked.
    lk.unlock();
    const std::size_t n = backend_.cache_pwrite(offset, data);
    lk.lock();
    return n;
  }
  if (crossed_hwm) flush_all(lk);
  return data.size();
}

// ---------------------------------------------------------------------------
// Write-behind flushing
// ---------------------------------------------------------------------------

std::size_t BlockCache::flush() {
  Lock lk(mu_);
  return flush_all(lk);
}

std::size_t BlockCache::flush_all(Lock& lk) {
  if (writeback_.write_through()) return 0;
  return flush_planned(lk, [this] { return writeback_.plan(opts_.block_bytes); });
}

std::size_t BlockCache::flush_planned(
    Lock& lk, const std::function<std::vector<WritebackBuffer::Run>()>& plan) {
  // Serialize whole flushes: once a snapshot's dirty marks are cleared and
  // its wire writes are in flight, a later flush of re-dirtied overlapping
  // bytes must not be able to land first. flush_mu_ is taken with mu_
  // released (lock order), then the plan is made against current state.
  lk.unlock();
  std::lock_guard flush_serial(flush_mu_);
  lk.lock();

  const std::vector<WritebackBuffer::Run> runs = plan();
  if (runs.empty()) return 0;

  // Assemble the wire buffers under the lock — a consistent snapshot — and
  // clear the dirty marks now; concurrent writers re-dirty for a later pass.
  std::vector<std::pair<std::uint64_t, Bytes>> writes;
  writes.reserve(runs.size());
  for (const auto& run : runs) {
    Bytes buf;
    buf.reserve(static_cast<std::size_t>(run.extent.len));
    for (const auto& [index, range] : run.parts) {
      const Block& b = blocks_.at(index);
      buf.insert(buf.end(),
                 b.data.begin() + static_cast<std::ptrdiff_t>(range.begin),
                 b.data.begin() + static_cast<std::ptrdiff_t>(range.end));
      writeback_.clear(index);
    }
    writes.emplace_back(run.extent.offset, std::move(buf));
  }

  lk.unlock();
  const double flush_t0 = tracer_ != nullptr ? simnet::sim_now() : 0.0;
  std::size_t total = 0;
  std::size_t completed = 0;
  std::exception_ptr err;
  for (const auto& [file_offset, buf] : writes) {
    try {
      total += backend_.cache_pwrite(file_offset, ByteSpan(buf.data(), buf.size()));
      ++completed;
    } catch (...) {
      err = std::current_exception();
      break;
    }
  }
  lk.lock();
  if (tracer_ != nullptr) {
    obs::Span s;
    s.op_id = tracer_->next_op_id();
    s.kind = obs::SpanKind::kFlush;
    s.bytes = total;
    s.enqueue = s.dequeue = s.wire_start = flush_t0;
    s.wire_end = simnet::sim_now();
    tracer_->record(s);
  }

  if (counters_ != nullptr && completed > 0)
    CacheCounters::bump(counters_->writeback_flushes, completed);
  if (err) {
    // Re-mark what never reached the wire so a later flush retries it
    // (unless the block was evicted meanwhile — then the bytes are gone and
    // the error is the caller's only signal).
    for (std::size_t i = completed; i < runs.size(); ++i)
      for (const auto& [index, range] : runs[i].parts)
        if (blocks_.count(index) != 0)
          writeback_.mark_dirty(index, range.begin, range.end, opts_.block_bytes);
    std::rethrow_exception(err);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Eviction
// ---------------------------------------------------------------------------

void BlockCache::enforce_capacity(Lock& lk) {
  while (blocks_.size() * opts_.block_bytes > opts_.capacity_bytes) {
    Block* victim = nullptr;
    auto victim_it = lru_.end();
    for (auto rit = lru_.rbegin(); rit != lru_.rend(); ++rit) {
      Block& cand = blocks_.at(*rit);
      if (cand.pins == 0 && !cand.filling) {
        victim = &cand;
        victim_it = std::prev(rit.base());
        break;
      }
    }
    if (victim == nullptr) return;  // everything pinned: tolerate overshoot

    if (writeback_.dirty_range(victim->index) != nullptr) {
      const std::uint64_t index = victim->index;
      flush_planned(
          lk, [this, index] { return writeback_.plan_block(index, opts_.block_bytes); });
      continue;  // lock was released: re-scan from scratch
    }
    // Last chance to notice client-memory rot before the copy disappears;
    // counted, not thrown — the canonical bytes still live on the broker.
    check_sum(*victim);
    blocks_.erase(*victim_it);
    lru_.erase(victim_it);
  }
}

// ---------------------------------------------------------------------------
// Read-ahead
// ---------------------------------------------------------------------------

void BlockCache::issue_prefetch(Lock& lk,
                                const std::vector<std::uint64_t>& candidates) {
  if (candidates.empty()) return;
  std::vector<std::uint64_t> to_issue;
  for (const std::uint64_t idx : candidates) {
    if (prefetch_inflight_ >= 2 * std::max(1, opts_.readahead_blocks)) break;
    if (idx * opts_.block_bytes >= known_size_) continue;  // nothing there
    if (blocks_.count(idx) != 0) continue;  // resident or already in flight

    auto [it, inserted] = blocks_.try_emplace(idx);
    Block& b = it->second;
    b.index = idx;
    b.data.resize(opts_.block_bytes);
    lru_.push_front(idx);
    b.lru_it = lru_.begin();
    b.pins = 1;  // the pending task's pin
    b.queued_prefetch = true;
    b.prefetched = true;
    ++prefetch_inflight_;
    to_issue.push_back(idx);
  }
  if (to_issue.empty()) return;
  enforce_capacity(lk);

  lk.unlock();
  for (const std::uint64_t idx : to_issue) {
    if (backend_.cache_run_async([this, idx] { prefetch_fill(idx); })) {
      if (counters_ != nullptr) CacheCounters::bump(counters_->prefetch_issued);
    } else {
      // Engine full or shut down: abandon the speculation.
      Lock relk(mu_);
      auto it = blocks_.find(idx);
      if (it != blocks_.end() && it->second.queued_prefetch) {
        lru_.erase(it->second.lru_it);
        blocks_.erase(it);
      }
      --prefetch_inflight_;
      fill_cv_.notify_all();
    }
  }
  lk.lock();
}

void BlockCache::prefetch_fill(std::uint64_t index) {
  Lock lk(mu_);
  auto it = blocks_.find(index);
  if (it == blocks_.end() || !it->second.queued_prefetch) {
    // Stolen by a demand access (which took over the pin) or dropped.
    --prefetch_inflight_;
    return;
  }
  Block& b = it->second;
  b.queued_prefetch = false;
  b.filling = true;
  const std::uint64_t base = index * opts_.block_bytes;
  const std::size_t from = b.valid;
  const std::uint64_t limit = known_size_ > base ? known_size_ - base : 0;
  const auto fetch_end = static_cast<std::size_t>(
      std::min<std::uint64_t>(opts_.block_bytes, limit));

  std::size_t n = 0;
  if (fetch_end > from) {
    const double t0 = tracer_ != nullptr ? simnet::sim_now() : 0.0;
    lk.unlock();
    try {
      n = backend_.cache_pread(base + from,
                               MutByteSpan(b.data.data() + from, fetch_end - from));
    } catch (...) {
      n = 0;  // speculative fetch: swallow, a demand access will retry
    }
    lk.lock();
    if (tracer_ != nullptr) {
      obs::Span s;
      s.op_id = tracer_->next_op_id();
      s.kind = obs::SpanKind::kPrefetch;
      s.bytes = n;
      s.enqueue = s.dequeue = s.wire_start = t0;
      s.wire_end = simnet::sim_now();
      tracer_->record(s);
    }
  }
  b.valid = std::max(b.valid, from + n);
  extend_sum(b, from);
  b.filling = false;
  unpin(b);
  --prefetch_inflight_;
  fill_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Integrity
// ---------------------------------------------------------------------------

void BlockCache::extend_sum(Block& b, std::size_t from) const {
  if (!opts_.verify) return;
  // Seed-chaining: crc(0..valid) extends from crc(0..from) over the new
  // bytes. A stale sum (local write since) cannot be extended — skip.
  if (b.sum_valid != from || b.valid <= from) return;
  b.sum = crc32c(ByteSpan(b.data.data() + from, b.valid - from), b.sum);
  b.sum_valid = b.valid;
}

bool BlockCache::check_sum(const Block& b) {
  if (!opts_.verify || b.valid == 0 || b.sum_valid != b.valid) return true;
  const bool ok = crc32c(ByteSpan(b.data.data(), b.valid)) == b.sum;
  if (counters_ != nullptr) {
    CacheCounters::bump(counters_->integrity_verified);
    if (!ok) CacheCounters::bump(counters_->integrity_failures);
  }
  if (!ok && tracer_ != nullptr)
    tracer_->record_instant(obs::SpanKind::kIntegrity, simnet::sim_now(),
                            b.valid);
  return ok;
}

std::size_t BlockCache::verify_resident() {
  Lock lk(mu_);
  std::size_t bad = 0;
  for (auto& [index, b] : blocks_) {
    if (b.filling || b.queued_prefetch) continue;
    if (!check_sum(b)) ++bad;
  }
  return bad;
}

void BlockCache::debug_flip_byte(std::uint64_t offset) {
  Lock lk(mu_);
  const auto it = blocks_.find(offset / opts_.block_bytes);
  if (it == blocks_.end()) return;
  Block& b = it->second;
  const auto in_blk = static_cast<std::size_t>(offset % opts_.block_bytes);
  if (in_blk < b.valid) b.data[in_blk] ^= 0x01;
}

// ---------------------------------------------------------------------------
// Coherence / introspection
// ---------------------------------------------------------------------------

void BlockCache::invalidate() {
  Lock lk(mu_);
  flush_all(lk);  // our dirty bytes win: publish before dropping anything
  for (auto it = lru_.begin(); it != lru_.end();) {
    Block& b = blocks_.at(*it);
    if (b.pins == 0 && !b.filling) {
      blocks_.erase(*it);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  prefetcher_.reset();
  // Re-learn the size: the other client may have grown the file.
  lk.unlock();
  const std::uint64_t server = backend_.cache_stat_size();
  lk.lock();
  local_extent_ = writeback_.empty() ? 0 : local_extent_;
  known_size_ = std::max(server, local_extent_);
}

std::uint64_t BlockCache::logical_size() {
  const std::uint64_t server = backend_.cache_stat_size();
  Lock lk(mu_);
  known_size_ = std::max({known_size_, server, local_extent_});
  return known_size_;
}

bool BlockCache::take_wrote() {
  Lock lk(mu_);
  const bool w = wrote_;
  wrote_ = false;
  return w;
}

std::size_t BlockCache::resident_blocks() const {
  std::lock_guard lk(mu_);
  return blocks_.size();
}

std::size_t BlockCache::dirty_bytes() const {
  std::lock_guard lk(mu_);
  return writeback_.dirty_bytes();
}

}  // namespace remio::cache
