#include "core/srbfs.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#include "simnet/timescale.hpp"

namespace remio::semplar {

// ---------------------------------------------------------------------------
// SemplarFile
// ---------------------------------------------------------------------------

SemplarFile::SemplarFile(simnet::Fabric& fabric, const Config& cfg,
                         const std::string& path, std::uint32_t mode)
    : cfg_(cfg) {
  std::uint32_t srb_flags = 0;
  if (mode & mpiio::kModeRead) srb_flags |= srb::kRead;
  if (mode & mpiio::kModeWrite) srb_flags |= srb::kWrite;
  if (mode & mpiio::kModeCreate) srb_flags |= srb::kCreate;
  if (mode & mpiio::kModeTrunc) srb_flags |= srb::kTrunc;

  if (cfg_.obs.enabled)
    tracer_ = std::make_unique<obs::Tracer>(cfg_.obs.ring_capacity);
  streams_ = std::make_unique<StreamPool>(fabric, cfg_, path, srb_flags,
                                          &stats_, tracer_.get());
  // §4.3: by default one I/O thread spawned lazily on the first async call
  // (the engine resolves io_threads == 0 itself); io_threads >= 1
  // pre-spawns that many threads draining the one FIFO queue.
  engine_ = std::make_unique<AsyncEngine>(cfg_.io_threads, cfg_.queue_capacity,
                                          &stats_, cfg_.retry, tracer_.get());
  if (cfg_.cache_bytes > 0) {
    static std::atomic<std::uint64_t> handle_seq{0};
    writer_tag_ = cfg_.client_host + "#" + std::to_string(++handle_seq);
    cache::CacheOptions opts;
    opts.capacity_bytes = cfg_.cache_bytes;
    opts.block_bytes = cfg_.cache_block_bytes;
    opts.readahead_blocks = cfg_.readahead_blocks;
    opts.writeback_hwm = cfg_.writeback_hwm;
    opts.verify = cfg_.integrity.cache_verify;
    cache_ = std::make_unique<cache::BlockCache>(
        *static_cast<cache::CacheBackend*>(this), opts, &stats_.cache(),
        tracer_.get());
    // Coherence baseline: whoever flushed last before this open.
    last_gen_ = streams_->read_generation();
  }
}

SemplarFile::~SemplarFile() {
  engine_->shutdown();  // complete queued I/O before tearing down streams
  if (cache_ != nullptr) {
    try {
      cache_->flush();
      publish_generation();
    } catch (...) {
      // Destructor: a failed final flush has nowhere to surface. Callers
      // that care about durability call flush() and see the exception there.
    }
  }
  streams_->close();
}

// --- CacheBackend ----------------------------------------------------------

int SemplarFile::pick_stream() {
  return static_cast<int>(rr_.fetch_add(1, std::memory_order_relaxed) %
                          static_cast<unsigned>(streams_->count()));
}

std::size_t SemplarFile::cache_pread(std::uint64_t offset, MutByteSpan out) {
  return streams_->pread(pick_stream(), out, offset);
}

std::size_t SemplarFile::cache_pwrite(std::uint64_t offset, ByteSpan data) {
  return streams_->pwrite(pick_stream(), data, offset);
}

std::uint64_t SemplarFile::cache_stat_size() { return streams_->stat_size(); }

bool SemplarFile::cache_run_async(std::function<void()> fn) {
  return engine_->try_submit([fn = std::move(fn)] {
    fn();
    return std::size_t{0};
  });
}

// --- coherence -------------------------------------------------------------

void SemplarFile::check_generation() {
  const srb::Generation now = streams_->read_generation();
  if (now != last_gen_) {
    if (now.writer != writer_tag_) cache_->invalidate();
    last_gen_ = now;
  }
}

void SemplarFile::publish_generation() {
  if (!cache_->take_wrote()) return;
  last_gen_ = streams_->bump_generation(writer_tag_);
}

// --- verb families ---------------------------------------------------------

namespace {

/// The request-level span of one verb: issued at `issued`, picked up at
/// `started`, finished now. The op id is drawn at completion, after any
/// spans the verb recorded on its way down.
void record_verb_span(obs::Tracer& tracer, obs::SpanKind kind,
                      std::size_t bytes, double issued, double started) {
  obs::Span s;
  s.op_id = tracer.next_op_id();
  s.kind = kind;
  s.bytes = bytes;
  s.enqueue = issued;
  s.dequeue = s.wire_start = started;
  s.wire_end = simnet::sim_now();
  tracer.record(s);
}

/// Shared completion record for a joined request: the master request
/// completes when the last per-stream task finishes.
struct StripeJoin {
  std::shared_ptr<mpiio::IoRequest::State> master;
  std::atomic<int> remaining{0};
  std::atomic<std::size_t> bytes{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  obs::Tracer* tracer = nullptr;
  obs::Span span;  // request-level kIread/kIwrite: issue -> last stripe

  void finish_one() {
    if (remaining.fetch_sub(1) != 1) return;
    std::exception_ptr err;
    {
      std::lock_guard lk(error_mu);
      err = first_error;
    }
    if (tracer != nullptr) {
      span.bytes = bytes.load();
      span.wire_end = simnet::sim_now();
      tracer->record(span);
    }
    if (err)
      mpiio::IoRequest::fail(master, err);
    else
      mpiio::IoRequest::complete(master, bytes.load());
  }

  void record_error(std::exception_ptr e) {
    std::lock_guard lk(error_mu);
    if (!first_error) first_error = std::move(e);
  }
};

template <bool IsWrite>
void add_bytes(Stats& stats, std::size_t n) {
  if constexpr (IsWrite) {
    stats.add_write(n);
  } else {
    stats.add_read(n);
  }
}

}  // namespace

template <bool IsWrite, class Io>
std::size_t SemplarFile::sync_op(Io io) {
  stats_.add_sync();
  const double t0 = tracer_ != nullptr ? simnet::sim_now() : 0.0;
  const std::size_t n = io();
  if (tracer_ != nullptr)
    record_verb_span(*tracer_,
                     IsWrite ? obs::SpanKind::kSyncWrite
                             : obs::SpanKind::kSyncRead,
                     n, t0, t0);
  add_bytes<IsWrite>(stats_, n);
  return n;
}

template <bool IsWrite, class Io>
mpiio::IoRequest SemplarFile::submit_cached(Io io) {
  const double issued = tracer_ != nullptr ? simnet::sim_now() : 0.0;
  return engine_->submit([this, io = std::move(io), issued] {
    const double t0 = tracer_ != nullptr ? simnet::sim_now() : 0.0;
    const std::size_t n = io();
    if (tracer_ != nullptr)
      record_verb_span(*tracer_,
                       IsWrite ? obs::SpanKind::kIwrite : obs::SpanKind::kIread,
                       n, issued, t0);
    add_bytes<IsWrite>(stats_, n);
    return n;
  });
}

template <bool IsWrite, class TaskFor>
mpiio::IoRequest SemplarFile::submit_joined(int active, TaskFor task_for) {
  mpiio::IoRequest master = mpiio::IoRequest::make();
  auto join = std::make_shared<StripeJoin>();
  join->master = master.state();
  join->remaining.store(active);
  if (tracer_ != nullptr) {
    join->tracer = tracer_.get();
    join->span.op_id = tracer_->next_op_id();
    join->span.kind = IsWrite ? obs::SpanKind::kIwrite : obs::SpanKind::kIread;
    join->span.enqueue = simnet::sim_now();
  }
  for (int k = 0; k < active; ++k) {
    // The task throws on failure so the engine can classify and replay it
    // (submit_supervised). Join bookkeeping happens in the completion —
    // once per task, after the final attempt.
    engine_->submit_supervised(
        task_for(k), [this, join](std::size_t moved, std::exception_ptr err) {
          if (err == nullptr) {
            join->bytes.fetch_add(moved);
            add_bytes<IsWrite>(stats_, moved);
          } else {
            join->record_error(err);
          }
          join->finish_one();
        });
  }
  return master;
}

// --- file verbs ------------------------------------------------------------

std::size_t SemplarFile::read_at(std::uint64_t offset, MutByteSpan out) {
  return sync_op<false>([&] {
    return cache_ != nullptr ? cache_->read(offset, out)
                             : streams_->pread(0, out, offset);
  });
}

std::size_t SemplarFile::write_at(std::uint64_t offset, ByteSpan data) {
  return sync_op<true>([&] {
    return cache_ != nullptr ? cache_->write(offset, data)
                             : streams_->pwrite(0, data, offset);
  });
}

std::uint64_t SemplarFile::size() {
  engine_->drain();  // size must reflect completed queued writes
  if (cache_ != nullptr) {
    check_generation();
    return cache_->logical_size();
  }
  return streams_->stat_size();
}

void SemplarFile::flush() {
  engine_->drain();
  if (cache_ != nullptr) {
    cache_->flush();
    publish_generation();
  }
}

template <bool IsWrite, class Span>
mpiio::IoRequest SemplarFile::submit_striped(std::uint64_t offset, Span data) {
  const int stream_count = streams_->count();
  const std::size_t n = data.size();
  // Auto mode: one contiguous range per stream (a single broker round trip
  // each). Explicit mode: round-robin stripe_size chunks.
  const std::size_t stripe =
      cfg_.stripe_size != Config::kAutoStripe
          ? cfg_.stripe_size
          : std::max<std::size_t>(
                1, (n + static_cast<std::size_t>(stream_count) - 1) /
                       static_cast<std::size_t>(stream_count));

  // Streams that actually carry chunks for this request.
  int active = stream_count;
  if (n == 0) {
    active = 1;
  } else {
    const auto chunks = static_cast<int>((n + stripe - 1) / stripe);
    if (chunks < active) active = chunks;
  }

  // Each task re-runs from scratch on replay, which is safe because every
  // chunk is offset-addressed. With a dead stream the pool's *_once
  // flavours transparently re-route `s` onto a survivor.
  return submit_joined<IsWrite>(active, [&](int s) {
    return [this, s, stream_count, stripe, offset, data] {
      std::size_t moved = 0;
      for (std::size_t start = static_cast<std::size_t>(s) * stripe;
           start < data.size();
           start += static_cast<std::size_t>(stream_count) * stripe) {
        const std::size_t len = std::min(stripe, data.size() - start);
        if constexpr (IsWrite) {
          moved +=
              streams_->pwrite_once(s, data.subspan(start, len), offset + start);
        } else {
          moved +=
              streams_->pread_once(s, data.subspan(start, len), offset + start);
        }
      }
      return moved;
    };
  });
}

// --- noncontiguous strategies ----------------------------------------------

SemplarFile::Strategy SemplarFile::pick_strategy(
    const ExtentList& extents) const {
  if (!cfg_.sieve.enabled) return Strategy::kNaive;
  switch (cfg_.sieve.mode) {
    case Config::Sieve::Mode::kNaive: return Strategy::kNaive;
    case Config::Sieve::Mode::kSieve: return Strategy::kSieve;
    case Config::Sieve::Mode::kList: return Strategy::kList;
    case Config::Sieve::Mode::kAuto: break;
  }
  // Auto heuristic: sieve while the hull (extents plus the holes between
  // them) is small enough that shipping the holes beats the per-extent
  // round trips; hand larger or sparser patterns to the list verb.
  return hull(extents).len <= cfg_.sieve.max_hull_bytes ? Strategy::kSieve
                                                        : Strategy::kList;
}

namespace {

/// One kSieve/kListIo span covering a whole strategy transfer on one
/// stream. Rides the enclosing engine task's op id when there is one, so
/// the trace ties hull fetches and list batches back to their request.
void record_strategy_span(obs::Tracer* tracer, obs::SpanKind kind,
                          std::size_t bytes, double t0) {
  if (tracer == nullptr) return;
  obs::Span s;
  const obs::Span* op = obs::current_op_span();
  s.op_id = op != nullptr ? op->op_id : tracer->next_op_id();
  s.kind = kind;
  s.bytes = bytes;
  s.enqueue = s.dequeue = s.wire_start = t0;
  s.wire_end = simnet::sim_now();
  tracer->record(s);
}

}  // namespace

template <bool IsWrite, class Span>
std::size_t SemplarFile::transfer_extents(Strategy strategy, int stream,
                                          const ExtentList& extents, Span data,
                                          bool once) {
  if (extents.empty()) return 0;
  const double t0 = tracer_ != nullptr ? simnet::sim_now() : 0.0;

  if (strategy == Strategy::kList) {
    std::size_t moved;
    if constexpr (IsWrite) {
      moved = once ? streams_->pwritev_once(stream, extents, data)
                   : streams_->pwritev(stream, extents, data);
    } else {
      moved = once ? streams_->preadv_once(stream, extents, data)
                   : streams_->preadv(stream, extents, data);
    }
    record_strategy_span(tracer_.get(), obs::SpanKind::kListIo, moved, t0);
    return moved;
  }

  if (strategy == Strategy::kSieve) {
    const Extent h = hull(extents);
    Bytes scratch(static_cast<std::size_t>(h.len));  // zero-filled
    std::size_t moved = 0;
    if constexpr (IsWrite) {
      // Read-modify-write: fetch the pre-image so the holes between
      // extents survive the hull write. Bytes past EOF stay zero, which
      // matches the broker's sparse-object semantics for a hole created
      // by extending per-extent writes.
      const MutByteSpan pre(scratch.data(), scratch.size());
      once ? streams_->pread_once(stream, pre, h.offset)
           : streams_->pread(stream, pre, h.offset);
      for (const Extent& x : extents) {
        std::copy_n(data.data() + moved, static_cast<std::size_t>(x.len),
                    scratch.data() + (x.offset - h.offset));
        moved += static_cast<std::size_t>(x.len);
      }
      const ByteSpan image(scratch.data(), scratch.size());
      once ? streams_->pwrite_once(stream, image, h.offset)
           : streams_->pwrite(stream, image, h.offset);
    } else {
      const MutByteSpan in(scratch.data(), scratch.size());
      const std::size_t got = once ? streams_->pread_once(stream, in, h.offset)
                                   : streams_->pread(stream, in, h.offset);
      for (const Extent& x : extents) {
        const std::uint64_t rel = x.offset - h.offset;
        const std::size_t avail =
            got > rel ? std::min(static_cast<std::size_t>(x.len),
                                 static_cast<std::size_t>(got - rel))
                      : 0;
        std::copy_n(scratch.data() + rel, avail, data.data() + moved);
        moved += avail;
        if (avail < x.len) break;  // short hull read: the rest is past EOF
      }
    }
    record_strategy_span(tracer_.get(), obs::SpanKind::kSieve, moved, t0);
    return moved;
  }

  // Naive: one plain round trip per extent.
  std::size_t moved = 0;
  for (const Extent& x : extents) {
    const std::size_t len = static_cast<std::size_t>(x.len);
    if constexpr (IsWrite) {
      const ByteSpan part = data.subspan(moved, len);
      moved += once ? streams_->pwrite_once(stream, part, x.offset)
                    : streams_->pwrite(stream, part, x.offset);
    } else {
      const MutByteSpan part = data.subspan(moved, len);
      const std::size_t n = once ? streams_->pread_once(stream, part, x.offset)
                                 : streams_->pread(stream, part, x.offset);
      moved += n;
      if (n < len) break;
    }
  }
  return moved;
}

template <bool IsWrite, class Span>
mpiio::IoRequest SemplarFile::submit_extents(const ExtentList& extents,
                                             Span data) {
  if (extents.empty()) {
    mpiio::IoRequest done = mpiio::IoRequest::make();
    mpiio::IoRequest::complete(done.state(), 0);
    return done;
  }
  const Strategy strategy = pick_strategy(extents);
  const int active = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(streams_->count()), extents.size()));

  // Packed-buffer offset of each extent, so a per-stream subset addresses
  // its slice of the caller's buffer directly.
  std::vector<std::size_t> base(extents.size() + 1, 0);
  for (std::size_t i = 0; i < extents.size(); ++i)
    base[i + 1] = base[i] + static_cast<std::size_t>(extents[i].len);

  return submit_joined<IsWrite>(active, [&](int k) {
    // Count-even partition: stream k owns extents [lo, hi). Each subset is
    // itself sorted and disjoint, so every strategy applies per stream.
    const std::size_t lo = extents.size() * static_cast<std::size_t>(k) /
                           static_cast<std::size_t>(active);
    const std::size_t hi = extents.size() *
                           (static_cast<std::size_t>(k) + 1) /
                           static_cast<std::size_t>(active);
    ExtentList subset(extents.begin() + static_cast<std::ptrdiff_t>(lo),
                      extents.begin() + static_cast<std::ptrdiff_t>(hi));
    const Span part = data.subspan(base[lo], base[hi] - base[lo]);
    return [this, strategy, k, subset = std::move(subset), part] {
      return transfer_extents<IsWrite>(strategy, k, subset, part,
                                       /*once=*/true);
    };
  });
}

std::size_t SemplarFile::readv(const ExtentList& extents, MutByteSpan out) {
  // A single extent is exactly a plain read: delegate so spans and stats
  // are indistinguishable from read_at.
  if (extents.size() == 1) return read_at(extents[0].offset, out);
  if (extents.empty()) return 0;
  return sync_op<false>([&] {
    return cache_ != nullptr
               ? cache_->readv(extents, out)
               : transfer_extents<false>(pick_strategy(extents), 0, extents,
                                         out, /*once=*/false);
  });
}

std::size_t SemplarFile::writev(const ExtentList& extents, ByteSpan data) {
  if (extents.size() == 1) return write_at(extents[0].offset, data);
  if (extents.empty()) return 0;
  return sync_op<true>([&] {
    return cache_ != nullptr
               ? cache_->writev(extents, data)
               : transfer_extents<true>(pick_strategy(extents), 0, extents,
                                        data, /*once=*/false);
  });
}

mpiio::IoRequest SemplarFile::ireadv(const ExtentList& extents,
                                     MutByteSpan out) {
  if (extents.size() == 1) return iread_at(extents[0].offset, out);
  // Mirror the cached iread_at: one engine task, cache-granular access.
  if (cache_ != nullptr && !extents.empty())
    return submit_cached<false>(
        [this, extents, out] { return cache_->readv(extents, out); });
  return submit_extents<false>(extents, out);
}

mpiio::IoRequest SemplarFile::iwritev(const ExtentList& extents,
                                      ByteSpan data) {
  if (extents.size() == 1) return iwrite_at(extents[0].offset, data);
  if (cache_ != nullptr && !extents.empty())
    return submit_cached<true>(
        [this, extents, data] { return cache_->writev(extents, data); });
  return submit_extents<true>(extents, data);
}

mpiio::IoRequest SemplarFile::iread_at(std::uint64_t offset, MutByteSpan out) {
  // Cached: one engine task; hits complete without touching the wire,
  // misses do one striped-equivalent fetch inside the cache. The request
  // still overlaps with compute exactly like the uncached async path.
  if (cache_ != nullptr)
    return submit_cached<false>(
        [this, offset, out] { return cache_->read(offset, out); });
  return submit_striped<false>(offset, out);
}

namespace {

/// Shared state of a redundant read: first completion wins and publishes
/// into the caller's buffer; every task owns a scratch buffer so losers
/// never race on `out`.
struct RedundantJoin {
  std::shared_ptr<mpiio::IoRequest::State> master;
  MutByteSpan out;
  std::mutex mu;
  bool won = false;
  int remaining = 0;
  std::exception_ptr last_error;

  /// Returns true if this task is the winner.
  bool finish_one(const Bytes* scratch, std::size_t n, std::exception_ptr err) {
    std::unique_lock lk(mu);
    --remaining;
    if (err) {
      last_error = std::move(err);
      if (remaining == 0 && !won) {
        // Every stream failed: surface the last error.
        lk.unlock();
        mpiio::IoRequest::fail(master, last_error);
      }
      return false;
    }
    if (won) return false;
    won = true;
    std::copy_n(scratch->data(), std::min(n, out.size()), out.data());
    lk.unlock();
    mpiio::IoRequest::complete(master, n);
    return true;
  }
};

}  // namespace

mpiio::IoRequest SemplarFile::iread_redundant(std::uint64_t offset, MutByteSpan out) {
  mpiio::IoRequest master = mpiio::IoRequest::make();
  const int stream_count = streams_->count();

  auto join = std::make_shared<RedundantJoin>();
  join->master = master.state();
  join->out = out;
  join->remaining = stream_count;

  for (int s = 0; s < stream_count; ++s) {
    // Scratch buffer per stream: losers write somewhere harmless.
    auto scratch = std::make_shared<Bytes>(out.size());
    engine_->submit([this, join, scratch, s, offset] {
      std::size_t n = 0;
      std::exception_ptr err;
      try {
        n = streams_->pread(s, MutByteSpan(scratch->data(), scratch->size()), offset);
      } catch (...) {
        err = std::current_exception();
      }
      if (join->finish_one(scratch.get(), n, std::move(err))) stats_.add_read(n);
      return std::size_t{0};
    });
  }
  return master;
}

mpiio::IoRequest SemplarFile::iwrite_at(std::uint64_t offset, ByteSpan data) {
  if (cache_ != nullptr)
    return submit_cached<true>(
        [this, offset, data] { return cache_->write(offset, data); });
  return submit_striped<true>(offset, data);
}

// ---------------------------------------------------------------------------
// SrbfsDriver
// ---------------------------------------------------------------------------

SrbfsDriver::SrbfsDriver(simnet::Fabric& fabric, Config cfg)
    : fabric_(fabric), cfg_(std::move(cfg)) {
  validate(cfg_);
}

std::unique_ptr<mpiio::adio::FileHandle> SrbfsDriver::open(const std::string& path,
                                                           std::uint32_t mode) {
  return std::make_unique<SemplarFile>(fabric_, cfg_, path, mode);
}

std::unique_ptr<srb::SrbClient> SrbfsDriver::catalog_client() {
  return std::make_unique<srb::SrbClient>(fabric_, cfg_.client_host,
                                          cfg_.server_host, cfg_.server_port,
                                          cfg_.conn, "semplar-catalog");
}

void SrbfsDriver::remove(const std::string& path) {
  catalog_client()->unlink(path);
}

bool SrbfsDriver::exists(const std::string& path) {
  return catalog_client()->stat(path).has_value();
}

}  // namespace remio::semplar
