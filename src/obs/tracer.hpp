// Lock-light span tracer. Each recording thread owns a private ring buffer
// (drop-oldest, bounded, so tracing overhead and memory are capped no
// matter how long a run is); recording a span takes only the ring's own
// mutex, which is uncontended because exactly one thread writes each
// ring — snapshots (exporters, the analyzer) take it briefly to copy.
// Spans are all the tracer keeps: counts live in semplar::Stats,
// and queue depth, wire occupancy and replay backlog are rebuilt from the
// kTask, kWire and kBackoff spans.
//
// One Tracer instance per open SEMPLAR file (mirroring Stats), so per-rank
// overlap analysis falls out naturally. Tracer ids are process-unique and
// never reused, which makes the thread-local ring cache safe: a cached
// entry is only dereferenced when its id matches the tracer being asked to
// record, and a live id implies the owning Tracer (which holds the ring by
// shared_ptr) is alive.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/span.hpp"

namespace remio::obs {

/// Fixed-capacity drop-oldest span buffer, one writer thread.
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity) : cap_(capacity) {
    buf_.reserve(capacity);
  }

  void push(const Span& s) {
    std::lock_guard lk(mu_);
    if (buf_.size() < cap_) {
      buf_.push_back(s);
    } else {
      buf_[head_] = s;  // overwrite the oldest surviving span
      head_ = (head_ + 1) % cap_;
      ++dropped_;
    }
  }

  /// Oldest-first copy of the live spans.
  std::vector<Span> snapshot() const {
    std::lock_guard lk(mu_);
    std::vector<Span> out;
    out.reserve(buf_.size());
    for (std::size_t i = 0; i < buf_.size(); ++i)
      out.push_back(buf_[(head_ + i) % buf_.size()]);
    return out;
  }

  std::uint64_t dropped() const {
    std::lock_guard lk(mu_);
    return dropped_;
  }

  std::size_t size() const {
    std::lock_guard lk(mu_);
    return buf_.size();
  }

  /// Every span ever pushed: the live ones plus those dropped.
  std::uint64_t recorded() const {
    std::lock_guard lk(mu_);
    return buf_.size() + dropped_;
  }

  /// note_instant's sampling sequence, pre-increment value. A plain
  /// counter: only the ring's one writer thread touches it.
  std::uint64_t next_note() { return notes_++; }

 private:
  mutable std::mutex mu_;
  std::vector<Span> buf_;
  std::size_t cap_;
  std::size_t head_ = 0;  // index of the oldest span once the ring is full
  std::uint64_t dropped_ = 0;
  std::uint64_t notes_ = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t ring_capacity);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Monotone per-tracer op id (1-based; 0 means "unassigned").
  std::uint64_t next_op_id() {
    return next_op_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Records a finished span into the calling thread's ring. Timestamps
  /// are normalized so the lifecycle invariant always holds on readback.
  void record(Span s);

  /// Convenience: an instantaneous event (all four timestamps equal).
  void record_instant(SpanKind kind, double t, std::uint64_t bytes = 0,
                      std::int16_t stream = -1);

  /// Ultra-hot-path events (cache hits fire per application read, with a
  /// nanoseconds budget): only one call in kNoteSampleEvery per thread is
  /// materialized as a ring span — the clock read and ring push are what
  /// cost. Exact event counts belong in the caller's own counters
  /// (CacheCounters::hits); rare events that must each leave a span use
  /// record_instant.
  static constexpr std::uint64_t kNoteSampleEvery = 64;
  void note_instant(SpanKind kind, std::uint64_t bytes = 0,
                    std::int16_t stream = -1);

  /// Merged oldest-first snapshot across every thread's ring, sorted by
  /// (enqueue, op_id). Safe to call while producers keep recording.
  std::vector<Span> snapshot() const;

  /// Total spans evicted by drop-oldest across all rings.
  std::uint64_t dropped() const;

  /// Total spans recorded (including since-dropped ones).
  std::uint64_t recorded() const;

  std::size_t ring_capacity() const { return ring_capacity_; }
  std::uint64_t id() const { return id_; }

 private:
  SpanRing& ring_for_this_thread();

  const std::uint64_t id_;
  const std::size_t ring_capacity_;
  std::atomic<std::uint64_t> next_op_{0};

  // One ring per recording thread, tagged with its owner so a thread whose
  // cache slot was evicted (it recorded through another tracer in between)
  // finds its existing ring again instead of allocating a duplicate.
  struct RingEntry {
    std::thread::id owner;
    std::shared_ptr<SpanRing> ring;
  };
  mutable std::mutex reg_mu_;
  std::vector<RingEntry> rings_;
};

/// The engine-task span currently executing on this thread, if any. Lets
/// deeper layers (StreamPool) stamp wire_start/wire_end onto the span the
/// AsyncEngine will eventually record, without plumbing it through every
/// call signature.
Span* current_op_span();

/// RAII installer for current_op_span(); nests (saves and restores).
class ScopedOpSpan {
 public:
  explicit ScopedOpSpan(Span* s);
  ~ScopedOpSpan();
  ScopedOpSpan(const ScopedOpSpan&) = delete;
  ScopedOpSpan& operator=(const ScopedOpSpan&) = delete;

 private:
  Span* prev_;
};

}  // namespace remio::obs
