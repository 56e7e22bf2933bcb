#include "obs/tracer.hpp"

#include <algorithm>
#include <functional>
#include <thread>

#include "simnet/timescale.hpp"

namespace remio::obs {

namespace {

std::atomic<std::uint64_t> g_next_tracer_id{0};

std::uint32_t this_thread_tid() {
  static thread_local const std::uint32_t tid = static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0x7fffffffu);
  return tid;
}

struct RingCache {
  std::uint64_t tracer_id = ~std::uint64_t{0};
  SpanRing* ring = nullptr;
};
thread_local RingCache t_ring_cache;

thread_local Span* t_current_op = nullptr;

}  // namespace

Tracer::Tracer(std::size_t ring_capacity)
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity) {}

Tracer::~Tracer() = default;

SpanRing& Tracer::ring_for_this_thread() {
  RingCache& c = t_ring_cache;
  if (c.tracer_id == id_ && c.ring != nullptr) return *c.ring;
  // The single-slot cache only remembers the last tracer this thread used,
  // so a thread alternating between tracers (two open files) misses here on
  // every switch — re-find the ring it already registered rather than
  // allocating a fresh one each time. Each (thread, tracer) pair gets
  // exactly one ring; threads are few, so the miss-path scan is short.
  const std::thread::id me = std::this_thread::get_id();
  std::lock_guard lk(reg_mu_);
  for (const auto& e : rings_) {
    if (e.owner == me) {
      c = {id_, e.ring.get()};
      return *e.ring;
    }
  }
  auto ring = std::make_shared<SpanRing>(ring_capacity_);
  rings_.push_back({me, ring});
  c = {id_, ring.get()};
  return *ring;
}

void Tracer::record(Span s) {
  // Normalize so the lifecycle invariant holds even if an instrumentation
  // site only knew some of the timestamps (e.g. a task that failed before
  // touching the wire leaves wire_start == 0).
  s.dequeue = std::max(s.dequeue, s.enqueue);
  s.wire_start = std::max(s.wire_start, s.dequeue);
  s.wire_end = std::max(s.wire_end, s.wire_start);
  if (s.tid == 0) s.tid = this_thread_tid();
  ring_for_this_thread().push(s);
}

void Tracer::record_instant(SpanKind kind, double t, std::uint64_t bytes,
                            std::int16_t stream) {
  Span s;
  s.op_id = next_op_id();
  s.kind = kind;
  s.stream = stream;
  s.bytes = bytes;
  s.enqueue = s.dequeue = s.wire_start = s.wire_end = t;
  record(s);
}

void Tracer::note_instant(SpanKind kind, std::uint64_t bytes,
                          std::int16_t stream) {
  // The clock read and the ring push are the expensive parts; only the
  // sampled representatives pay them.
  if (ring_for_this_thread().next_note() % kNoteSampleEvery == 0)
    record_instant(kind, simnet::sim_now(), bytes, stream);
}

std::vector<Span> Tracer::snapshot() const {
  std::vector<std::shared_ptr<SpanRing>> rings;
  {
    std::lock_guard lk(reg_mu_);
    rings.reserve(rings_.size());
    for (const auto& e : rings_) rings.push_back(e.ring);
  }
  std::vector<Span> out;
  for (const auto& r : rings) {
    auto part = r->snapshot();
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    if (a.enqueue != b.enqueue) return a.enqueue < b.enqueue;
    return a.op_id < b.op_id;
  });
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard lk(reg_mu_);
  std::uint64_t total = 0;
  for (const auto& e : rings_) total += e.ring->dropped();
  return total;
}

std::uint64_t Tracer::recorded() const {
  std::lock_guard lk(reg_mu_);
  std::uint64_t total = 0;
  for (const auto& e : rings_) total += e.ring->recorded();
  return total;
}

Span* current_op_span() { return t_current_op; }

ScopedOpSpan::ScopedOpSpan(Span* s) : prev_(t_current_op) {
  t_current_op = s;
}

ScopedOpSpan::~ScopedOpSpan() { t_current_op = prev_; }

}  // namespace remio::obs
