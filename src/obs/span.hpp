// The unit of tracing (src/obs): one span per traced operation, carrying
// the four timestamps the paper's §7 analyses need — when the op was
// issued (enqueue), when an I/O thread picked it up (dequeue, §4.2 FIFO
// residency), when it first occupied a TCP stream (wire_start) and when it
// completed (wire_end). All timestamps are on the simulated clock
// (simnet::sim_now), so traces line up with the shaped transfer times.
//
// Timestamp invariant (normalized by Tracer::record, asserted by tests):
//   enqueue <= dequeue <= wire_start <= wire_end.
// Instantaneous events (cache hits) carry four equal timestamps; spans
// that never touched the wire carry wire_start == wire_end == completion.
#pragma once

#include <cstdint>

namespace remio::obs {

enum class SpanKind : std::uint8_t {
  kTask = 0,    // one AsyncEngine FIFO task (queue residency -> completion)
  kIread,       // request-level MPI_File_iread_at (issue -> master complete)
  kIwrite,      // request-level MPI_File_iwrite_at
  kSyncRead,    // blocking read_at on the app thread
  kSyncWrite,   // blocking write_at on the app thread
  kWire,        // one transfer occupying one TCP stream (§7.2)
  kBackoff,     // supervised replay parked in the deferred heap
  kCompress,    // codec stage of the §7.3 pipeline
  kCacheHit,    // block access served locally
  kCacheFill,   // demand fetch populating a cache block
  kPrefetch,    // speculative read-ahead fetch
  kFlush,       // write-behind coalesced flush hitting the wire
  kCompute,     // app computation phase (testbed PhaseTimer)
  kIoWait,      // app blocked in its I/O phase (testbed PhaseTimer)
  kSieve,       // data-sieving read: one hull fetch + local scatter
  kListIo,      // list-I/O transfer: batched extents in one message
  kIntegrity,   // detected corruption (wire frame or at-rest block)
  kCount
};

const char* kind_name(SpanKind k);

struct Span {
  std::uint64_t op_id = 0;
  SpanKind kind = SpanKind::kTask;
  std::int16_t stream = -1;  // TCP stream index for kWire; -1 = not stream-bound
  std::uint16_t rank = 0;    // filled when multi-rank collectors merge spans
  std::uint16_t tenant = 0;  // tenant ordinal (0 = untenanted); multi-tenant
                             // collectors key per-tenant tail latency on it
  std::uint32_t tid = 0;     // recording thread, hashed (Chrome-trace tid)
  std::uint64_t bytes = 0;
  double enqueue = 0.0;
  double dequeue = 0.0;
  double wire_start = 0.0;
  double wire_end = 0.0;

  double latency() const { return wire_end - enqueue; }
  double queue_wait() const { return dequeue - enqueue; }
  double wire_busy() const { return wire_end - wire_start; }
};

/// The lifecycle invariant every recorded span satisfies.
inline bool well_formed(const Span& s) {
  return s.enqueue <= s.dequeue && s.dequeue <= s.wire_start &&
         s.wire_start <= s.wire_end;
}

inline const char* kind_name(SpanKind k) {
  switch (k) {
    case SpanKind::kTask: return "task";
    case SpanKind::kIread: return "iread";
    case SpanKind::kIwrite: return "iwrite";
    case SpanKind::kSyncRead: return "read";
    case SpanKind::kSyncWrite: return "write";
    case SpanKind::kWire: return "wire";
    case SpanKind::kBackoff: return "backoff";
    case SpanKind::kCompress: return "compress";
    case SpanKind::kCacheHit: return "cache-hit";
    case SpanKind::kCacheFill: return "cache-fill";
    case SpanKind::kPrefetch: return "prefetch";
    case SpanKind::kFlush: return "wb-flush";
    case SpanKind::kCompute: return "compute";
    case SpanKind::kIoWait: return "io-wait";
    case SpanKind::kSieve: return "sieve";
    case SpanKind::kListIo: return "list-io";
    case SpanKind::kIntegrity: return "integrity";
    case SpanKind::kCount: break;
  }
  return "?";
}

}  // namespace remio::obs
