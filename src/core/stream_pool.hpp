// A pool of SRB connections for one open file: SEMPLAR's "multiple TCP
// streams per node" (§7.2). Each stream is a full SrbClient (its own
// shaped connection + server-side descriptor on the same data object), so
// transfers on different streams advance concurrently when driven from
// different I/O threads.
//
// The pool is also the stateful half of the transport supervisor (with
// Config::Retry enabled): a stream whose connection fails is marked down
// and transparently repaired — re-dial, SRB login handshake, re-open of the
// data object — before the next attempt runs on it. A stream whose repairs
// keep failing while siblings are healthy is declared dead and its work is
// re-striped onto the survivors. All supervised ops are offset-addressed
// (pread/pwrite/stat), so replaying one after a reconnect is idempotent.
//
// Two op flavours:
//   * pread/pwrite/stat_size — blocking supervision: retry with capped,
//     jittered exponential backoff in the calling thread (the synchronous
//     verbs and the cache backend use these);
//   * pread_once/pwrite_once/stat_size_once — exactly one attempt (plus
//     eager repair / dead-stream re-routing); AsyncEngine replays these
//     through its non-stalling deferred queue (core/async_engine.hpp).
// With retries disabled (the default) both flavours are the paper's
// fail-fast single attempt on the requested stream.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/extent.hpp"
#include "core/config.hpp"
#include "core/stats.hpp"
#include "core/supervisor.hpp"
#include "obs/tracer.hpp"
#include "srb/client.hpp"
#include "srb/generation.hpp"

namespace remio::semplar {

class StreamPool {
 public:
  /// Opens `streams_per_node` connections and descriptors on `path`.
  /// The first stream performs any create/truncate; the rest open plain.
  /// `stats` (optional) receives the transport-supervision counters.
  /// `tracer` (optional) gets one kWire span per transfer attempt — the
  /// wire occupancy of the stream the op actually ran on (§7.2).
  StreamPool(simnet::Fabric& fabric, const Config& cfg, const std::string& path,
             std::uint32_t srb_flags, Stats* stats = nullptr,
             obs::Tracer* tracer = nullptr);
  ~StreamPool();

  StreamPool(const StreamPool&) = delete;
  StreamPool& operator=(const StreamPool&) = delete;

  int count() const { return static_cast<int>(streams_.size()); }
  /// Streams not declared dead (== count() until a degradation happens).
  int alive_count() const;

  // Blocking-supervised ops (see file comment).
  std::size_t pread(int stream, MutByteSpan out, std::uint64_t offset);
  std::size_t pwrite(int stream, ByteSpan data, std::uint64_t offset);
  std::uint64_t stat_size();

  // Single-attempt ops for engine-level replay.
  std::size_t pread_once(int stream, MutByteSpan out, std::uint64_t offset);
  std::size_t pwrite_once(int stream, ByteSpan data, std::uint64_t offset);
  std::uint64_t stat_size_once();

  // List I/O: a sorted, disjoint extent list against a packed buffer. The
  // pool batches the list into kObjReadList/kObjWriteList messages bounded
  // by srb::kMaxListExtents extents and SrbClient::kMaxIoChunk data bytes
  // each (an extent larger than the chunk cap goes through the plain
  // chunked verb instead — list framing buys it nothing). Offset-addressed
  // and therefore idempotent, like every supervised op here.
  std::size_t preadv(int stream, const ExtentList& extents, MutByteSpan out);
  std::size_t pwritev(int stream, const ExtentList& extents, ByteSpan data);
  std::size_t preadv_once(int stream, const ExtentList& extents, MutByteSpan out);
  std::size_t pwritev_once(int stream, const ExtentList& extents, ByteSpan data);

  /// Coherence-generation side channel, supervised like any other op: a
  /// corrupted or dropped attribute round trip is retried (when retries are
  /// on) instead of surfacing from open()/flush(). Bumps are idempotent in
  /// effect — the counter only needs to move, not move by exactly one.
  srb::Generation read_generation();
  srb::Generation bump_generation(const std::string& writer_tag);

  /// Current client of a stream, for catalog-style side channels. Not
  /// supervised; callers run in quiescent phases (open / flush), not
  /// concurrently with stream repair.
  srb::SrbClient& client(int stream);
  const std::string& path() const { return path_; }

  /// Wire totals across the pool's lifetime, including connections retired
  /// by reconnects.
  std::uint64_t wire_bytes_sent() const;
  std::uint64_t wire_bytes_received() const;

  /// Closes descriptors and disconnects every stream. Idempotent.
  void close();

 private:
  enum class Health : int { kUp, kDown, kDead };

  /// Consecutive failed repairs before a stream is declared dead (when at
  /// least one sibling is still alive to absorb its work).
  static constexpr int kRepairFailuresBeforeDead = 2;

  struct Stream {
    std::mutex mu;  // guards every field below
    std::shared_ptr<srb::SrbClient> client;
    std::int32_t fd = -1;
    std::atomic<Health> health{Health::kUp};  // mutated under mu, read freely
    int repair_failures = 0;                  // consecutive; reset on success
    std::uint64_t retired_sent = 0;
    std::uint64_t retired_received = 0;
  };

  std::string stream_tag(int idx) const;
  /// First non-dead stream at or after `requested`; throws when none left.
  int resolve(int requested) const;
  bool alive_other(int idx) const;
  /// Re-dial + login + reopen; caller holds s.mu. Throws on failure.
  void repair_locked(Stream& s, int idx);
  void note_failure(int idx, const std::shared_ptr<srb::SrbClient>& failed);
  template <class Fn>
  auto once(int requested, Fn&& fn);
  template <class Fn>
  auto supervised(Fn&& fn);
  /// The list batcher behind preadv_once/pwritev_once (see List I/O above).
  template <bool IsWrite, class Span>
  std::size_t transfer_list(int stream, const ExtentList& extents, Span data);

  simnet::Fabric& fabric_;
  Config cfg_;
  std::string path_;
  std::uint32_t reopen_flags_ = 0;  // original flags minus create/trunc
  Stats* stats_;
  obs::Tracer* tracer_;
  Backoff backoff_;
  std::vector<std::unique_ptr<Stream>> streams_;
  bool closed_ = false;
};

}  // namespace remio::semplar
