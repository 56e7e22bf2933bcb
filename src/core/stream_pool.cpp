#include "core/stream_pool.hpp"

#include <exception>
#include <utility>

#include "common/log.hpp"
#include "mpiio/request.hpp"
#include "simnet/socket.hpp"
#include "simnet/timescale.hpp"

namespace remio::semplar {

StreamPool::StreamPool(simnet::Fabric& fabric, const Config& cfg,
                       const std::string& path, std::uint32_t srb_flags,
                       Stats* stats, obs::Tracer* tracer)
    : fabric_(fabric),
      cfg_(cfg),
      path_(path),
      reopen_flags_(srb_flags & ~(srb::kCreate | srb::kTrunc)),
      stats_(stats),
      tracer_(tracer),
      backoff_(cfg.retry, 0x5eedu ^ static_cast<std::uint64_t>(path.size())) {
  validate(cfg);
  streams_.reserve(static_cast<std::size_t>(cfg.streams_per_node));
  for (int i = 0; i < cfg.streams_per_node; ++i) {
    auto s = std::make_unique<Stream>();
    s->client = std::make_shared<srb::SrbClient>(
        fabric, cfg.client_host, cfg.server_host, cfg.server_port, cfg.conn,
        stream_tag(i), cfg.tenant, cfg.integrity.wire_checksums);
    // Only the first stream may create or truncate; the others must see the
    // object the first one produced.
    std::uint32_t flags = srb_flags;
    if (i > 0) flags &= ~(srb::kCreate | srb::kTrunc);
    s->fd = s->client->open(path, flags);
    streams_.push_back(std::move(s));
  }
}

StreamPool::~StreamPool() {
  try {
    close();
  } catch (...) {
    // Best-effort teardown.
  }
}

std::string StreamPool::stream_tag(int idx) const {
  return "semplar/" + cfg_.client_host + "/s" + std::to_string(idx);
}

int StreamPool::alive_count() const {
  int n = 0;
  for (const auto& s : streams_)
    if (s->health.load(std::memory_order_relaxed) != Health::kDead) ++n;
  return n;
}

int StreamPool::resolve(int requested) const {
  const int n = count();
  for (int k = 0; k < n; ++k) {
    const int idx = (requested + k) % n;
    if (streams_[static_cast<std::size_t>(idx)]->health.load(
            std::memory_order_relaxed) != Health::kDead)
      return idx;
  }
  throw mpiio::IoError({remio::ErrorDomain::kTransport, 0,
                        /*retryable=*/false, "route"},
                       "all streams dead: " + path_);
}

bool StreamPool::alive_other(int idx) const {
  for (int i = 0; i < count(); ++i) {
    if (i == idx) continue;
    if (streams_[static_cast<std::size_t>(i)]->health.load(
            std::memory_order_relaxed) != Health::kDead)
      return true;
  }
  return false;
}

void StreamPool::repair_locked(Stream& s, int idx) {
  // Full SRB session re-establishment: dial, login handshake (SrbClient
  // constructor), then reopen the data object *without* create/trunc so a
  // reconnect can never clobber data the first open produced.
  std::shared_ptr<srb::SrbClient> fresh;
  try {
    fresh = std::make_shared<srb::SrbClient>(
        fabric_, cfg_.client_host, cfg_.server_host, cfg_.server_port,
        cfg_.conn, stream_tag(idx), cfg_.tenant, cfg_.integrity.wire_checksums);
  } catch (const srb::SrbError& e) {
    // The login exchange carries no checksum, so a frame damaged in flight
    // can come back as any broker status. This stream logged in with the
    // same name, tenant and features before: report a transient dial
    // failure so the retry loop redials instead of failing the op.
    if (e.retryable()) throw;
    throw simnet::NetError(
        std::string("reconnect handshake failed: ") + e.what(),
        {remio::ErrorDomain::kTransport, 0, /*retryable=*/true, "connect"});
  }
  const std::int32_t fd = fresh->open(path_, reopen_flags_);
  if (s.client != nullptr) {
    // Keep lifetime wire totals monotone across the client swap.
    s.retired_sent += s.client->bytes_sent();
    s.retired_received += s.client->bytes_received();
  }
  s.client = std::move(fresh);
  s.fd = fd;
  s.health.store(Health::kUp, std::memory_order_relaxed);
  s.repair_failures = 0;
  if (stats_ != nullptr) stats_->add_reconnect();
  REMIO_LOG_DEBUG("stream ", idx, " of ", path_, " reconnected");
}

void StreamPool::note_failure(int idx,
                              const std::shared_ptr<srb::SrbClient>& failed) {
  Stream& s = *streams_[static_cast<std::size_t>(idx)];
  std::lock_guard lk(s.mu);
  // Only demote if the failure came from the client currently installed;
  // a concurrent repair may already have replaced it.
  if (s.client == failed &&
      s.health.load(std::memory_order_relaxed) == Health::kUp)
    s.health.store(Health::kDown, std::memory_order_relaxed);
}

template <class Fn>
auto StreamPool::once(int requested, Fn&& fn) {
  if (!cfg_.retry.enabled()) {
    // Fail-fast (paper) mode: exactly one attempt on the requested stream,
    // no health tracking, no re-routing. Integrity detections are still
    // counted — observability must not depend on the retry policy.
    Stream& s = *streams_[static_cast<std::size_t>(requested)];
    try {
      return fn(*s.client, s.fd, requested);
    } catch (const remio::StatusError& e) {
      if (e.domain() == remio::ErrorDomain::kIntegrity) {
        if (stats_ != nullptr) stats_->add_corruption_detected();
        if (tracer_ != nullptr)
          tracer_->record_instant(obs::SpanKind::kIntegrity, simnet::sim_now(),
                                  0, static_cast<std::int16_t>(requested));
      }
      throw;
    }
  }
  // Bounded walk: each iteration either runs the op once or retires a
  // stream to kDead; with N streams we re-resolve at most N times.
  for (int hops = 0; hops <= count(); ++hops) {
    const int idx = resolve(requested);
    Stream& s = *streams_[static_cast<std::size_t>(idx)];
    std::shared_ptr<srb::SrbClient> client;
    std::int32_t fd = -1;
    {
      std::lock_guard lk(s.mu);
      if (s.health.load(std::memory_order_relaxed) == Health::kDead)
        continue;  // lost a race with another thread's verdict; re-route
      if (s.health.load(std::memory_order_relaxed) == Health::kDown) {
        try {
          repair_locked(s, idx);
        } catch (...) {
          ++s.repair_failures;
          if (s.repair_failures >= kRepairFailuresBeforeDead &&
              alive_other(idx)) {
            s.health.store(Health::kDead, std::memory_order_relaxed);
            REMIO_LOG_WARN("stream ", idx, " of ", path_,
                           " declared dead after ", s.repair_failures,
                           " failed repairs; re-striping onto survivors");
            continue;  // degrade now instead of burning a retry attempt
          }
          throw;  // still kDown; the caller's retry loop backs off
        }
      }
      client = s.client;
      fd = s.fd;
    }
    try {
      return fn(*client, fd, idx);
    } catch (const remio::StatusError& e) {
      if (e.retryable() && e.domain() == remio::ErrorDomain::kTransport)
        note_failure(idx, client);
      // A checksum mismatch is NOT a stream failure: the connection held,
      // only the data arrived (or was stored) wrong. Count the detection
      // and leave the stream up — the supervised() replay re-fetches on it.
      if (e.domain() == remio::ErrorDomain::kIntegrity) {
        if (stats_ != nullptr) stats_->add_corruption_detected();
        if (tracer_ != nullptr)
          tracer_->record_instant(obs::SpanKind::kIntegrity, simnet::sim_now(),
                                  0, static_cast<std::int16_t>(idx));
      }
      throw;
    }
  }
  // Every hop landed on a stream that was retired under us; let the retry
  // loop (or the engine) decide whether to come back.
  throw mpiio::IoError(
      {remio::ErrorDomain::kTransport, 0, /*retryable=*/true, "route"},
      "no usable stream after re-striping: " + path_);
}

template <class Fn>
auto StreamPool::supervised(Fn&& fn) {
  if (!cfg_.retry.enabled()) return fn();
  const double start = simnet::sim_now();
  for (int attempt = 0;; ++attempt) {
    try {
      return fn();
    } catch (...) {
      const RetryVerdict v = decide_retry(cfg_.retry, backoff_, stats_,
                                          std::current_exception(), attempt,
                                          start);
      if (v.terminal != nullptr) std::rethrow_exception(v.terminal);
      simnet::sleep_sim(v.delay);
    }
  }
}

std::size_t StreamPool::pread(int stream, MutByteSpan out,
                              std::uint64_t offset) {
  return supervised([&] { return pread_once(stream, out, offset); });
}

std::size_t StreamPool::pwrite(int stream, ByteSpan data,
                               std::uint64_t offset) {
  return supervised([&] { return pwrite_once(stream, data, offset); });
}

std::uint64_t StreamPool::stat_size() {
  return supervised([&] { return stat_size_once(); });
}

namespace {

/// RAII wire-occupancy trace around one transfer attempt: records a kWire
/// span on the resolved stream (bytes = 0 when the attempt threw) and
/// stamps wire_start onto the enclosing engine task's span, if any.
class WireTrace {
 public:
  WireTrace(obs::Tracer* tracer, int idx)
      : tracer_(tracer),
        idx_(idx),
        t0_(tracer != nullptr ? simnet::sim_now() : 0.0) {}

  ~WireTrace() {
    if (tracer_ == nullptr) return;
    obs::Span s;
    if (obs::Span* op = obs::current_op_span()) {
      s.op_id = op->op_id;  // tie the wire lane to the engine task
      if (op->wire_start == 0.0) op->wire_start = t0_;
    } else {
      s.op_id = tracer_->next_op_id();  // sync path: no enclosing task
    }
    s.kind = obs::SpanKind::kWire;
    s.stream = static_cast<std::int16_t>(idx_);
    s.bytes = bytes_;
    s.enqueue = s.dequeue = s.wire_start = t0_;
    s.wire_end = simnet::sim_now();
    tracer_->record(s);
  }

  void set_bytes(std::uint64_t n) { bytes_ = n; }

 private:
  obs::Tracer* tracer_;
  int idx_;
  double t0_;
  std::uint64_t bytes_ = 0;
};

}  // namespace

namespace {

/// Protocol messages a chunked plain verb issues for `len` bytes (the
/// SrbClient pread/pwrite loops send one message per kMaxIoChunk).
std::uint64_t chunk_messages(std::size_t len) {
  if (len == 0) return 0;
  return (len + srb::SrbClient::kMaxIoChunk - 1) / srb::SrbClient::kMaxIoChunk;
}

}  // namespace

std::size_t StreamPool::pread_once(int stream, MutByteSpan out,
                                   std::uint64_t offset) {
  return once(stream, [&](srb::SrbClient& c, std::int32_t fd, int idx) {
    WireTrace wt(tracer_, idx);
    const std::size_t n = c.pread(fd, out, offset);
    wt.set_bytes(n);
    if (stats_ != nullptr) stats_->add_wire_ops(chunk_messages(out.size()));
    return n;
  });
}

std::size_t StreamPool::pwrite_once(int stream, ByteSpan data,
                                    std::uint64_t offset) {
  return once(stream, [&](srb::SrbClient& c, std::int32_t fd, int idx) {
    WireTrace wt(tracer_, idx);
    const std::size_t n = c.pwrite(fd, data, offset);
    wt.set_bytes(n);
    if (stats_ != nullptr) stats_->add_wire_ops(chunk_messages(data.size()));
    return n;
  });
}

std::uint64_t StreamPool::stat_size_once() {
  return once(0, [&](srb::SrbClient& c, std::int32_t, int idx) {
    WireTrace wt(tracer_, idx);
    const auto st = c.stat(path_);
    if (stats_ != nullptr) stats_->add_wire_ops(1);
    return st ? st->size : std::uint64_t{0};
  });
}

std::size_t StreamPool::preadv(int stream, const ExtentList& extents,
                               MutByteSpan out) {
  return supervised([&] { return preadv_once(stream, extents, out); });
}

std::size_t StreamPool::pwritev(int stream, const ExtentList& extents,
                                ByteSpan data) {
  return supervised([&] { return pwritev_once(stream, extents, data); });
}

template <bool IsWrite, class Span>
std::size_t StreamPool::transfer_list(int stream, const ExtentList& extents,
                                      Span data) {
  const std::size_t max_bytes = srb::SrbClient::kMaxIoChunk;

  std::size_t total = 0;
  std::size_t packed = 0;  // position in the packed buffer
  std::size_t i = 0;
  while (i < extents.size()) {
    if (extents[i].len > max_bytes) {
      // Oversized extent: the plain chunked verb moves it just as well.
      const std::size_t want = static_cast<std::size_t>(extents[i].len);
      const std::size_t n =
          once(stream, [&](srb::SrbClient& c, std::int32_t fd, int idx) {
            WireTrace wt(tracer_, idx);
            std::size_t m = 0;
            if constexpr (IsWrite) {
              m = c.pwrite(fd, data.subspan(packed, want), extents[i].offset);
            } else {
              m = c.pread(fd, data.subspan(packed, want), extents[i].offset);
            }
            wt.set_bytes(m);
            if (stats_ != nullptr) stats_->add_wire_ops(chunk_messages(want));
            return m;
          });
      total += n;
      packed += want;
      ++i;
      // A short read is past EOF; in a sorted list the rest is too.
      if (!IsWrite && n < want) break;
      continue;
    }
    std::size_t j = i;
    std::size_t bytes = 0;
    while (j < extents.size() && j - i < srb::kMaxListExtents &&
           extents[j].len <= max_bytes && bytes + extents[j].len <= max_bytes) {
      bytes += static_cast<std::size_t>(extents[j].len);
      ++j;
    }
    const ExtentList batch(extents.begin() + static_cast<std::ptrdiff_t>(i),
                           extents.begin() + static_cast<std::ptrdiff_t>(j));
    const std::size_t n =
        once(stream, [&](srb::SrbClient& c, std::int32_t fd, int idx) {
          WireTrace wt(tracer_, idx);
          std::size_t m = 0;
          if constexpr (IsWrite) {
            m = c.pwritev(fd, batch, data.subspan(packed, bytes));
          } else {
            m = c.preadv(fd, batch, data.subspan(packed, bytes));
          }
          wt.set_bytes(m);
          if (stats_ != nullptr) stats_->add_wire_ops(1);
          return m;
        });
    total += n;
    packed += bytes;
    i = j;
    if (!IsWrite && n < bytes) break;
  }
  return total;
}

std::size_t StreamPool::preadv_once(int stream, const ExtentList& extents,
                                    MutByteSpan out) {
  return transfer_list<false>(stream, extents, out);
}

std::size_t StreamPool::pwritev_once(int stream, const ExtentList& extents,
                                     ByteSpan data) {
  return transfer_list<true>(stream, extents, data);
}

srb::Generation StreamPool::read_generation() {
  return supervised([&] {
    return once(0, [&](srb::SrbClient& c, std::int32_t, int) {
      return srb::read_generation(c, path_);
    });
  });
}

srb::Generation StreamPool::bump_generation(const std::string& writer_tag) {
  return supervised([&] {
    return once(0, [&](srb::SrbClient& c, std::int32_t, int) {
      return srb::bump_generation(c, path_, writer_tag);
    });
  });
}

srb::SrbClient& StreamPool::client(int stream) {
  Stream& s = *streams_[static_cast<std::size_t>(stream)];
  std::lock_guard lk(s.mu);
  return *s.client;
}

std::uint64_t StreamPool::wire_bytes_sent() const {
  std::uint64_t total = 0;
  for (const auto& s : streams_) {
    std::lock_guard lk(s->mu);
    total += s->retired_sent + s->client->bytes_sent();
  }
  return total;
}

std::uint64_t StreamPool::wire_bytes_received() const {
  std::uint64_t total = 0;
  for (const auto& s : streams_) {
    std::lock_guard lk(s->mu);
    total += s->retired_received + s->client->bytes_received();
  }
  return total;
}

void StreamPool::close() {
  if (closed_) return;
  closed_ = true;
  for (auto& s : streams_) {
    std::lock_guard lk(s->mu);
    try {
      if (s->health.load(std::memory_order_relaxed) == Health::kUp)
        s->client->close(s->fd);
      s->client->disconnect();
    } catch (const std::exception& e) {
      REMIO_LOG_DEBUG("stream close: ", e.what());
    }
  }
}

}  // namespace remio::semplar
