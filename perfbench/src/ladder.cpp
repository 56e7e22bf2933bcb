// The per-layer call ladder: the same seeded ops replayed one layer at a
// time, bottom-up, each call timed from this file around a public entry
// point of that layer:
//
//   store    srb::ObjectStore::pwrite/pread, in process
//   rpc      srb::SrbClient::pwrite/pread against the live broker
//   socket   a simnet::Fabric::connect pair echoing the rpc's frame sizes
//   pool     semplar::StreamPool::pwrite/pread (sync) or *_once (async)
//   engine   semplar::AsyncEngine::submit + wait of one pool task per stripe
//   semplar  semplar::SemplarFile write_at/read_at or iwrite_at/iread_at+wait
//   mpiio    mpiio::File, the same calls the end-to-end loop makes
//
// Below the engine a call moves one stripe (the request split across the
// streams, as SEMPLAR's auto striping does); the stripes of an async request
// run in parallel, so one stripe's call is the layer's share of the
// critical path. A layer's self time is its median minus the medians of the
// layers it calls. The ladder runs at window 1 so the medians compose.
#include <cstdio>
#include <thread>

#include "core/async_engine.hpp"
#include "core/stream_pool.hpp"
#include "obs/tracer.hpp"
#include "srb/client.hpp"
#include "srb/object_store.hpp"
#include "workloads.hpp"

namespace perfbench {

using remio::mpiio::IoRequest;
namespace obs = remio::obs;
namespace semplar = remio::semplar;
namespace srb = remio::srb;

namespace {

/// Per-call samples of one layer, by direction.
struct Samples {
  std::vector<double> write_us;
  std::vector<double> read_us;

  void add(bool write, double us) { (write ? write_us : read_us).push_back(us); }
  double p50(bool write) const { return median(write ? write_us : read_us); }
  double p50_all() const {
    std::vector<double> all = write_us;
    all.insert(all.end(), read_us.begin(), read_us.end());
    return median(std::move(all));
  }
};

struct Stripe {
  std::size_t begin;
  std::size_t len;
  int stream;
};

/// How SEMPLAR splits one request: the whole request on stream 0 for the
/// synchronous path; contiguous even pieces, one per stream, for async.
std::vector<Stripe> stripes_of(const Shape& shape, std::size_t len) {
  if (!shape.async) return {{0, len, 0}};
  const auto n = static_cast<std::size_t>(shape.streams);
  const std::size_t stripe = (len + n - 1) / n;
  std::vector<Stripe> out;
  for (int s = 0; s < shape.streams; ++s) {
    const std::size_t begin = static_cast<std::size_t>(s) * stripe;
    if (begin >= len) break;
    out.push_back({begin, std::min(stripe, len - begin), s});
  }
  return out;
}

/// Replays `ops` through `call` with payload bookkeeping: writes are filled
/// from `model` first, reads are checked after. The first twentieth of the
/// ops warm the layer up and record no samples (`sink` is null for them).
template <class Fn>
void replay(const std::vector<Op>& ops, ObjectModel& model, Tally& tally,
            Samples& samples, Fn&& call) {
  Bytes buf;
  std::vector<std::uint32_t> versions;
  const std::size_t warm = ops.size() / 20;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    if (buf.size() < op.len) buf.resize(op.len);
    const MutByteSpan span(buf.data(), op.len);
    model.apply(op, versions);
    if (op.write) model.fill(op, versions, span);
    ++tally.attempted;
    bool ok = false;
    try {
      ok = call(op, span, i >= warm ? &samples : nullptr);
    } catch (...) {
      ok = false;
    }
    if (!ok)
      ++tally.failed;
    else if (!op.write && !model.check(op, versions, span))
      ++tally.mismatched;
  }
}

/// Times one call and records it when `sink` is set.
template <class Fn>
std::size_t timed(Samples* sink, bool write, Fn&& fn) {
  const double t0 = wall_now();
  const std::size_t n = fn();
  if (sink != nullptr) sink->add(write, (wall_now() - t0) * 1e6);
  return n;
}

/// Median of one span kind's duration in µs (the simulated clock runs at
/// wall speed on the unshaped world).
double span_p50_us(const obs::Tracer& tracer, obs::SpanKind kind, bool queue) {
  std::vector<double> us;
  for (const obs::Span& s : tracer.snapshot())
    if (s.kind == kind) us.push_back((queue ? s.queue_wait() : s.wire_busy()) * 1e6);
  return median(std::move(us));
}

struct Frame {
  bool write;
  std::size_t request;
  std::size_t response;
};

/// Round trips of the recorded frame sizes over a bare fabric connection: a
/// peer thread receives each request and answers with the response size.
Samples socket_roundtrips(UnshapedWorld& world, const std::vector<Frame>& frames) {
  constexpr int kEchoPort = 5600;
  std::size_t biggest = 1;
  for (const Frame& f : frames) biggest = std::max({biggest, f.request, f.response});

  auto acceptor = world.fabric().listen(UnshapedWorld::kServerHost, kEchoPort);
  std::thread echo([&] {
    try {
      auto sock = acceptor->accept();
      if (!sock) return;
      Bytes buf(biggest);
      for (const Frame& f : frames) {
        if (!(*sock)->recv_all(MutByteSpan(buf.data(), f.request))) return;
        (*sock)->send_all(ByteSpan(buf.data(), f.response));
      }
    } catch (...) {
      // The client side reports the failure; the thread only has to end.
    }
  });

  Samples out;
  std::exception_ptr err;
  try {
    auto sock = world.fabric().connect(UnshapedWorld::kClientHost,
                                       UnshapedWorld::kServerHost, kEchoPort,
                                       world.config().conn);
    Bytes buf(biggest);
    const std::size_t warm = frames.size() / 20;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const Frame& f = frames[i];
      const double t0 = wall_now();
      sock->send_all(ByteSpan(buf.data(), f.request));
      if (!sock->recv_all(MutByteSpan(buf.data(), f.response)))
        throw std::runtime_error("socket echo ended early");
      if (i >= warm) out.add(f.write, (wall_now() - t0) * 1e6);
    }
    sock->close();
  } catch (...) {
    err = std::current_exception();
  }
  acceptor->close();
  echo.join();
  if (err) std::rethrow_exception(err);
  return out;
}

}  // namespace

void run_ladder(const UnshapedSpec& spec, Prepared& prep, std::uint64_t seed,
                Report& rep, Tally& tally) {
  const Shape& shape = spec.shape;
  UnshapedWorld& world = *prep.world;
  const semplar::Config& cfg = world.config();
  ObjectModel& model = *prep.model;

  std::vector<Op> ops;
  {
    OpStream gen(spec.pattern, seed, spec.object_bytes, spec.op_bytes, shape.window);
    for (std::size_t i = 0; i < spec.ladder_ops; ++i) ops.push_back(gen.next());
  }
  double app_bytes = 0.0;
  for (const Op& op : ops) app_bytes += op.len;
  const auto n_ops = static_cast<double>(ops.size());

  // --- store: a private in-process ObjectStore with the broker's defaults.
  Samples store_s;
  {
    srb::ObjectStore store;
    constexpr srb::ObjectId kId = 1;
    store.create(kId);
    ObjectModel store_model(seed, spec.object_bytes, spec.op_bytes);
    prefill(store_model, [&store](std::uint64_t offset, ByteSpan data) {
      store.pwrite(kId, data, offset);
    });
    replay(ops, store_model, tally, store_s, [&](const Op& op, MutByteSpan buf, Samples* sink) {
      bool ok = true;
      for (const Stripe& st : stripes_of(shape, op.len)) {
        const MutByteSpan part = buf.subspan(st.begin, st.len);
        const std::size_t n = timed(sink, op.write, [&] {
          if (!op.write) return store.pread(kId, part, op.offset + st.begin);
          store.pwrite(kId, part, op.offset + st.begin);
          return part.size();
        });
        ok = ok && n == st.len;
      }
      return ok;
    });
  }

  // --- rpc: one SrbClient session on the broker, recording frame sizes.
  Samples rpc_s;
  std::vector<Frame> frames;
  {
    srb::SrbClient client(world.fabric(), cfg.client_host, cfg.server_host,
                          cfg.server_port, cfg.conn, "perfbench-rpc", cfg.tenant,
                          cfg.integrity.wire_checksums);
    const std::int32_t fd = client.open(UnshapedWorld::kPath, srb::kRead | srb::kWrite);
    replay(ops, model, tally, rpc_s, [&](const Op& op, MutByteSpan buf, Samples* sink) {
      bool ok = true;
      for (const Stripe& st : stripes_of(shape, op.len)) {
        const MutByteSpan part = buf.subspan(st.begin, st.len);
        const std::uint64_t sent = client.bytes_sent();
        const std::uint64_t received = client.bytes_received();
        const std::size_t n = timed(sink, op.write, [&] {
          return op.write ? client.pwrite(fd, part, op.offset + st.begin)
                          : client.pread(fd, part, op.offset + st.begin);
        });
        frames.push_back({op.write, client.bytes_sent() - sent,
                          client.bytes_received() - received});
        ok = ok && n == st.len;
      }
      return ok;
    });
    client.close(fd);
    client.disconnect();
  }

  // --- socket: the rpc's frames, echoed over a bare connection.
  const Samples sock_s = socket_roundtrips(world, frames);

  // --- pool and engine share one StreamPool, as SemplarFile's layers do.
  Samples pool_s;
  Samples engine_s;
  obs::Tracer pool_tracer(cfg.obs.ring_capacity);
  obs::Tracer engine_tracer(cfg.obs.ring_capacity);
  semplar::Stats pool_stats;
  semplar::Stats engine_stats;
  double pool_wire_us = 0.0;
  {
    semplar::StreamPool pool(world.fabric(), cfg, UnshapedWorld::kPath,
                             srb::kRead | srb::kWrite, &pool_stats, &pool_tracer);
    replay(ops, model, tally, pool_s, [&](const Op& op, MutByteSpan buf, Samples* sink) {
      bool ok = true;
      for (const Stripe& st : stripes_of(shape, op.len)) {
        const MutByteSpan part = buf.subspan(st.begin, st.len);
        const std::uint64_t off = op.offset + st.begin;
        const std::size_t n = timed(sink, op.write, [&] {
          if (shape.async)
            return op.write ? pool.pwrite_once(st.stream, part, off)
                            : pool.pread_once(st.stream, part, off);
          return op.write ? pool.pwrite(st.stream, part, off)
                          : pool.pread(st.stream, part, off);
        });
        ok = ok && n == st.len;
      }
      return ok;
    });
    pool_wire_us = span_p50_us(pool_tracer, obs::SpanKind::kWire, false);

    semplar::AsyncEngine engine(shape.io_threads, cfg.queue_capacity, &engine_stats,
                                cfg.retry, &engine_tracer, cfg.engine);
    replay(ops, model, tally, engine_s, [&](const Op& op, MutByteSpan buf, Samples* sink) {
      const std::vector<Stripe> parts = stripes_of(shape, op.len);
      std::vector<IoRequest> reqs;
      const double t0 = wall_now();
      for (const Stripe& st : parts) {
        const MutByteSpan part = buf.subspan(st.begin, st.len);
        const std::uint64_t off = op.offset + st.begin;
        const int stream = st.stream;
        semplar::StreamPool* p = &pool;
        if (op.write)
          reqs.push_back(engine.submit([p, stream, part, off] {
            return p->pwrite_once(stream, part, off);
          }));
        else
          reqs.push_back(engine.submit([p, stream, part, off] {
            return p->pread_once(stream, part, off);
          }));
      }
      bool ok = true;
      for (std::size_t k = 0; k < reqs.size(); ++k)
        ok = reqs[k].wait_status().ok() && reqs[k].bytes() == parts[k].len && ok;
      if (sink != nullptr) sink->add(op.write, (wall_now() - t0) * 1e6);
      return ok;
    });
    engine.shutdown();
    pool.close();
  }

  // --- semplar: a SemplarFile of its own; its counters give the per-op counts.
  Samples sem_s;
  double rpc_calls = 0.0;
  double wire_bytes = 0.0;
  double wire_ops = 0.0;
  {
    semplar::SemplarFile sf(world.fabric(), cfg, UnshapedWorld::kPath,
                            remio::mpiio::kModeRead | remio::mpiio::kModeWrite);
    auto rpcs = [&] {
      std::uint64_t n = 0;
      for (int i = 0; i < sf.streams().count(); ++i) n += sf.streams().client(i).rpc_count();
      return n;
    };
    auto wire = [&] {
      return sf.streams().wire_bytes_sent() + sf.streams().wire_bytes_received();
    };
    const std::uint64_t rpc0 = rpcs();
    const std::uint64_t wire0 = wire();
    const std::uint64_t ops0 = sf.stats().snapshot().wire_ops;
    replay(ops, model, tally, sem_s, [&](const Op& op, MutByteSpan buf, Samples* sink) {
      std::size_t n = 0;
      timed(sink, op.write, [&] {
        if (!shape.async) {
          n = op.write ? sf.write_at(op.offset, buf) : sf.read_at(op.offset, buf);
          return n;
        }
        IoRequest r = op.write ? sf.iwrite_at(op.offset, buf) : sf.iread_at(op.offset, buf);
        n = r.wait_status().ok() ? r.bytes() : 0;
        return n;
      });
      return n == op.len;
    });
    rpc_calls = static_cast<double>(rpcs() - rpc0);
    wire_bytes = static_cast<double>(wire() - wire0);
    wire_ops = static_cast<double>(sf.stats().snapshot().wire_ops - ops0);
  }

  // --- mpiio: the end-to-end loop's own file handle, at window 1.
  Samples mpiio_s;
  remio::mpiio::File& file = *prep.file;
  replay(ops, model, tally, mpiio_s, [&](const Op& op, MutByteSpan buf, Samples* sink) {
    std::size_t n = 0;
    timed(sink, op.write, [&] {
      if (!shape.async) {
        n = op.write ? file.write_at(op.offset, buf) : file.read_at(op.offset, buf);
        return n;
      }
      IoRequest r = op.write ? file.iwrite_at(op.offset, buf) : file.iread_at(op.offset, buf);
      n = r.wait_status().ok() ? r.bytes() : 0;
      return n;
    });
    return n == op.len;
  });

  // --- report
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "  ladder: %zu ops (%s), %d stream(s), io_threads %d, %s, window 1",
                ops.size(), spec.name, shape.streams, shape.io_threads,
                shape.async ? "iwrite_at/iread_at+wait" : "write_at/read_at");
  rep.line(buf);
  rep.metric("store.write_us", store_s.p50(true), "us");
  rep.metric("store.read_us", store_s.p50(false), "us");
  rep.metric("socket.roundtrip_us", sock_s.p50_all(), "us");
  rep.metric("rpc.write_us", rpc_s.p50(true), "us");
  rep.metric("rpc.read_us", rpc_s.p50(false), "us");
  rep.metric("pool.write_us", pool_s.p50(true), "us");
  rep.metric("pool.read_us", pool_s.p50(false), "us");
  rep.metric("pool.wire_us", pool_wire_us, "us");
  rep.metric("engine.submit_wait_us", engine_s.p50_all(), "us");
  rep.metric("engine.queue_wait_us",
             span_p50_us(engine_tracer, obs::SpanKind::kTask, true), "us");
  const auto engine_counts = engine_stats.snapshot();
  rep.metric("engine.parks_per_op", static_cast<double>(engine_counts.parks) / n_ops, "1/op");
  rep.metric("engine.wakes_per_op", static_cast<double>(engine_counts.wakes) / n_ops, "1/op");
  rep.info("engine.steals_per_op", static_cast<double>(engine_counts.steals) / n_ops, "1/op",
           "zero whenever one worker runs");
  rep.metric("semplar.write_us", sem_s.p50(true), "us");
  rep.metric("semplar.read_us", sem_s.p50(false), "us");
  rep.metric("mpiio.write_us", mpiio_s.p50(true), "us");
  rep.metric("mpiio.read_us", mpiio_s.p50(false), "us");

  // Counts: exact for a seed, since the op list is fixed.
  rep.metric("rpc.calls_per_op", rpc_calls / n_ops, "calls/op");
  rep.metric("rpc.wire_bytes_per_byte", wire_bytes / app_bytes, "B/B");
  rep.metric("semplar.wire_ops_per_op", wire_ops / n_ops, "ops/op");

  for (const bool write : {true, false}) {
    const char* dir = write ? "write" : "read";
    const double store = store_s.p50(write);
    const double sock = sock_s.p50(write);
    const double rpc = rpc_s.p50(write);
    const double pool = pool_s.p50(write);
    const double engine = engine_s.p50(write);
    const double sem = sem_s.p50(write);
    const double top = mpiio_s.p50(write);
    // Self time: a layer's median minus the medians of what it calls. The
    // engine is on the request path only for async shapes.
    const double rpc_self = rpc - store - sock;
    const double pool_self = pool - rpc;
    const double engine_self = engine - pool;
    const double sem_self = sem - (shape.async ? engine : pool);
    const double mpiio_self = top - sem;
    const std::string d(dir);
    rep.metric("rpc." + d + ".self_us", rpc_self, "us");
    rep.metric("pool." + d + ".self_us", pool_self, "us");
    rep.metric("engine." + d + ".self_us", engine_self, "us");
    rep.metric("semplar." + d + ".self_us", sem_self, "us");
    rep.metric("mpiio." + d + ".self_us", mpiio_self, "us");

    // Ladder consistency: each self time clamped at zero, summed over the
    // layers on the path, against the measured top. A layer measured faster
    // than the layers it calls leaves a non-zero residual.
    const std::vector<std::pair<const char*, double>> path = [&] {
      std::vector<std::pair<const char*, double>> p = {
          {"store", store}, {"socket", sock}, {"rpc", rpc_self}, {"pool", pool_self}};
      if (shape.async) p.push_back({"engine", engine_self});
      p.push_back({"semplar", sem_self});
      p.push_back({"mpiio", mpiio_self});
      return p;
    }();
    double sum = 0.0;
    std::string parts;
    for (const auto& [name, us] : path) {
      sum += std::max(0.0, us);
      char part[64];
      std::snprintf(part, sizeof part, "%s%s %.2f", parts.empty() ? "" : " + ", name, us);
      parts += part;
    }
    std::snprintf(buf, sizeof buf,
                  "  ladder %s: %s = %.2f us vs mpiio.%s_us %.2f us, residual %.2f us",
                  dir, parts.c_str(), sum, dir, top, top - sum);
    rep.line(buf);
  }
}

}  // namespace perfbench
