// google-benchmark microbenchmarks for the substrates on which every
// experiment stands: the MPMC I/O queue (Fig. 2), token-bucket accounting,
// the wire-protocol framing, the aligner's seed stage, minimpi p2p, and the
// observability layer's hot-path costs (span record, histogram, traced vs.
// untraced cache read — the tracer must stay under a few percent here).
//
// The engine section at the bottom measures multi-producer submit
// throughput and queue residency through the AsyncEngine, plus the
// FixedFunction task storage in isolation. A custom main() captures every
// run and, with --json=PATH, writes the compact BENCH_substrate.json the CI
// perf-delta report diffs against bench/baseline/.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bio/kmer_index.hpp"
#include "bio/synth.hpp"
#include "cache/block_cache.hpp"
#include "common/bench_json.hpp"
#include "common/checksum.hpp"
#include "common/fixed_function.hpp"
#include "common/queue.hpp"
#include "core/async_engine.hpp"
#include "minimpi/runtime.hpp"
#include "obs/histogram.hpp"
#include "obs/tracer.hpp"
#include "simnet/socket.hpp"
#include "simnet/timescale.hpp"
#include "simnet/token_bucket.hpp"
#include "srb/mcat.hpp"
#include "srb/protocol.hpp"

namespace {

using namespace remio;

void BM_QueuePushPop(benchmark::State& state) {
  BoundedQueue<int> q(1024);
  for (auto _ : state) {
    q.push(1);
    benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QueuePushPop);

void BM_QueueProducerConsumer(benchmark::State& state) {
  for (auto _ : state) {
    BoundedQueue<int> q(256);
    std::thread consumer([&] {
      while (q.pop().has_value()) {
      }
    });
    for (int i = 0; i < 1000; ++i) q.push(i);
    q.close();
    consumer.join();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_QueueProducerConsumer);

void BM_TokenBucketUnlimited(benchmark::State& state) {
  simnet::TokenBucket tb(0.0);
  for (auto _ : state) tb.acquire(64 * 1024);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * 1024);
}
BENCHMARK(BM_TokenBucketUnlimited);

void BM_TokenBucketFastRate(benchmark::State& state) {
  // A rate far above demand: measures bookkeeping, not waiting.
  simnet::TokenBucket tb(1e15, 1e12);
  for (auto _ : state) tb.acquire(64 * 1024);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * 1024);
}
BENCHMARK(BM_TokenBucketFastRate);

/// One kObjWrite frame through the real framing path: the gather send into
/// an unshaped socket pair (its one copy, into the pipe chunk), then
/// recv_frame on the far end; with `crc`, the sender's CRC over the pieces
/// and strip_frame_crc's verify too.
void frame_round_trip(benchmark::State& state, bool crc) {
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 'p');
  auto [tx, rx] = simnet::Socket::make_pair(simnet::ConnShaping{}, "a", "b");
  Bytes head;
  ByteWriter w(head);
  w.i32(3);
  w.i64(-1);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  FrameBuffer frame;
  for (auto _ : state) {
    srb::send_request(*tx, static_cast<std::uint8_t>(srb::Op::kObjWrite),
                      {head, payload}, crc);
    if (!srb::recv_frame(*rx, frame) || (crc && !srb::strip_frame_crc(frame))) {
      state.SkipWithError("frame did not round-trip");
      break;
    }
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void BM_ProtocolFrameRoundTrip(benchmark::State& state) {
  frame_round_trip(state, /*crc=*/false);
}
BENCHMARK(BM_ProtocolFrameRoundTrip)->Arg(4 << 10)->Arg(256 << 10);

/// The integrity primitive itself: one-shot CRC32C over typical sizes (a
/// small RPC, an I/O chunk, an at-rest checksum block). The label records
/// whether the CPU's crc32 instruction or the slice-by-8 tables ran —
/// absolute numbers are not comparable across that divide.
void BM_Crc32c(benchmark::State& state) {
  const remio::Bytes data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state)
    benchmark::DoNotOptimize(
        remio::crc32c(remio::ByteSpan(data.data(), data.size())));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel(remio::crc32c_hw_available() ? "hw" : "sw");
}
BENCHMARK(BM_Crc32c)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

/// What the broker pays to compose instead of rehash. The generic combine
/// (one product per set bit of the length, plus one) composes a read
/// reply's trailer, once per reply; compare it with BM_Crc32c/4096, since a
/// 4 KiB reply saves one 4 KiB pass and pays one combine. The table step
/// folds one 4 KiB block's sum, once per block.
void BM_Crc32cCombine(benchmark::State& state) {
  const auto len = static_cast<std::uint64_t>(state.range(0));
  std::uint32_t crc = 0x12345678u;
  for (auto _ : state) {
    crc = remio::crc32c_combine(crc, 0x9e3779b9u, len);
    benchmark::DoNotOptimize(crc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Crc32cCombine)->Arg(4 << 10)->Arg(512 << 10);

void BM_Crc32cCombine4KTableStep(benchmark::State& state) {
  std::uint32_t crc = 0x12345678u;
  for (auto _ : state) {
    crc = remio::crc32c_combine_4k(crc, 0x9e3779b9u);
    benchmark::DoNotOptimize(crc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Crc32cCombine4KTableStep);

/// The checksummed frame round trip: compare against
/// BM_ProtocolFrameRoundTrip at the same size for the integrity delta the
/// ≤5% overhead budget is about.
void BM_ProtocolFrameRoundTripCrc(benchmark::State& state) {
  frame_round_trip(state, /*crc=*/true);
}
BENCHMARK(BM_ProtocolFrameRoundTripCrc)->Arg(4 << 10)->Arg(256 << 10);

void BM_KmerIndexBuild(benchmark::State& state) {
  bio::SynthConfig cfg;
  cfg.genome_length = 64 * 1024;
  bio::EstGenerator gen(cfg);
  const auto db = gen.sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    bio::KmerIndex index(db, 11);
    benchmark::DoNotOptimize(index.distinct_kmers());
  }
}
BENCHMARK(BM_KmerIndexBuild)->Arg(50)->Arg(200);

void BM_MinimpiPingPong(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    mpi::run(2, [bytes](mpi::Comm& comm) {
      const Bytes payload(bytes, 'm');
      for (int i = 0; i < 10; ++i) {
        if (comm.rank() == 0) {
          comm.send(1, 0, ByteSpan(payload.data(), payload.size()));
          comm.recv(1, 1);
        } else {
          comm.recv(0, 0);
          comm.send(0, 1, ByteSpan(payload.data(), payload.size()));
        }
      }
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 20 *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MinimpiPingPong)->Arg(1 << 10)->Arg(64 << 10);

// --- observability layer -----------------------------------------------------

void BM_ObsSpanRecord(benchmark::State& state) {
  obs::Tracer tracer(8192);
  for (auto _ : state) {
    obs::Span s;
    s.op_id = tracer.next_op_id();
    s.kind = obs::SpanKind::kTask;
    s.bytes = 64 * 1024;
    s.enqueue = 1.0;
    s.dequeue = 1.5;
    s.wire_start = 2.0;
    s.wire_end = 3.0;
    tracer.record(s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsSpanRecord);

void BM_ObsRecordInstant(benchmark::State& state) {
  obs::Tracer tracer(8192);
  for (auto _ : state)
    tracer.record_instant(obs::SpanKind::kCacheHit, 1.0, 4096);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsRecordInstant);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::Histogram h;
  double v = 1e-6;
  for (auto _ : state) {
    h.record(v);
    v = v < 1.0 ? v * 1.0001 : 1e-6;  // sweep buckets, stay off one cacheline
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ObsHistogramRecord);

/// In-memory backend: the traced-vs-untraced pair below measures pure cache
/// bookkeeping + tracer cost, with no fabric in the way.
class MemBackend final : public cache::CacheBackend {
 public:
  explicit MemBackend(std::size_t n) : data_(n, 'd') {}
  std::size_t cache_pread(std::uint64_t offset, MutByteSpan out) override {
    if (offset >= data_.size()) return 0;
    const std::size_t n = std::min(out.size(), data_.size() - offset);
    std::memcpy(out.data(), data_.data() + offset, n);
    return n;
  }
  std::size_t cache_pwrite(std::uint64_t offset, ByteSpan data) override {
    if (offset + data.size() > data_.size()) data_.resize(offset + data.size());
    std::memcpy(data_.data() + offset, data.data(), data.size());
    return data.size();
  }
  std::uint64_t cache_stat_size() override { return data_.size(); }
  bool cache_run_async(std::function<void()>) override { return false; }

 private:
  Bytes data_;
};

/// The hot remote-read path (cache hit) with the tracer attached or not:
/// the ISSUE budget allows < 3% overhead for the traced variant.
void cache_hit_read_loop(benchmark::State& state, bool traced,
                         bool verify = true) {
  MemBackend backend(4u << 20);
  cache::CacheOptions opts;
  opts.capacity_bytes = 8u << 20;
  opts.block_bytes = 256u << 10;
  opts.verify = verify;
  obs::Tracer tracer(8192);
  cache::BlockCache cache(backend, opts, nullptr, traced ? &tracer : nullptr);
  Bytes buf(4096);
  std::uint64_t off = 0;
  // Warm every block so the loop measures hits only.
  for (std::uint64_t o = 0; o < (4u << 20); o += opts.block_bytes)
    cache.read(o, MutByteSpan(buf.data(), buf.size()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.read(off, MutByteSpan(buf.data(), buf.size())));
    off = (off + 4096) & ((4u << 20) - 1);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 4096);
}

void BM_CacheReadHitUntraced(benchmark::State& state) {
  cache_hit_read_loop(state, false);
}
BENCHMARK(BM_CacheReadHitUntraced);

void BM_CacheReadHitTraced(benchmark::State& state) {
  cache_hit_read_loop(state, true);
}
BENCHMARK(BM_CacheReadHitTraced);

/// Same hit loop with block checksumming disabled. Resident sums are
/// maintained incrementally on fill/write and audited at eviction and by
/// verify_resident(), so the hit path itself does no CRC work — this pair
/// pins the ≤5% cached re-read overhead budget (expected ~0).
void BM_CacheReadHitNoVerify(benchmark::State& state) {
  cache_hit_read_loop(state, false, /*verify=*/false);
}
BENCHMARK(BM_CacheReadHitNoVerify);

// --- async engine ------------------------------------------------------------

constexpr int kPoolWorkers = 8;
constexpr int kTasksPerProducer = 2000;

/// P external producers pushing no-op tasks through the engine's one FIFO
/// queue into an 8-worker pool, measured submit -> executed.
void BM_EngineSubmitMPMC(benchmark::State& state) {
  const int producers = static_cast<int>(state.range(0));
  semplar::AsyncEngine engine(kPoolWorkers, 1024);
  for (auto _ : state) {
    std::atomic<std::size_t> ran{0};
    std::vector<std::thread> ps;
    ps.reserve(static_cast<std::size_t>(producers));
    for (int p = 0; p < producers; ++p) {
      ps.emplace_back([&] {
        for (int i = 0; i < kTasksPerProducer; ++i) {
          while (!engine.try_submit([&ran]() -> std::size_t {
            ran.fetch_add(1, std::memory_order_relaxed);
            return 0;
          }))
            std::this_thread::yield();
        }
      });
    }
    for (auto& t : ps) t.join();
    engine.drain();
    if (ran.load() !=
        static_cast<std::size_t>(producers) * kTasksPerProducer)
      state.SkipWithError("engine lost tasks");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          producers * kTasksPerProducer);
}
BENCHMARK(BM_EngineSubmitMPMC)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// Queue residency through the engine: burst-submit with a tracer attached,
/// then fold every kTask span's (dequeue - enqueue) into an obs histogram.
/// Mean/p99 surface as counters so the JSON baseline records them.
void BM_EngineQueueResidency(benchmark::State& state) {
  obs::Tracer tracer(1 << 16);
  semplar::AsyncEngine engine(4, 1024, nullptr, {}, &tracer);
  std::size_t bursts = 0;
  for (auto _ : state) {
    std::atomic<std::size_t> ran{0};
    for (int i = 0; i < 512; ++i) {
      while (!engine.try_submit([&ran]() -> std::size_t {
        ran.fetch_add(1, std::memory_order_relaxed);
        return 0;
      }))
        std::this_thread::yield();
    }
    engine.drain();
    ++bursts;
  }
  obs::Histogram h;
  for (const auto& s : tracer.snapshot())
    if (s.kind == obs::SpanKind::kTask) h.record(s.queue_wait());
  state.counters["residency_mean_us"] = h.mean() * 1e6;
  state.counters["residency_p99_us"] = h.quantile(0.99) * 1e6;
  state.SetItemsProcessed(static_cast<std::int64_t>(bursts) * 512);
}
BENCHMARK(BM_EngineQueueResidency)->UseRealTime();

/// Task-storage cost: FixedFunction stores a 48-byte capture inline
/// (no heap), std::function of the same capture allocates. Pairing these
/// two shows what every submit saves.
struct TaskCapture {
  std::uint64_t a[6] = {1, 2, 3, 4, 5, 6};
  std::size_t operator()() const { return static_cast<std::size_t>(a[0] + a[5]); }
};

void BM_FixedFunctionCreateCall(benchmark::State& state) {
  for (auto _ : state) {
    FixedFunction<std::size_t(), 104> f(TaskCapture{});
    benchmark::DoNotOptimize(f());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FixedFunctionCreateCall);

void BM_StdFunctionCreateCall(benchmark::State& state) {
  for (auto _ : state) {
    std::function<std::size_t()> f(TaskCapture{});
    benchmark::DoNotOptimize(f());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_StdFunctionCreateCall);

// --- MCAT catalog ------------------------------------------------------------
//
// Resolve throughput of the single-mutex catalog loaded with a 64-tenant
// x 65536-object namespace. The deep common-prefix paths are deliberate:
// they are what a tenant-prefixed namespace looks like, and they are the
// worst case for the std::map (every O(log n) probe re-compares the shared
// prefix). ->Threads(8) adds the contention axis: 8 resolvers serialize on
// the one mutex.

constexpr int kMcatTenants = 64;
constexpr int kMcatObjectsPerTenant = 65536;

/// Formats the path of catalog object `idx` into `out` by patching the
/// digit fields of a fixed-width template — the composed-on-the-fly shape
/// a session has when a path arrives in a wire buffer, without snprintf
/// cost polluting the resolve measurement.
void mcat_bench_path(std::size_t idx, std::string& out) {
  if (out.empty()) out = "/tenants/t000/datasets/run-2026/chunk-000000";
  std::size_t t = idx / kMcatObjectsPerTenant;
  std::size_t o = idx % kMcatObjectsPerTenant;
  for (int d = 12; d >= 10; --d, t /= 10) out[d] = static_cast<char>('0' + t % 10);
  for (int d = 43; d >= 38; --d, o /= 10) out[d] = static_cast<char>('0' + o % 10);
}

srb::Mcat& mcat_bench_catalog() {
  static srb::Mcat cat;
  static const bool loaded = [] {
    std::string path;
    for (int t = 0; t < kMcatTenants; ++t) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "/tenants/t%03d/datasets/run-2026", t);
      cat.make_collection(buf);
    }
    const std::size_t total =
        static_cast<std::size_t>(kMcatTenants) * kMcatObjectsPerTenant;
    for (std::size_t i = 0; i < total; ++i) {
      mcat_bench_path(i, path);
      if (!cat.register_object(path, "orion-disk")) std::abort();
    }
    return true;
  }();
  (void)loaded;
  return cat;
}

void BM_McatResolveFlat(benchmark::State& state) {
  srb::Mcat& cat = mcat_bench_catalog();
  constexpr std::size_t kTotal =
      static_cast<std::size_t>(kMcatTenants) * kMcatObjectsPerTenant;
  // Per-thread pseudo-random walk over the catalog; distinct starts keep
  // threads from marching through the same paths in lockstep.
  std::size_t i = static_cast<std::size_t>(state.thread_index()) * 7919;
  const std::size_t stride = 2654435761u;
  std::string path;
  path.reserve(96);
  std::size_t hits = 0;
  for (auto _ : state) {
    i += stride;
    mcat_bench_path(i % kTotal, path);
    const auto id = cat.resolve(path);
    benchmark::DoNotOptimize(id);
    hits += id.has_value();
  }
  if (hits != static_cast<std::size_t>(state.iterations()))
    state.SkipWithError("resolve missed a registered path");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(BM_McatResolveFlat)->Threads(1)->Threads(8)->UseRealTime();

// --- JSON capture ------------------------------------------------------------

/// ConsoleReporter that also keeps every Run so main() can serialize a
/// compact BENCH_substrate.json via common/bench_json (the CI delta report
/// gates on the benchmark-name set and warns on >10% timing drift).
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& r : reports) runs_.push_back(r);
    benchmark::ConsoleReporter::ReportRuns(reports);
  }
  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

std::string substrate_json(const std::vector<benchmark::BenchmarkReporter::Run>& runs) {
  JsonWriter j;
  j.begin_object();
  j.key("bench").value("micro_substrate");
  j.key("benchmarks").begin_array();
  for (const auto& r : runs) {
    if (r.run_type != benchmark::BenchmarkReporter::Run::RT_Iteration) continue;
    j.begin_object();
    j.key("name").value(r.benchmark_name());
    j.key("iterations").value(static_cast<long long>(r.iterations));
    j.key("real_time_ns").value(r.GetAdjustedRealTime());
    j.key("cpu_time_ns").value(r.GetAdjustedCPUTime());
    for (const auto& [name, counter] : r.counters)
      j.key(name).value(static_cast<double>(counter.value));
    j.end_object();
  }
  j.end_array();
  j.end_object();
  return j.str();
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off --json= before google-benchmark sees (and rejects) it.
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) {
      json_path = a.substr(7);
      continue;
    }
    args.push_back(argv[i]);
  }
  int bargc = static_cast<int>(args.size());
  benchmark::Initialize(&bargc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, args.data())) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    remio::write_json_file(json_path, substrate_json(reporter.runs()));
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
