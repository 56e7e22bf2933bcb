// Observability layer: span lifecycle invariants, histogram bucket
// boundaries, drop-oldest rings, sampled hot-path notes, the overlap
// analyzer against closed-form constructions, and a multi-producer
// concurrency test (meaningful under TSan) where exporter snapshots race
// recording threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <random>
#include <thread>
#include <vector>

#include "core/async_engine.hpp"
#include "obs/analyzer.hpp"
#include "obs/histogram.hpp"
#include "obs/span.hpp"
#include "obs/tracer.hpp"
#include "simnet/timescale.hpp"

namespace remio::obs {
namespace {

Span make_span(std::uint64_t op, SpanKind kind, double enq, double deq,
               double ws, double we, std::uint64_t bytes = 0,
               std::int16_t stream = -1) {
  Span s;
  s.op_id = op;
  s.kind = kind;
  s.stream = stream;
  s.bytes = bytes;
  s.enqueue = enq;
  s.dequeue = deq;
  s.wire_start = ws;
  s.wire_end = we;
  return s;
}

// --- span lifecycle ---------------------------------------------------------

TEST(SpanTest, WellFormedRequiresMonotoneTimestamps) {
  EXPECT_TRUE(well_formed(make_span(1, SpanKind::kTask, 1.0, 2.0, 3.0, 4.0)));
  EXPECT_TRUE(well_formed(make_span(1, SpanKind::kCacheHit, 2.0, 2.0, 2.0, 2.0)));
  EXPECT_FALSE(well_formed(make_span(1, SpanKind::kTask, 2.0, 1.0, 3.0, 4.0)));
  EXPECT_FALSE(well_formed(make_span(1, SpanKind::kTask, 1.0, 2.0, 4.0, 3.0)));
}

TEST(SpanTest, DerivedDurations) {
  const Span s = make_span(7, SpanKind::kTask, 1.0, 3.0, 4.5, 10.0);
  EXPECT_DOUBLE_EQ(s.latency(), 9.0);
  EXPECT_DOUBLE_EQ(s.queue_wait(), 2.0);
  EXPECT_DOUBLE_EQ(s.wire_busy(), 5.5);
}

TEST(TracerTest, RecordNormalizesPartialTimestamps) {
  Tracer tracer(64);
  // A task that failed before touching the wire: only enqueue/dequeue known.
  Span s = make_span(1, SpanKind::kTask, 5.0, 6.0, 0.0, 0.0);
  tracer.record(s);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(well_formed(spans[0]));
  EXPECT_DOUBLE_EQ(spans[0].wire_start, 6.0);
  EXPECT_DOUBLE_EQ(spans[0].wire_end, 6.0);
}

TEST(TracerTest, SnapshotSortedAndEveryRecordedSpanWellFormed) {
  Tracer tracer(256);
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> t(0.0, 100.0);
  for (int i = 0; i < 100; ++i) {
    // Deliberately scrambled timestamps; record() must normalize.
    tracer.record(make_span(tracer.next_op_id(), SpanKind::kTask, t(rng),
                            t(rng), t(rng), t(rng)));
  }
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 100u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_TRUE(well_formed(spans[i])) << "span " << i;
    if (i > 0) EXPECT_GE(spans[i].enqueue, spans[i - 1].enqueue);
  }
}

// No orphans after drain: every engine task that was issued has a recorded
// span with a final timestamp.
TEST(TracerTest, EngineDrainLeavesNoOrphanSpans) {
  simnet::ScopedTimeScale scale(2000.0);
  Tracer tracer(1024);
  semplar::Stats stats;
  {
    semplar::AsyncEngine engine(2, 64, &stats, {}, &tracer);
    std::vector<mpiio::IoRequest> reqs;
    for (int i = 0; i < 50; ++i)
      reqs.push_back(engine.submit([] { return std::size_t{128}; }));
    for (auto& r : reqs) EXPECT_EQ(r.wait(), 128u);
    engine.drain();
    const auto spans = tracer.snapshot();
    std::size_t tasks = 0;
    for (const auto& s : spans) {
      EXPECT_TRUE(well_formed(s));
      if (s.kind == SpanKind::kTask) {
        ++tasks;
        EXPECT_GT(s.wire_end, 0.0);  // finalized, not an in-flight orphan
        EXPECT_EQ(s.bytes, 128u);
      }
    }
    EXPECT_EQ(tasks, 50u);
  }
}

// --- ring -------------------------------------------------------------------

TEST(SpanRingTest, DropOldestKeepsNewestInOrder) {
  SpanRing ring(4);
  for (int i = 1; i <= 10; ++i)
    ring.push(make_span(static_cast<std::uint64_t>(i), SpanKind::kTask,
                        static_cast<double>(i), 0, 0, 0));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(spans[static_cast<std::size_t>(i)].op_id,
              static_cast<std::uint64_t>(7 + i));  // oldest-first: 7,8,9,10
}

TEST(TracerTest, RingOverflowCountsDropsButKeepsRecordedTotal) {
  Tracer tracer(8);
  for (int i = 0; i < 20; ++i)
    tracer.record(make_span(tracer.next_op_id(), SpanKind::kWire,
                            static_cast<double>(i), 0, 0, 0));
  EXPECT_EQ(tracer.recorded(), 20u);
  EXPECT_EQ(tracer.dropped(), 12u);
  EXPECT_EQ(tracer.snapshot().size(), 8u);
}

TEST(TracerTest, ThreadAlternatingBetweenTracersReusesItsRing) {
  // Regression: the thread-local ring cache holds a single slot, so a
  // thread alternating between two tracers (two open files) misses on every
  // record; each miss must re-find the thread's existing ring rather than
  // allocate a fresh one, or rings_ grows without bound and drop-oldest
  // never engages.
  Tracer a(4);
  Tracer b(4);
  for (int i = 0; i < 10; ++i) {
    a.record(make_span(a.next_op_id(), SpanKind::kTask,
                       static_cast<double>(i), 0, 0, 0));
    b.record(make_span(b.next_op_id(), SpanKind::kTask,
                       static_cast<double>(i), 0, 0, 0));
  }
  // One ring per (thread, tracer) pair: capacity 4 keeps 4 survivors and
  // drops 6 per tracer. Duplicated rings would show 10 live, 0 dropped.
  EXPECT_EQ(a.snapshot().size(), 4u);
  EXPECT_EQ(a.dropped(), 6u);
  EXPECT_EQ(b.snapshot().size(), 4u);
  EXPECT_EQ(b.dropped(), 6u);
}

// --- sampled notes ----------------------------------------------------------

TEST(TracerTest, NoteInstantSamplesOneIn64) {
  Tracer tracer(4096);
  const std::uint64_t n = 1000;
  for (std::uint64_t i = 0; i < n; ++i)
    tracer.note_instant(SpanKind::kCacheHit, 4096);
  // Single thread, seq 0..n-1 => samples at 0, 64, 128, ...
  const std::uint64_t expect_sampled = (n - 1) / Tracer::kNoteSampleEvery + 1;
  std::size_t hits = 0;
  for (const auto& s : tracer.snapshot())
    if (s.kind == SpanKind::kCacheHit) ++hits;
  EXPECT_EQ(hits, expect_sampled);
}

// --- histogram --------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  // Bucket i covers [floor, ceil) with ceil = kBase * 2^i; a value exactly
  // on a bucket's ceiling belongs to the next bucket.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(Histogram::kBase / 2), 0u);
  EXPECT_EQ(Histogram::bucket_index(Histogram::kBase), 1u);
  for (std::size_t i = 1; i + 1 < Histogram::kBuckets; ++i) {
    const double lo = Histogram::bucket_floor(i);
    const double hi = Histogram::bucket_ceil(i);
    EXPECT_EQ(Histogram::bucket_index(lo), i) << "floor of bucket " << i;
    EXPECT_EQ(Histogram::bucket_index(hi * 0.75), i) << "interior of " << i;
    EXPECT_EQ(Histogram::bucket_index(hi), i + 1) << "ceil of bucket " << i;
  }
  // Out-of-range values clamp instead of indexing out of bounds.
  EXPECT_EQ(Histogram::bucket_index(1e30), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(-1.0), 0u);
}

TEST(HistogramTest, RecordAccumulatesAndQuantiles) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(1e-3);  // all in one bucket
  EXPECT_EQ(h.count(), 100u);
  EXPECT_NEAR(h.mean(), 1e-3, 1e-12);
  const double q = h.quantile(0.5);
  EXPECT_GE(q, Histogram::bucket_floor(Histogram::bucket_index(1e-3)));
  EXPECT_LE(q, Histogram::bucket_ceil(Histogram::bucket_index(1e-3)));
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

// --- scoped op span ---------------------------------------------------------

TEST(ScopedOpSpanTest, NestsAndRestores) {
  EXPECT_EQ(current_op_span(), nullptr);
  Span outer, inner;
  {
    ScopedOpSpan a(&outer);
    EXPECT_EQ(current_op_span(), &outer);
    {
      ScopedOpSpan b(&inner);
      EXPECT_EQ(current_op_span(), &inner);
    }
    EXPECT_EQ(current_op_span(), &outer);
  }
  EXPECT_EQ(current_op_span(), nullptr);
}

// --- analyzer ---------------------------------------------------------------

TEST(AnalyzerTest, IntervalPrimitives) {
  auto m = ObsAnalyzer::merge({{3.0, 4.0}, {1.0, 2.0}, {1.5, 3.5}, {5.0, 5.0}});
  ASSERT_EQ(m.size(), 1u);  // [1,4]; the zero-width [5,5] is dropped
  EXPECT_DOUBLE_EQ(m[0].first, 1.0);
  EXPECT_DOUBLE_EQ(m[0].second, 4.0);
  EXPECT_DOUBLE_EQ(ObsAnalyzer::length(m), 3.0);
  const auto a = ObsAnalyzer::merge({{0.0, 2.0}, {4.0, 6.0}});
  const auto b = ObsAnalyzer::merge({{1.0, 5.0}});
  EXPECT_DOUBLE_EQ(ObsAnalyzer::intersection(a, b), 2.0);  // [1,2] + [4,5]
}

// Closed-form construction: compute [0,6], wire [4,10].
//   exec = 10, C = 6, I = 6, overlapped = 2, neither = 0,
//   expected_best = max(C, I) = 6, achieved = 0.6, overlap_fraction = 2/6.
TEST(AnalyzerTest, OverlapMatchesClosedForm) {
  std::vector<Span> spans;
  spans.push_back(make_span(1, SpanKind::kCompute, 0.0, 0.0, 0.0, 6.0));
  spans.push_back(make_span(2, SpanKind::kWire, 4.0, 4.0, 4.0, 10.0, 100, 0));
  const OverlapReport r = ObsAnalyzer(spans).analyze();
  EXPECT_DOUBLE_EQ(r.exec, 10.0);
  EXPECT_DOUBLE_EQ(r.compute_busy, 6.0);
  EXPECT_DOUBLE_EQ(r.io_busy, 6.0);
  EXPECT_DOUBLE_EQ(r.overlapped, 2.0);
  EXPECT_DOUBLE_EQ(r.neither, 0.0);
  EXPECT_DOUBLE_EQ(r.expected_best, 6.0);
  EXPECT_DOUBLE_EQ(r.achieved_of_max, 0.6);
  EXPECT_NEAR(r.overlap_fraction, 2.0 / 6.0, 1e-12);
  ASSERT_EQ(r.streams.size(), 1u);
  EXPECT_EQ(r.streams[0].stream, 0);
  EXPECT_DOUBLE_EQ(r.streams[0].busy, 6.0);
  EXPECT_DOUBLE_EQ(r.streams[0].utilization, 0.6);
}

// Perfect overlap: wire fully inside compute => achieved == C / exec == 1.
TEST(AnalyzerTest, PerfectOverlapIsOne) {
  std::vector<Span> spans;
  spans.push_back(make_span(1, SpanKind::kCompute, 0.0, 0.0, 0.0, 10.0));
  spans.push_back(make_span(2, SpanKind::kWire, 2.0, 2.0, 2.0, 8.0, 1, 0));
  const OverlapReport r = ObsAnalyzer(spans).analyze();
  EXPECT_DOUBLE_EQ(r.achieved_of_max, 1.0);
  EXPECT_DOUBLE_EQ(r.overlap_fraction, 1.0);
}

TEST(AnalyzerTest, CacheSpansOnlyCountWhenNoWireSpans) {
  std::vector<Span> spans;
  spans.push_back(make_span(1, SpanKind::kCompute, 0.0, 0.0, 0.0, 4.0));
  spans.push_back(make_span(2, SpanKind::kCacheFill, 2.0, 2.0, 2.0, 6.0));
  OverlapReport r = ObsAnalyzer(spans).analyze();
  EXPECT_DOUBLE_EQ(r.io_busy, 4.0);  // fallback: cache fill counts as I/O
  // Once a wire span exists, cache spans must not double count.
  spans.push_back(make_span(3, SpanKind::kWire, 2.5, 2.5, 2.5, 3.0, 10, 0));
  r = ObsAnalyzer(spans).analyze();
  EXPECT_DOUBLE_EQ(r.io_busy, 0.5);
}

TEST(AnalyzerTest, ExplicitWindowClampsAndCountsIdleAgainstAchieved) {
  std::vector<Span> spans;
  // Pre-window fetch (file open) and an in-window compute burst.
  spans.push_back(make_span(1, SpanKind::kWire, -2.0, -2.0, -2.0, -1.0, 5, 0));
  spans.push_back(make_span(2, SpanKind::kCompute, 1.0, 1.0, 1.0, 5.0));
  const OverlapReport r = ObsAnalyzer(spans).analyze(0.0, 10.0);
  EXPECT_DOUBLE_EQ(r.exec, 10.0);
  EXPECT_DOUBLE_EQ(r.io_busy, 0.0);  // pre-window activity clamped away
  EXPECT_DOUBLE_EQ(r.compute_busy, 4.0);
  // 6 idle seconds count against the achieved fraction: 4 / 10.
  EXPECT_DOUBLE_EQ(r.achieved_of_max, 0.4);
}

// Property test: on randomized span sets the analyzer must agree with a
// brute-force discretization of the same union/intersection arithmetic.
TEST(AnalyzerTest, RandomizedSpansMatchBruteForce) {
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> grid(0, 400);  // quarter-second grid
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Span> spans;
    std::vector<char> cbusy(401, 0), ibusy(401, 0);
    const int n = 2 + trial % 7;
    for (int i = 0; i < n; ++i) {
      int a = grid(rng), b = grid(rng);
      if (a > b) std::swap(a, b);
      if (a == b) b = std::min(400, b + 1);
      const bool is_compute = (i % 2 == 0);
      const double t0 = a * 0.25, t1 = b * 0.25;
      spans.push_back(make_span(static_cast<std::uint64_t>(i + 1),
                                is_compute ? SpanKind::kCompute : SpanKind::kWire,
                                t0, t0, t0, t1, 0, 0));
      for (int g = a; g < b; ++g) (is_compute ? cbusy : ibusy)[static_cast<std::size_t>(g)] = 1;
    }
    const OverlapReport r = ObsAnalyzer(spans).analyze();
    double C = 0, I = 0, both = 0, any = 0;
    for (int g = 0; g <= 400; ++g) {
      C += 0.25 * cbusy[static_cast<std::size_t>(g)];
      I += 0.25 * ibusy[static_cast<std::size_t>(g)];
      both += 0.25 * (cbusy[static_cast<std::size_t>(g)] && ibusy[static_cast<std::size_t>(g)]);
      any += 0.25 * (cbusy[static_cast<std::size_t>(g)] || ibusy[static_cast<std::size_t>(g)]);
    }
    EXPECT_NEAR(r.compute_busy, C, 1e-9) << "trial " << trial;
    EXPECT_NEAR(r.io_busy, I, 1e-9) << "trial " << trial;
    EXPECT_NEAR(r.overlapped, both, 1e-9) << "trial " << trial;
    EXPECT_NEAR(r.neither, r.exec - any, 1e-9) << "trial " << trial;
    EXPECT_NEAR(r.expected_best, std::max(C, I), 1e-9) << "trial " << trial;
    if (r.exec > 0)
      EXPECT_NEAR(r.achieved_of_max, std::min(1.0, std::max(C, I) / r.exec),
                  1e-9)
          << "trial " << trial;
  }
}

TEST(AnalyzerTest, EmptySpanSetIsBenign) {
  const OverlapReport r = ObsAnalyzer({}).analyze();
  EXPECT_EQ(r.span_count, 0u);
  EXPECT_DOUBLE_EQ(r.exec, 0.0);
  EXPECT_DOUBLE_EQ(r.achieved_of_max, 1.0);
}

// --- concurrency (run under TSan in CI) -------------------------------------

TEST(TracerConcurrencyTest, ProducersRecordWhileExporterSnapshots) {
  Tracer tracer(256);
  constexpr int kProducers = 4;
  constexpr int kPerThread = 2000;
  std::atomic<bool> stop{false};

  std::thread exporter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto spans = tracer.snapshot();
      for (const auto& s : spans) ASSERT_TRUE(well_formed(s));
      (void)tracer.dropped();
      (void)tracer.recorded();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerThread; ++i) {
        Span s = make_span(tracer.next_op_id(), SpanKind::kTask,
                           static_cast<double>(i), static_cast<double>(i) + 0.5,
                           static_cast<double>(i) + 1.0,
                           static_cast<double>(i) + 2.0, 64,
                           static_cast<std::int16_t>(p));
        tracer.record(s);
        tracer.note_instant(SpanKind::kCacheHit, 32);
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true, std::memory_order_release);
  exporter.join();

  // Every record plus each producer's sampled hits (seq 0, 64, ..., 1984).
  const std::uint64_t sampled_per_thread =
      (kPerThread - 1) / Tracer::kNoteSampleEvery + 1;
  EXPECT_EQ(tracer.recorded(),
            static_cast<std::uint64_t>(kProducers) *
                (kPerThread + sampled_per_thread));
  // Per-thread rings: each producer kept its newest 256 spans.
  EXPECT_GE(tracer.snapshot().size(), static_cast<std::size_t>(kProducers) * 200);
}

}  // namespace
}  // namespace remio::obs
