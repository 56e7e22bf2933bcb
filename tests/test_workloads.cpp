// Integration tests over the shared workloads: each §7 experiment's
// qualitative claim is asserted at small scale — async beats sync, two
// streams beat one, compression raises app-perceived write bandwidth, and
// the counter-intuitive bus-contention result reproduces.
#include <gtest/gtest.h>

#include "simnet/timescale.hpp"
#include "testbed/workloads.hpp"

namespace remio::testbed {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  // Moderate scale: runs stay in the tens of milliseconds of wall time but
  // the effects under test stay well above sleep-granularity noise.
  WorkloadTest() : scale_(300.0) {}
  simnet::ScopedTimeScale scale_;
};

LaplaceParams small_laplace() {
  LaplaceParams p;
  p.checkpoint_bytes = 2u << 20;
  p.checkpoints = 2;
  p.iters_per_checkpoint = 3;
  p.compute_total = 1.2;
  p.halo_bytes = 8 * 1024;
  return p;
}

TEST_F(WorkloadTest, LaplaceSyncRunsAndAccounts) {
  Testbed tb(tg_ncsa(), 2);
  const auto r = run_laplace(tb, 2, small_laplace());
  EXPECT_GT(r.exec, 0.0);
  EXPECT_GT(r.io_phase, 0.0);
  EXPECT_GT(r.compute_phase, 0.0);
  EXPECT_EQ(r.bytes_written, (2u << 20) * 2);
  // Checkpoints land in the store.
  EXPECT_GE(tb.server().store().total_bytes(), 2u << 20);
  // Sync exec ~ compute + io; expected overlap is the max of the phases.
  EXPECT_NEAR(r.exec, r.compute_phase + r.io_phase, r.exec * 0.35);
  EXPECT_LE(r.expected_overlap, r.compute_phase + r.io_phase);
}

TEST_F(WorkloadTest, LaplaceAsyncBeatsSync) {
  LaplaceParams p = small_laplace();
  p.compute_total = 4.0;  // balanced phases -> a robust overlap gain
  // Best of two runs per mode: scheduler stalls only ever slow a run down.
  auto best = [&](bool async) {
    double b = 1e100;
    for (int rep = 0; rep < 2; ++rep) {
      Testbed tb(das2(), 2);
      LaplaceParams q = p;
      q.async = async;
      b = std::min(b, run_laplace(tb, 2, q).exec);
    }
    return b;
  };
  EXPECT_LT(best(true), best(false));
}

// Span-derived version of the AsyncBeatsSync claim: the achieved-overlap
// fraction comes from sim-time busy intervals, so it is immune to the
// scheduler jitter that makes wall-clock exec comparisons flaky. Async
// overlaps compute with the wire; sync by construction cannot.
TEST_F(WorkloadTest, LaplaceSpanOverlapAsyncExceedsSync) {
  LaplaceParams p = small_laplace();
  // Balanced phases on das2: per rank and checkpoint, about 4.5 sim-s each
  // of compute and of wire time. Async hides all but the first compute
  // block and the last checkpoint, so the structural gap (sync ~0.5, async
  // ~0.75) dwarfs scheduler noise; with either phase dominant the gap
  // shrinks toward the 0.05 asserted below.
  p.checkpoints = 3;
  p.compute_total = 24.0;
  auto achieved = [&](bool async) {
    Testbed tb(das2(), 2);
    LaplaceParams q = p;
    q.async = async;
    return run_laplace(tb, 2, q).span_overlap_achieved;
  };
  const double sync_a = achieved(false);
  const double async_a = achieved(true);
  EXPECT_GT(sync_a, 0.0);
  EXPECT_LE(async_a, 1.0);
  // Async must recover a clear majority of the serial time; sync sits near
  // max(C,I)/(C+I). The gap is structural, not a timing race.
  EXPECT_GT(async_a, sync_a + 0.05);
  EXPECT_GT(async_a, 0.5);
}

TEST_F(WorkloadTest, LaplaceSpansAreWellFormedAndCoverBothPhases) {
  LaplaceParams p = small_laplace();
  p.async = true;
  Testbed tb(das2(), 2);
  const auto r = run_laplace(tb, 2, p);
  ASSERT_FALSE(r.spans.empty());
  bool saw_compute = false;
  bool saw_wire = false;
  for (const auto& s : r.spans) {
    EXPECT_TRUE(obs::well_formed(s));
    saw_compute = saw_compute || s.kind == obs::SpanKind::kCompute;
    saw_wire = saw_wire || s.kind == obs::SpanKind::kWire;
  }
  EXPECT_TRUE(saw_compute);
  EXPECT_TRUE(saw_wire);
  EXPECT_GT(r.span_compute_busy, 0.0);
  EXPECT_GT(r.span_io_busy, 0.0);
}

TEST_F(WorkloadTest, LaplaceTwoStreamsBeatAsyncOnDas2) {
  LaplaceParams p = small_laplace();
  p.async = true;
  double one_stream;
  double two_streams;
  {
    Testbed tb(das2(), 2);
    one_stream = run_laplace(tb, 2, p).exec;
  }
  {
    Testbed tb(das2(), 2);
    p.streams = 2;
    two_streams = run_laplace(tb, 2, p).exec;
  }
  EXPECT_LT(two_streams, one_stream);
}

TEST_F(WorkloadTest, LaplaceScalesDownWithProcs) {
  const LaplaceParams p = small_laplace();
  auto best = [&](int procs) {
    double b = 1e100;
    for (int rep = 0; rep < 2; ++rep) {
      Testbed tb(tg_ncsa(), 4);
      b = std::min(b, run_laplace(tb, procs, p).exec);
    }
    return b;
  };
  EXPECT_LT(best(4), best(2));
}

TEST_F(WorkloadTest, LaplaceRejectsBadProcs) {
  Testbed tb(tg_ncsa(), 2);
  EXPECT_THROW(run_laplace(tb, 3, small_laplace()), std::invalid_argument);
}

BlastParams small_blast() {
  BlastParams p;
  p.queries = 12;
  p.report_bytes = 32 * 1024;
  p.compute_per_query = 0.3;
  return p;
}

TEST_F(WorkloadTest, BlastAsyncBeatsSync) {
  const BlastParams p = small_blast();
  double sync_time;
  double async_time;
  {
    Testbed tb(das2(), 4);
    sync_time = run_mpi_blast(tb, 4, p).exec;
  }
  {
    Testbed tb(das2(), 4);
    BlastParams ap = p;
    ap.async = true;
    async_time = run_mpi_blast(tb, 4, ap).exec;
  }
  EXPECT_LT(async_time, sync_time);
}

TEST_F(WorkloadTest, BlastWritesAllReports) {
  Testbed tb(tg_ncsa(), 3);
  const auto r = run_mpi_blast(tb, 3, small_blast());
  EXPECT_EQ(r.bytes_written, 12u * 32u * 1024u);
  // Each worker wrote its own independent file.
  EXPECT_EQ(tb.server().mcat().object_count(), 2u);
  EXPECT_EQ(tb.server().store().total_bytes(), r.bytes_written);
}

TEST_F(WorkloadTest, BlastMoreWorkersFinishFaster) {
  const BlastParams p = small_blast();
  double few;
  double many;
  {
    Testbed tb(tg_ncsa(), 5);
    few = run_mpi_blast(tb, 2, p).exec;
  }
  {
    Testbed tb(tg_ncsa(), 5);
    many = run_mpi_blast(tb, 5, p).exec;
  }
  EXPECT_LT(many, few);
}

TEST_F(WorkloadTest, BlastNeedsMaster) {
  Testbed tb(tg_ncsa(), 2);
  EXPECT_THROW(run_mpi_blast(tb, 1, small_blast()), std::invalid_argument);
}

TEST_F(WorkloadTest, PerfTwoStreamsRaiseBandwidth) {
  PerfParams p;
  p.array_bytes = 2u << 20;  // long transfers: jitter-immune comparison
  auto best_bw = [&](int streams) {
    double best = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
      Testbed tb(das2(), 2);
      PerfParams q = p;
      q.streams = streams;
      best = std::max(best, run_perf(tb, 2, q).write_bw);
    }
    return best;
  };
  const double bw1 = best_bw(1);
  const double bw2 = best_bw(2);
  EXPECT_GT(bw1, 0.0);
  EXPECT_GT(bw2, bw1 * 1.3);
}

TEST_F(WorkloadTest, PerfVerifiesReadback) {
  Testbed tb(tg_ncsa(), 3);
  PerfParams p;
  p.array_bytes = 256 * 1024;
  p.streams = 2;
  p.verify = true;  // throws on corruption
  const auto r = run_perf(tb, 3, p);
  EXPECT_GT(r.write_bw, 0.0);
  EXPECT_GT(r.read_bw, 0.0);
}

TEST_F(WorkloadTest, CompressionRaisesAppBandwidth) {
  // Compression runs real codec CPU work, which the global clock maps at
  // wall x scale: a small scale keeps Tcomp << Txmit, the §7.3 premise.
  simnet::ScopedTimeScale comp_scale(40.0);
  CompressParams p;
  p.data_bytes = 1u << 20;
  p.block_bytes = 256 * 1024;
  double plain;
  double compressed;
  {
    Testbed tb(das2(), 2);
    plain = run_compress(tb, 2, p).agg_write_bw;
  }
  {
    Testbed tb(das2(), 2);
    p.async_compressed = true;
    const auto r = run_compress(tb, 2, p);
    compressed = r.agg_write_bw;
    EXPECT_GT(r.compression_ratio, 1.4);
  }
  EXPECT_GT(compressed, plain * 1.3);
}

TEST_F(WorkloadTest, CompressionRoundTripVerifies) {
  simnet::ScopedTimeScale comp_scale(40.0);
  Testbed tb(tg_ncsa(), 1);
  CompressParams p;
  p.data_bytes = 512 * 1024;
  p.block_bytes = 128 * 1024;
  p.async_compressed = true;
  p.verify = true;  // throws on mismatch
  const auto r = run_compress(tb, 1, p);
  EXPECT_GT(r.agg_write_bw, 0.0);
}

TEST_F(WorkloadTest, ContentionErasesSecondStreamGain) {
  // §7.1's counter-intuitive result: with remote I/O overlapping the MPI
  // communication on a narrow node bus, the second connection buys nothing;
  // moving the wait (position 2) restores it.
  // Longer wall times for this timing-sensitive comparison.
  simnet::ScopedTimeScale fine_scale(150.0);
  ClusterSpec c = das2();
  c.node_bus_rate = 1.2e6;  // narrow bus: MPI halos contend with the WAN NIC
  // Deep collapse while both NICs arbitrate (TCP starvation regime): while
  // remote I/O overlaps MPI traffic, the bus delivers a fraction of its
  // rate, so extra TCP streams cannot help (§7.1).
  c.bus_contention_penalty = 0.2;
  LaplaceParams p = small_laplace();
  p.checkpoint_bytes = 4u << 20;  // I/O-heavy, so streams matter uncontended
  p.checkpoints = 2;
  p.halo_bytes = 512 * 1024;  // comm-heavy compute phase (paper's situation)
  p.iters_per_checkpoint = 4;
  p.async = true;

  // Best of two runs per configuration: thread-scheduling jitter on a
  // single-core host is one-sided (delays only), so min is the estimator.
  auto timed = [&](int streams, WaitPlacement wait) {
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      Testbed tb(c, 2);
      LaplaceParams q = p;
      q.streams = streams;
      q.wait = wait;
      best = std::min(best, run_laplace(tb, 2, q).exec);
    }
    return best;
  };

  const double overlap_1s = timed(1, WaitPlacement::kBeforeNextWrite);
  const double overlap_2s = timed(2, WaitPlacement::kBeforeNextWrite);
  const double nooverlap_2s = timed(2, WaitPlacement::kBeforeComm);

  // Two streams under contention: no meaningful gain over one stream.
  EXPECT_GT(overlap_2s, overlap_1s * 0.75);
  // Restructured code (wait moved): the two-stream gain comes back.
  EXPECT_LT(nooverlap_2s, overlap_2s * 0.97);
}

}  // namespace
}  // namespace remio::testbed
