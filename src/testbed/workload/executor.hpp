// The one op-execution loop: runs any WorkloadGenerator's per-rank op
// streams against the full remote-I/O stack (SemplarFile -> block cache ->
// AsyncEngine -> StreamPool -> simnet fabric -> SRB broker) inside a
// minimpi job on a Testbed. Every workload in this repository — the paper's
// figure benchmarks (testbed/workloads.cpp adapters) and the registered
// generators (ycsb / daly / extsort / replay) — executes through here.
//
// Async semantics mirror the paper's benchmarks: ops with Op::async are
// issued as iread/iwrite and at most ExecOptions::max_outstanding requests
// are in flight per rank — issuing past the window first waits for the
// oldest (max_outstanding == 1 reproduces Fig. 4's wait-then-issue loop).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/span.hpp"
#include "testbed/phase.hpp"
#include "testbed/workload/generator.hpp"
#include "testbed/world.hpp"

namespace remio::mpiio {
class File;
}

namespace remio::testbed::workload {

/// What a kUser hook sees: the rank's communicator, the testbed, and the
/// rank's open files. Hooks run on the rank's thread.
struct UserCtx {
  mpi::Comm& comm;
  Testbed& tb;
  int rank;
  const Op& op;
  /// The file open in `slot`, or null. Hooks needing the raw driver handle
  /// (e.g. to stack a CompressPipe) use file(slot)->handle().
  std::function<mpiio::File*(std::int32_t slot)> file;
};

struct ExecOptions {
  int procs = 1;
  int streams = 1;      // TCP streams per open file (§7.2)
  int io_threads = 0;   // 0 = lazy single thread (§7.1)
  bool charge_bus = true;
  /// Client cache knobs (0 = off, the paper's configuration).
  std::size_t cache_bytes = 0;
  std::size_t cache_block_bytes = 0;  // 0 = Config default
  int readahead_blocks = 0;
  std::size_t writeback_hwm = 0;
  /// Async window per rank; issuing beyond it waits for the oldest request.
  int max_outstanding = 1;
  /// Snapshot per-rank tracers at kClose and run the overlap analysis.
  bool collect_spans = true;
  /// Drive a PhaseTimer (compute/io accounting + kCompute/kIoWait spans).
  /// Off reproduces workloads that never phase-timed (perf, compress).
  bool use_phase_timer = true;
};

struct ExecResult {
  // Wall (sim) window: t_start = marks[0] when the generator emitted a
  // kPhaseMark, else the job start; t_end = after the final implicit
  // barrier. exec = t_end - t_start.
  double exec = 0.0;
  double t_start = 0.0;
  double t_end = 0.0;
  /// Sim time stamped at each kPhaseMark, indexed by Op::user.
  std::vector<double> marks;

  // PhaseTimer aggregation (mean per recorded rank), as RunResult.
  double compute_phase = 0.0;
  double io_phase = 0.0;
  double expected_overlap = 0.0;

  // Span-derived overlap metrics (mean per traced rank, window-clamped).
  double span_overlap_achieved = 0.0;
  double span_compute_busy = 0.0;
  double span_io_busy = 0.0;
  std::vector<obs::Span> spans;  // merged trace; Span::rank tags ranks

  // Actual transferred byte totals across ranks.
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  /// Executed-op histogram across ranks, by OpKind.
  std::array<std::uint64_t, static_cast<std::size_t>(OpKind::kCount)> op_count{};
  std::array<std::uint64_t, static_cast<std::size_t>(OpKind::kCount)> op_bytes{};

  std::uint64_t ops(OpKind k) const {
    return op_count[static_cast<std::size_t>(k)];
  }
  std::uint64_t bytes(OpKind k) const {
    return op_bytes[static_cast<std::size_t>(k)];
  }
};

/// Runs `gen` (already load()ed for eo.procs ranks) on `tb`. Throws whatever
/// the stack throws (bad ops, failed verification, transport errors).
ExecResult execute(Testbed& tb, WorkloadGenerator& gen, const ExecOptions& eo);

}  // namespace remio::testbed::workload
