// The benchmark's workloads. Each returns false when any request failed or
// read back wrong bytes; every metric goes through the Report.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// An unshaped workload (or the unshaped replay of the Laplace op shape).
struct UnshapedSpec {
  const char* name;
  Shape shape;
  Pattern pattern;
  std::uint64_t object_bytes;
  std::uint32_t op_bytes;  // request size (restart: read chunk); also the
                           // ObjectModel's slot size
  std::size_t ladder_ops;   // fixed op count of the per-layer replay
  // Run the whole process on one CPU. For a synchronous window-1 loop, where
  // only one thread is ever runnable, this loses no parallelism and keeps a
  // virtual machine's slow wake-up of an idle CPU out of every hand-off.
  bool one_cpu;
};

/// rpc4k, async4k, bulk1m, and laplace_unshaped (the ladder of laplace_das2).
const UnshapedSpec* find_unshaped(const std::string& name);

/// One benchmark-side span: a call into one layer, timed from our files.
struct SpanRec {
  std::uint64_t op;
  bool write;
  double t0;
  double t1;
};

/// What one closed loop over the mpiio::File front end measured.
struct LoopStats {
  std::vector<double> write_us;  // per-request latency, issue -> wait return
  std::vector<double> read_us;
  Tally tally;
  double elapsed_s = 0.0;
  std::uint64_t write_bytes = 0;
  std::uint64_t read_bytes = 0;
  double write_phase_s = 0.0;  // time with a write phase open (bulk)
  double read_phase_s = 0.0;
  // The loop's start, then the end of each whole kBatchSeconds: the time and
  // the sizes of write_us and read_us then, so figures can be taken per batch.
  struct BatchEnd {
    double t;
    std::size_t writes;
    std::size_t reads;
  };
  std::vector<BatchEnd> batch_ends;

  static constexpr double kBatchSeconds = 0.1;

  std::uint64_t completed() const { return write_us.size() + read_us.size(); }
};

/// Drives `file` with `ops` for `seconds`: synchronous write_at/read_at at
/// window 1, or iwrite_at/iread_at + wait with a FIFO window. Reads are
/// checked against `model`. With `log`, every request is also recorded as
/// a span (the traced variant of the loop).
LoopStats run_loop(remio::mpiio::File& file, const Shape& shape,
                   ObjectModel& model, OpStream& ops, double seconds,
                   std::vector<SpanRec>* log = nullptr);

/// A world with the object open and prefilled; built as one unit so set-up
/// time covers all of it.
struct Prepared {
  std::unique_ptr<UnshapedWorld> world;
  std::unique_ptr<remio::mpiio::File> file;
  std::unique_ptr<ObjectModel> model;

  ~Prepared();
};
std::unique_ptr<Prepared> prepare(const UnshapedSpec& spec, std::uint64_t seed);

// Every run adds its requests to `tally`; the caller turns it into the
// result's correct/attempted/failed.

/// End-to-end run of an unshaped workload (--trace 0).
void run_unshaped(const UnshapedSpec& spec, const Args& args, Report& rep,
                  Tally& tally);

/// Traced run of an unshaped op shape (--trace 1): tracing overhead, then
/// the per-layer replay. Shared with laplace_das2, whose traced run replays
/// its op shape unshaped.
void run_unshaped_trace(const UnshapedSpec& spec, const Args& args,
                        Report& rep, Tally& tally);

/// Per-layer replay of `spec.ladder_ops` seeded ops (ladder.cpp).
void run_ladder(const UnshapedSpec& spec, Prepared& prep, std::uint64_t seed,
                Report& rep, Tally& tally);

/// The shaped Laplace workload (laplace.cpp), end to end or traced.
void run_laplace_das2(const Args& args, Report& rep, Tally& tally);

}  // namespace perfbench
