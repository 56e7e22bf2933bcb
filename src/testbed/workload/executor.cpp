#include "testbed/workload/executor.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>

#include "core/semplar.hpp"
#include "obs/analyzer.hpp"
#include "obs/tracer.hpp"
#include "simnet/timescale.hpp"

namespace remio::testbed::workload {
namespace {

/// Cross-rank collection point (the JobClock of the old per-figure loops).
struct Clock {
  std::mutex mu;
  std::vector<PhaseTimer> timers;
  std::vector<std::vector<obs::Span>> rank_traces;
  std::vector<double> marks;
  double t_start = 0.0;
  double t_end = 0.0;
  std::array<std::uint64_t, static_cast<std::size_t>(OpKind::kCount)> op_count{};
  std::array<std::uint64_t, static_cast<std::size_t>(OpKind::kCount)> op_bytes{};
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;

  void stamp_mark(std::int32_t segment) {
    std::lock_guard lk(mu);
    const auto i = static_cast<std::size_t>(segment);
    if (marks.size() <= i) marks.resize(i + 1, 0.0);
    marks[i] = simnet::sim_now();
  }
};

Phase phase_for(const Op& op) {
  switch (op.phase) {
    case OpPhase::kNone: return Phase::kNone;
    case OpPhase::kCompute: return Phase::kCompute;
    case OpPhase::kIo: return Phase::kIo;
    case OpPhase::kDefault: break;
  }
  switch (op.kind) {
    case OpKind::kCompute: return Phase::kCompute;
    case OpKind::kRead:
    case OpKind::kWrite:
    case OpKind::kReadAt:
    case OpKind::kWriteAt:
    case OpKind::kFlush:
    case OpKind::kDrain: return Phase::kIo;
    default: return Phase::kNone;
  }
}

/// One rank's executing state.
class RankRunner {
 public:
  RankRunner(Testbed& tb, mpi::Comm& comm, WorkloadGenerator& gen,
             const ExecOptions& eo, Clock& clock,
             const std::vector<std::function<void(UserCtx&)>>& hooks)
      : tb_(tb), comm_(comm), gen_(gen), eo_(eo), clock_(clock), hooks_(hooks),
        rank_(comm.rank()) {
    semplar::Config cfg =
        tb.semplar_config(rank_, eo.streams, eo.io_threads, eo.charge_bus);
    cfg.cache_bytes = eo.cache_bytes;
    if (eo.cache_block_bytes > 0) cfg.cache_block_bytes = eo.cache_block_bytes;
    cfg.readahead_blocks = eo.readahead_blocks;
    cfg.writeback_hwm = eo.writeback_hwm;
    driver_ = std::make_unique<semplar::SrbfsDriver>(tb.fabric(), cfg);
  }

  void run() {
    for (;;) {
      const Op op = gen_.get_next(rank_);
      if (op.kind == OpKind::kEnd) break;
      if (eo_.use_phase_timer) timer_.enter(phase_for(op));
      execute_op(op);
      op_count_[static_cast<std::size_t>(op.kind)] += 1;
    }
    finish();
  }

 private:
  struct Pending {
    mpiio::IoRequest req;
    std::shared_ptr<const Bytes> wbuf;          // keeps write payload alive
    std::unique_ptr<Bytes> rbuf;                // read destination
    std::shared_ptr<const Bytes> expect;        // read verification
    OpKind kind = OpKind::kEnd;
    bool is_write = false;
  };

  void execute_op(const Op& op) {
    switch (op.kind) {
      case OpKind::kOpen: do_open(op); break;
      case OpKind::kClose: do_close(op.file); break;
      case OpKind::kRead:
      case OpKind::kReadAt: do_read(op); break;
      case OpKind::kWrite:
      case OpKind::kWriteAt: do_write(op); break;
      case OpKind::kFlush:
        drain();
        checked_file(op.file)->flush();
        break;
      case OpKind::kBarrier: comm_.barrier(); break;
      case OpKind::kCompute: tb_.compute(op.seconds); break;
      case OpKind::kDrain: drain(); break;
      case OpKind::kPhaseMark:
        drain();
        comm_.barrier();
        if (rank_ == 0) clock_.stamp_mark(op.user);
        break;
      case OpKind::kUser: do_user(op); break;
      case OpKind::kEnd:
      case OpKind::kCount: break;
    }
  }

  void do_open(const Op& op) {
    if (files_.count(op.file) != 0)
      throw std::logic_error("workload executor: slot " +
                             std::to_string(op.file) + " already open");
    auto file = std::make_unique<mpiio::File>(*driver_, op.path, op.mode);
    if (eo_.collect_spans && eo_.use_phase_timer)
      timer_.bind(file->handle().tracer());
    had_file_ = true;
    files_[op.file] = std::move(file);
    bound_slot_ = op.file;
  }

  void do_close(std::int32_t slot) {
    mpiio::File* f = checked_file(slot);
    drain();
    if (eo_.use_phase_timer && slot == bound_slot_) {
      timer_.stop();  // flush the final phase span while the tracer lives
      timer_.bind(nullptr);
      bound_slot_ = -1;
    }
    snapshot(*f);
    f->close();
    files_.erase(slot);
  }

  void do_read(const Op& op) {
    mpiio::File* f = checked_file(op.file);
    const bool at = op.kind == OpKind::kReadAt;
    if (op.async) {
      make_room();
      Pending p;
      p.rbuf = std::make_unique<Bytes>(op.bytes);
      p.expect = op.expect;
      p.kind = op.kind;
      MutByteSpan out(p.rbuf->data(), p.rbuf->size());
      p.req = at ? f->iread_at(op.offset, out) : f->iread(out);
      pending_.push_back(std::move(p));
    } else {
      if (scratch_.size() < op.bytes) scratch_.resize(op.bytes);
      MutByteSpan out(scratch_.data(), static_cast<std::size_t>(op.bytes));
      const std::size_t got = at ? f->read_at(op.offset, out) : f->read(out);
      note_read(op.kind, got, op.expect, scratch_.data());
    }
  }

  void do_write(const Op& op) {
    mpiio::File* f = checked_file(op.file);
    const bool at = op.kind == OpKind::kWriteAt;
    const std::shared_ptr<const Bytes> buf =
        op.data ? op.data : pattern_buffer(op.bytes);
    ByteSpan data(buf->data(), buf->size());
    if (op.async) {
      make_room();
      Pending p;
      p.wbuf = buf;
      p.is_write = true;
      p.kind = op.kind;
      p.req = at ? f->iwrite_at(op.offset, data) : f->iwrite(data);
      pending_.push_back(std::move(p));
    } else {
      const std::size_t n = at ? f->write_at(op.offset, data) : f->write(data);
      bytes_written_ += n;
      op_bytes_[static_cast<std::size_t>(op.kind)] += n;
    }
  }

  void do_user(const Op& op) {
    const auto i = static_cast<std::size_t>(op.user);
    if (op.user < 0 || i >= hooks_.size())
      throw std::logic_error("workload executor: kUser op with no hook " +
                             std::to_string(op.user));
    UserCtx ctx{comm_, tb_, rank_, op,
                [this](std::int32_t slot) -> mpiio::File* {
                  const auto it = files_.find(slot);
                  return it == files_.end() ? nullptr : it->second.get();
                }};
    hooks_[i](ctx);
  }

  void note_read(OpKind kind, std::size_t got,
                 const std::shared_ptr<const Bytes>& expect, const char* data) {
    bytes_read_ += got;
    op_bytes_[static_cast<std::size_t>(kind)] += got;
    if (expect) {
      if (got != expect->size() ||
          std::memcmp(data, expect->data(), got) != 0)
        throw mpiio::IoError("workload read-back mismatch on rank " +
                             std::to_string(rank_));
    }
  }

  /// Waits the oldest in-flight request and accounts it.
  void complete_front() {
    Pending p = std::move(pending_.front());
    pending_.pop_front();
    const std::size_t n = p.req.wait();
    if (p.is_write) {
      bytes_written_ += n;
      op_bytes_[static_cast<std::size_t>(p.kind)] += n;
    } else {
      note_read(p.kind, n, p.expect, p.rbuf ? p.rbuf->data() : nullptr);
    }
  }

  void make_room() {
    const auto window = static_cast<std::size_t>(std::max(1, eo_.max_outstanding));
    while (pending_.size() >= window) complete_front();
  }

  void drain() {
    while (!pending_.empty()) complete_front();
  }

  mpiio::File* checked_file(std::int32_t slot) {
    const auto it = files_.find(slot);
    if (it == files_.end())
      throw std::logic_error("workload executor: slot " + std::to_string(slot) +
                             " not open");
    return it->second.get();
  }

  /// Deterministic per-rank fill pattern, cached by size. Content does not
  /// depend on the offset, so one read-only buffer serves every outstanding
  /// request of that size (matches run_perf's (i + rank*131) pattern).
  std::shared_ptr<const Bytes> pattern_buffer(std::uint64_t bytes) {
    auto& slot = patterns_[bytes];
    if (!slot) {
      auto b = std::make_shared<Bytes>(static_cast<std::size_t>(bytes));
      for (std::size_t i = 0; i < b->size(); ++i)
        (*b)[i] = static_cast<char>((i + static_cast<std::size_t>(rank_) * 131) & 0xff);
      slot = std::move(b);
    }
    return slot;
  }

  void snapshot(mpiio::File& file) {
    if (!eo_.collect_spans) return;
    obs::Tracer* t = file.handle().tracer();
    if (t == nullptr) return;
    std::vector<obs::Span> s = t->snapshot();
    if (s.empty()) return;
    for (auto& sp : s) sp.rank = static_cast<std::uint16_t>(rank_);
    std::lock_guard lk(clock_.mu);
    clock_.rank_traces.push_back(std::move(s));
  }

  void finish() {
    drain();
    // Close anything the generator left open (snapshot first, like kClose).
    while (!files_.empty()) do_close(files_.begin()->first);
    if (eo_.use_phase_timer) timer_.stop();
    {
      std::lock_guard lk(clock_.mu);
      if (eo_.use_phase_timer && had_file_) clock_.timers.push_back(timer_);
      for (std::size_t i = 0; i < op_count_.size(); ++i) {
        clock_.op_count[i] += op_count_[i];
        clock_.op_bytes[i] += op_bytes_[i];
      }
      clock_.bytes_read += bytes_read_;
      clock_.bytes_written += bytes_written_;
    }
    comm_.barrier();
    if (rank_ == 0) {
      std::lock_guard lk(clock_.mu);
      clock_.t_end = simnet::sim_now();
    }
  }

  Testbed& tb_;
  mpi::Comm& comm_;
  WorkloadGenerator& gen_;
  const ExecOptions& eo_;
  Clock& clock_;
  const std::vector<std::function<void(UserCtx&)>>& hooks_;
  const int rank_;

  std::unique_ptr<semplar::SrbfsDriver> driver_;
  std::map<std::int32_t, std::unique_ptr<mpiio::File>> files_;
  std::deque<Pending> pending_;
  PhaseTimer timer_;
  std::int32_t bound_slot_ = -1;
  bool had_file_ = false;
  Bytes scratch_;
  std::map<std::uint64_t, std::shared_ptr<const Bytes>> patterns_;
  std::array<std::uint64_t, static_cast<std::size_t>(OpKind::kCount)> op_count_{};
  std::array<std::uint64_t, static_cast<std::size_t>(OpKind::kCount)> op_bytes_{};
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace

ExecResult execute(Testbed& tb, WorkloadGenerator& gen, const ExecOptions& eo) {
  if (eo.procs < 1 || eo.procs > tb.node_count())
    throw std::invalid_argument("workload execute: bad proc count");

  Clock clock;
  clock.t_start = simnet::sim_now();
  const std::vector<std::function<void(UserCtx&)>> hooks = gen.hooks();

  mpi::RunOptions opts;
  opts.transport = tb.mpi_transport();
  mpi::run(eo.procs, [&](mpi::Comm& comm) {
    RankRunner runner(tb, comm, gen, eo, clock, hooks);
    runner.run();
  },
           opts);

  ExecResult r;
  r.marks = clock.marks;
  r.t_start = clock.marks.empty() ? clock.t_start : clock.marks.front();
  r.t_end = clock.t_end;
  r.exec = r.t_end - r.t_start;
  r.op_count = clock.op_count;
  r.op_bytes = clock.op_bytes;
  r.bytes_read = clock.bytes_read;
  r.bytes_written = clock.bytes_written;

  if (!clock.timers.empty()) {
    for (const auto& t : clock.timers) {
      r.compute_phase += t.compute_seconds();
      r.io_phase += t.io_seconds();
      r.expected_overlap += t.max_overlap_expected();
    }
    const auto n = static_cast<double>(clock.timers.size());
    r.compute_phase /= n;
    r.io_phase /= n;
    r.expected_overlap /= n;
  }
  if (!clock.rank_traces.empty()) {
    // Per-rank analysis over the job's barrier-to-barrier window, so serial
    // setup/teardown counts against the achieved-overlap fraction.
    for (const auto& trace : clock.rank_traces) {
      const obs::OverlapReport rep =
          r.t_end > r.t_start
              ? obs::ObsAnalyzer(trace).analyze(r.t_start, r.t_end)
              : obs::ObsAnalyzer(trace).analyze();
      r.span_overlap_achieved += rep.achieved_of_max;
      r.span_compute_busy += rep.compute_busy;
      r.span_io_busy += rep.io_busy;
      r.spans.insert(r.spans.end(), trace.begin(), trace.end());
    }
    const auto n = static_cast<double>(clock.rank_traces.size());
    r.span_overlap_achieved /= n;
    r.span_compute_busy /= n;
    r.span_io_busy /= n;
  }
  return r;
}

}  // namespace remio::testbed::workload
