// The three unshaped op workloads: closed loops over mpiio::File on the
// unshaped world, timed around each request from this file.
#include <algorithm>
#include <cstdio>

#include "workloads.hpp"

namespace perfbench {

using remio::mpiio::File;
using remio::mpiio::IoRequest;

namespace {

constexpr std::uint64_t kMiB = 1u << 20;

// Why each exists is in perfbench/README.md and BENCHMARK.json.
const UnshapedSpec kSpecs[] = {
    // name, {streams, io_threads, async, window}, pattern, object, op,
    // ladder ops, one CPU
    {"rpc4k", {1, 0, false, 1}, Pattern::kMixed, 64 * kMiB, 4096, 20000, true},
    {"async4k", {2, 2, true, 4}, Pattern::kMixed, 64 * kMiB, 4096, 20000, false},
    {"bulk1m", {2, 2, true, 4}, Pattern::kBulk, 64 * kMiB, 1 << 20, 512, false},
    // laplace_das2's request shape on the unshaped world: two 12 MB rank
    // checkpoints, then a restart read of the grid in 1 MB chunks.
    {"laplace_unshaped", {2, 2, true, 1}, Pattern::kRestart, 24 * kMiB, 1 << 20, 260,
     false},
};

}  // namespace

const UnshapedSpec* find_unshaped(const std::string& name) {
  for (const auto& s : kSpecs)
    if (name == s.name) return &s;
  return nullptr;
}

Prepared::~Prepared() {
  if (file) file->close();
  file.reset();
  world.reset();
}

std::unique_ptr<Prepared> prepare(const UnshapedSpec& spec, std::uint64_t seed) {
  auto p = std::make_unique<Prepared>();
  p->world = std::make_unique<UnshapedWorld>(spec.shape);
  p->file = std::make_unique<File>(
      p->world->driver(), UnshapedWorld::kPath,
      remio::mpiio::kModeRead | remio::mpiio::kModeWrite | remio::mpiio::kModeCreate);
  p->model = std::make_unique<ObjectModel>(seed, spec.object_bytes, spec.op_bytes);
  File& file = *p->file;
  prefill(*p->model, [&file](std::uint64_t offset, ByteSpan data) {
    if (file.write_at(offset, data) != data.size())
      throw std::runtime_error("prefill: short write");
  });
  return p;
}

LoopStats run_loop(File& file, const Shape& shape, ObjectModel& model,
                   OpStream& ops, double seconds, std::vector<SpanRec>* log) {
  struct Slot {
    Op op;
    std::vector<std::uint32_t> versions;
    IoRequest req;
    double t0 = 0.0;
    Bytes buf;
  };
  LoopStats st;
  std::uint64_t op_id = 0;
  std::vector<Slot> slots(static_cast<std::size_t>(shape.window));
  std::vector<Slot*> free_slots;
  for (auto& s : slots) free_slots.push_back(&s);
  std::deque<Slot*> inflight;

  // Phase bookkeeping (bulk): a barrier op closes the previous phase.
  bool phase_open = false;
  bool phase_write = false;
  double phase_start = 0.0;
  auto close_phase = [&](double now) {
    if (!phase_open) return;
    (phase_write ? st.write_phase_s : st.read_phase_s) += now - phase_start;
    phase_open = false;
  };

  auto finish = [&](Slot& s, bool ok, std::size_t n, double t1) {
    if (!ok || n != s.op.len) {
      ++st.tally.failed;
      return;
    }
    if (!s.op.write &&
        !model.check(s.op, s.versions, ByteSpan(s.buf.data(), s.op.len))) {
      ++st.tally.mismatched;
      return;
    }
    const double us = (t1 - s.t0) * 1e6;
    (s.op.write ? st.write_us : st.read_us).push_back(us);
    (s.op.write ? st.write_bytes : st.read_bytes) += n;
    if (log != nullptr) log->push_back({++op_id, s.op.write, s.t0, t1});
  };
  auto complete_oldest = [&] {
    Slot* s = inflight.front();
    inflight.pop_front();
    const remio::Status status = s->req.wait_status();
    const double t1 = wall_now();
    finish(*s, status.ok(), status.ok() ? s->req.bytes() : 0, t1);
    s->req = IoRequest();
    free_slots.push_back(s);
  };

  const double start = wall_now();
  const double deadline = start + seconds;
  st.batch_ends.push_back({start, 0, 0});
  for (double now = start; now < deadline; now = wall_now()) {
    if (now >= st.batch_ends.back().t + LoopStats::kBatchSeconds)
      st.batch_ends.push_back({now, st.write_us.size(), st.read_us.size()});
    Op op = ops.next();
    if (op.barrier) {
      while (!inflight.empty()) complete_oldest();
      close_phase(wall_now());
    } else if (static_cast<int>(inflight.size()) >= shape.window) {
      complete_oldest();
    }
    Slot* s = free_slots.back();
    free_slots.pop_back();
    s->op = op;
    if (s->buf.size() < op.len) s->buf.resize(op.len);
    model.apply(op, s->versions);
    const MutByteSpan buf(s->buf.data(), op.len);
    if (op.write) model.fill(op, s->versions, buf);
    ++st.tally.attempted;
    if (!phase_open) {
      phase_open = true;
      phase_write = op.write;
      phase_start = wall_now();
    }
    s->t0 = wall_now();
    if (!shape.async) {
      std::size_t n = 0;
      bool ok = true;
      try {
        n = op.write ? file.write_at(op.offset, buf) : file.read_at(op.offset, buf);
      } catch (...) {
        ok = false;
      }
      finish(*s, ok, n, wall_now());
      free_slots.push_back(s);
      continue;
    }
    try {
      s->req = op.write ? file.iwrite_at(op.offset, buf) : file.iread_at(op.offset, buf);
      inflight.push_back(s);
    } catch (...) {
      ++st.tally.failed;
      free_slots.push_back(s);
    }
  }
  while (!inflight.empty()) complete_oldest();
  const double end = wall_now();
  close_phase(end);
  st.elapsed_s = end - start;
  return st;
}

namespace {

/// The p99 with its sample count; only when 10 samples lie beyond it.
void tail_line(Report& rep, const char* dir, const std::vector<double>& us) {
  char note[64];
  std::snprintf(note, sizeof note, "n=%zu", us.size());
  if (us.size() >= 1000)
    rep.info(std::string(dir) + "_p99_us", quantile(us, 0.99), "us", note);
}

}  // namespace

void run_unshaped(const UnshapedSpec& spec, const Args& args, Report& rep,
                  Tally& tally) {
  // The run measures in several worlds of about 2.5 s each, each with its
  // own set-up (world build, open and prefill), and cuts every world's loop
  // into batches of LoopStats::kBatchSeconds. On a shared machine other
  // tenants' load comes and goes within seconds and only ever slows a batch
  // down, so the figures are taken from the fastest tenth of the batches:
  // the code's own cost, with the interference mostly left out.
  const int segments = std::max(2, static_cast<int>(args.seconds / 2.5));
  OpStream ops(spec.pattern, args.seed, spec.object_bytes, spec.op_bytes,
               spec.shape.window);
  std::vector<double> setup_s, world_ops, write_mbps, read_mbps;
  std::vector<double> batch_ops, batch_write_p50, batch_read_p50;
  std::vector<double> write_all, read_all;
  double elapsed = 0.0;
  for (int i = 0; i < segments; ++i) {
    const double t0 = wall_now();
    const auto prep = prepare(spec, args.seed);
    setup_s.push_back(wall_now() - t0);
    // Warm-up: lazy engine threads, allocator pools, first-touch of buffers.
    tally.add(run_loop(*prep->file, spec.shape, *prep->model, ops,
                       std::min(0.25, 0.05 * args.seconds))
                  .tally);
    const LoopStats st = run_loop(*prep->file, spec.shape, *prep->model, ops,
                                  args.seconds / segments);
    tally.add(st.tally);
    elapsed += st.elapsed_s;
    world_ops.push_back(static_cast<double>(st.completed()) / st.elapsed_s);
    if (spec.pattern == Pattern::kBulk) {
      write_mbps.push_back(static_cast<double>(st.write_bytes) / 1e6 / st.write_phase_s);
      read_mbps.push_back(static_cast<double>(st.read_bytes) / 1e6 / st.read_phase_s);
    }
    for (std::size_t b = 1; b < st.batch_ends.size(); ++b) {
      const auto& from = st.batch_ends[b - 1];
      const auto& to = st.batch_ends[b];
      batch_ops.push_back(
          static_cast<double>(to.writes - from.writes + to.reads - from.reads) /
          (to.t - from.t));
      if (to.writes > from.writes)
        batch_write_p50.push_back(median(std::vector<double>(
            st.write_us.begin() + from.writes, st.write_us.begin() + to.writes)));
      if (to.reads > from.reads)
        batch_read_p50.push_back(median(std::vector<double>(
            st.read_us.begin() + from.reads, st.read_us.begin() + to.reads)));
    }
    write_all.insert(write_all.end(), st.write_us.begin(), st.write_us.end());
    read_all.insert(read_all.end(), st.read_us.begin(), st.read_us.end());
  }

  rep.metric("setup_s", median(setup_s), "s");
  rep.metric("ops_per_s", quantile(batch_ops, 0.9), "1/s");
  rep.metric("write_p50_us", quantile(batch_write_p50, 0.1), "us");
  rep.metric("read_p50_us", quantile(batch_read_p50, 0.1), "us");
  tail_line(rep, "write", write_all);
  tail_line(rep, "read", read_all);
  if (spec.pattern == Pattern::kBulk) {
    rep.info("write_MBps", quantile(write_mbps, 0.75), "MB/s", "write phases only");
    rep.info("read_MBps", quantile(read_mbps, 0.75), "MB/s", "read phases only");
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "  measured %.2f s in %d worlds, %zu batches: %zu writes, %zu reads "
                "completed",
                elapsed, segments, batch_ops.size(), write_all.size(), read_all.size());
  rep.line(buf);
  std::string per_world = "  ops_per_s by world (all batches):";
  for (const double v : world_ops) {
    std::snprintf(buf, sizeof buf, " %.1f", v);
    per_world += buf;
  }
  rep.line(per_world);
}

void run_unshaped_trace(const UnshapedSpec& spec, const Args& args, Report& rep,
                        Tally& tally) {
  const auto prep = prepare(spec, args.seed);
  OpStream ops(spec.pattern, args.seed, spec.object_bytes, spec.op_bytes,
               spec.shape.window);
  tally.add(run_loop(*prep->file, spec.shape, *prep->model, ops,
                     std::min(1.0, 0.1 * args.seconds))
                .tally);

  // Tracing overhead: the workload's own loop with and without recording a
  // span per request, alternated so drift hits both sides alike.
  constexpr int kPairs = 4;
  const double segment = 0.4 * args.seconds / (2 * kPairs);
  std::vector<double> plain;
  std::vector<double> traced;
  std::vector<SpanRec> spans;
  spans.reserve(1u << 18);
  auto append = [](std::vector<double>& to, const LoopStats& st) {
    to.insert(to.end(), st.write_us.begin(), st.write_us.end());
    to.insert(to.end(), st.read_us.begin(), st.read_us.end());
  };
  for (int i = 0; i < kPairs; ++i) {
    const LoopStats a = run_loop(*prep->file, spec.shape, *prep->model, ops, segment);
    const LoopStats b =
        run_loop(*prep->file, spec.shape, *prep->model, ops, segment, &spans);
    append(plain, a);
    append(traced, b);
    tally.add(a.tally);
    tally.add(b.tally);
  }
  const double plain_p50 = median(plain);
  const double traced_p50 = median(traced);
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "  tracing overhead (%s loop, window %d): traced p50 %.3f us "
                "(%zu spans) - untraced p50 %.3f us (%zu requests)",
                spec.name, spec.shape.window, traced_p50, spans.size(),
                plain_p50, plain.size());
  rep.line(buf);
  rep.metric("trace.overhead_us", traced_p50 - plain_p50, "us");

  run_ladder(spec, *prep, args.seed, rep, tally);
}

}  // namespace perfbench
