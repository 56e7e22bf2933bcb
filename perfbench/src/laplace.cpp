// laplace_das2: the paper's Fig. 7 run (testbed::run_laplace on the shaped
// DAS-2 testbed, 2 procs, async, 2 streams, fig7's das2 compute budget and
// time scale), followed by a restart that reads the last checkpoint back in
// seeded 1 MB chunks and checks every byte. All times here are on the
// simulated clock, like the paper's figures.
#include <algorithm>
#include <cstdio>

#include "obs/span.hpp"
#include "simnet/timescale.hpp"
#include "testbed/cluster.hpp"
#include "testbed/world.hpp"
#include "testbed/workloads.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace testbed = remio::testbed;
using remio::mpiio::File;
using remio::simnet::sim_now;

namespace {

constexpr double kFig7Scale = 60.0;    // fig7_laplace's default --scale
constexpr double kDas2Compute = 12.0;  // fig7_laplace's das2 compute budget
constexpr int kProcs = 2;
constexpr std::uint32_t kChunk = 1u << 20;

testbed::LaplaceParams fig7_params() {
  testbed::LaplaceParams p;
  p.async = true;
  p.streams = 2;
  p.compute_total = kDas2Compute;
  return p;
}

struct Job {
  double setup_s = 0.0;  // wall seconds: testbed build + restart opens
  testbed::RunResult run;
  std::vector<double> write_us;  // checkpoint requests, issue -> completion
  std::vector<double> read_us;   // restart chunks, issue -> wait return
  double restart_s = 0.0;
  Tally tally;
};

Job run_job(std::uint64_t seed) {
  const testbed::LaplaceParams p = fig7_params();
  Job job;
  const double t0 = wall_now();
  testbed::Testbed tb(testbed::das2(), kProcs);
  job.setup_s = wall_now() - t0;

  job.run = testbed::run_laplace(tb, kProcs, p);
  for (const auto& s : job.run.spans)
    if (s.kind == remio::obs::SpanKind::kIwrite) job.write_us.push_back(s.latency() * 1e6);
  // Every rank issues one request per checkpoint; all of them must land.
  const auto requests = static_cast<std::uint64_t>(kProcs * p.checkpoints);
  job.tally.attempted += requests;
  if (job.write_us.size() != requests ||
      job.run.bytes_written != p.checkpoint_bytes * static_cast<std::uint64_t>(p.checkpoints))
    job.tally.failed += requests;

  // Restart: each rank's node reads the grid slice it wrote (rank r's bytes
  // are all 'A' + r), chunk by chunk in a seeded order.
  const std::uint64_t slice = p.checkpoint_bytes / kProcs;
  const double open0 = wall_now();
  std::vector<std::unique_ptr<remio::semplar::SrbfsDriver>> drivers;
  std::vector<std::unique_ptr<File>> files;
  for (int r = 0; r < kProcs; ++r) {
    drivers.push_back(std::make_unique<remio::semplar::SrbfsDriver>(
        tb.fabric(), tb.semplar_config(r, p.streams, p.streams)));
    files.push_back(std::make_unique<File>(*drivers.back(), p.path,
                                           remio::mpiio::kModeRead));
  }
  job.setup_s += wall_now() - open0;
  // kBulk yields a seeded write permutation, then a read permutation.
  OpStream order(Pattern::kBulk, seed, p.checkpoint_bytes, kChunk, 1);
  std::vector<Op> plan;
  const std::size_t chunks = p.checkpoint_bytes / kChunk;
  while (plan.size() < chunks) {
    const Op op = order.next();
    if (!op.write) plan.push_back(op);
  }
  Bytes buf(kChunk);
  const double restart0 = sim_now();
  for (const Op& op : plan) {
    const auto rank = static_cast<int>(std::min<std::uint64_t>(op.offset / slice, kProcs - 1));
    const MutByteSpan out(buf.data(), op.len);
    ++job.tally.attempted;
    const double c0 = sim_now();
    remio::mpiio::IoRequest req = files[static_cast<std::size_t>(rank)]->iread_at(op.offset, out);
    const remio::Status st = req.wait_status();
    const double c1 = sim_now();
    if (!st.ok() || req.bytes() != op.len) {
      ++job.tally.failed;
      continue;
    }
    const char want = static_cast<char>('A' + rank);
    if (std::any_of(out.begin(), out.end(), [&](char c) { return c != want; })) {
      ++job.tally.mismatched;
      continue;
    }
    job.read_us.push_back((c1 - c0) * 1e6);
  }
  job.restart_s = sim_now() - restart0;
  for (auto& f : files) f->close();
  return job;
}

}  // namespace

void run_laplace_das2(const Args& args, Report& rep, Tally& tally) {
  if (args.trace) {
    // Per-layer: laplace's request shape replayed on the unshaped world (at
    // time scale 1), then one shaped job for its phase breakdown.
    run_unshaped_trace(*find_unshaped("laplace_unshaped"), args, rep, tally);
    remio::simnet::set_time_scale(kFig7Scale);
    const Job job = run_job(args.seed);
    tally.add(job.tally);
    rep.info("laplace.compute_s", job.run.compute_phase, "s", "simulated, mean per rank");
    rep.info("laplace.io_s", job.run.io_phase, "s", "simulated, mean per rank");
    rep.info("laplace.io_busy_s", job.run.span_io_busy, "s", "simulated wire union");
    return;
  }

  remio::simnet::set_time_scale(kFig7Scale);
  std::vector<Job> jobs;
  const double start = wall_now();
  do {
    jobs.push_back(run_job(args.seed + jobs.size()));
  } while (wall_now() - start < args.seconds);

  std::vector<double> setup_s, ops_per_s, exec, overlap, write_us, read_us;
  for (const Job& j : jobs) {
    tally.add(j.tally);
    setup_s.push_back(j.setup_s);
    const auto requests = static_cast<double>(j.write_us.size() + j.read_us.size());
    ops_per_s.push_back(requests / (j.run.exec + j.restart_s));
    exec.push_back(j.run.exec);
    overlap.push_back(j.run.span_overlap_achieved * 100.0);
    write_us.insert(write_us.end(), j.write_us.begin(), j.write_us.end());
    read_us.insert(read_us.end(), j.read_us.begin(), j.read_us.end());
  }
  rep.metric("setup_s", median(setup_s), "s");
  rep.metric("ops_per_s", median(ops_per_s), "1/s");
  rep.metric("write_p50_us", median(write_us), "us");
  rep.metric("read_p50_us", median(read_us), "us");
  char note[96];
  std::snprintf(note, sizeof note, "simulated, median of %zu jobs", jobs.size());
  rep.info("exec_sim_s", median(exec), "s", note);
  rep.info("overlap_pct", median(overlap), "%", note);
  std::snprintf(note, sizeof note, "n=%zu, too few for a p99", write_us.size());
  rep.info("write_max_us", *std::max_element(write_us.begin(), write_us.end()), "us", note);
}

}  // namespace perfbench
