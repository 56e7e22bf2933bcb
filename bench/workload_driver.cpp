// Runs any registered workload generator (ycsb / daly / extsort / replay /
// anything added via register_generator) against the full SemplarFile ->
// cache -> AsyncEngine -> StreamPool stack on the simnet testbed, through
// the same op-execution loop the figure benches use.
//
// Usage:
//   workload_driver --workload=ycsb|daly|extsort|replay
//     [--ranks=2] [--cluster=das2] [--seed=42] [--scale=100]
//     [--streams=1] [--io-threads=0] [--window=1]
//     [--cache-mb=0] [--readahead=0] [--writeback-kb=0]
//     [--json=BENCH_workload_<name>.json] [--trace=out.json] [--report=out.txt]
//     [--<generator-param>=value ...]
//
// Unrecognized --key=value flags pass straight through to the generator
// (see each generator's header for its knobs). The replay generator takes
// its input trace via --trace-in=<chrome-trace.json> (--trace names the
// *output* trace artifact) and infers --ranks from it when omitted.
//
// Always writes a BENCH_workload_<name>.json summary (override the path
// with --json=...) for the CI bench-smoke baseline diff; exits nonzero on
// any error, including generator param validation.
#include <cstdio>
#include <exception>
#include <iostream>
#include <set>
#include <string>

#include "common/bench_json.hpp"
#include "common/options.hpp"
#include "obs/trace_export.hpp"
#include "testbed/harness.hpp"
#include "testbed/workload/executor.hpp"
#include "testbed/workload/registry.hpp"
#include "testbed/workload/replay.hpp"
#include "testbed/world.hpp"

using namespace remio;
using namespace remio::testbed;
namespace wk = remio::testbed::workload;

namespace {

// Flags the driver consumes itself; everything else forwards to the
// generator as a workload param.
const std::set<std::string> kDriverFlags = {
    "workload", "ranks",     "cluster", "seed",   "scale",
    "streams",  "io-threads", "window",  "cache-mb", "readahead",
    "writeback-kb", "json",  "trace",   "report", "trace-in", "csv"};

int usage() {
  std::string names;
  for (const auto& n : wk::registered_generators()) {
    if (!names.empty()) names += "|";
    names += n;
  }
  std::fprintf(stderr,
               "usage: workload_driver --workload=%s [--ranks=N] "
               "[--cluster=das2|osc|tg] [--seed=S] [--generator-param=V ...]\n",
               names.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  if (!opts.has("workload")) return usage();
  const std::string name = opts.get("workload");

  try {
    auto gen = wk::make_generator(name);
    apply_time_scale(opts, 100.0);
    const ClusterSpec cluster = cluster_by_name(opts.get("cluster", "das2"));

    wk::WorkloadParams params;
    params.seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
    for (const auto& [k, v] : opts.all())
      if (kDriverFlags.count(k) == 0) params.kv[k] = v;
    if (opts.has("trace-in")) params.kv["trace"] = opts.get("trace-in");

    int ranks = static_cast<int>(opts.get_int("ranks", 0));
    if (ranks <= 0 && name == "replay" && params.kv.count("trace") != 0)
      ranks = wk::trace_rank_count(params.kv["trace"]);
    if (ranks <= 0) ranks = 2;
    params.ranks = ranks;

    gen->load(params);

    Testbed tb(cluster, ranks);
    wk::ExecOptions eo;
    eo.procs = ranks;
    eo.streams = static_cast<int>(opts.get_int("streams", 1));
    eo.io_threads = static_cast<int>(opts.get_int("io-threads", 0));
    eo.max_outstanding = static_cast<int>(opts.get_int("window", 1));
    eo.cache_bytes =
        static_cast<std::size_t>(opts.get_int("cache-mb", 0)) << 20;
    eo.readahead_blocks = static_cast<int>(opts.get_int("readahead", 0));
    eo.writeback_hwm =
        static_cast<std::size_t>(opts.get_int("writeback-kb", 0)) << 10;
    const wk::ExecResult r = wk::execute(tb, *gen, eo);

    // --- human summary ------------------------------------------------------
    std::printf("workload %s on %s: ranks=%d seed=%llu\n", name.c_str(),
                cluster.name.c_str(), ranks,
                static_cast<unsigned long long>(params.seed));
    std::printf("  exec %.3f sim-s (t=[%.3f, %.3f])", r.exec, r.t_start,
                r.t_end);
    for (std::size_t i = 0; i < r.marks.size(); ++i)
      std::printf("%s mark%zu=%.3f", i == 0 ? ";" : ",", i, r.marks[i]);
    std::printf("\n");
    if (r.compute_phase > 0.0 || r.io_phase > 0.0)
      std::printf("  phases: compute %.3f s, io %.3f s, expected-overlap %.3f "
                  "s; span-achieved %.1f%%\n",
                  r.compute_phase, r.io_phase, r.expected_overlap,
                  r.span_overlap_achieved * 100.0);
    std::printf("  bytes: read %llu, written %llu; server holds %llu bytes in "
                "%zu objects\n",
                static_cast<unsigned long long>(r.bytes_read),
                static_cast<unsigned long long>(r.bytes_written),
                static_cast<unsigned long long>(tb.server().store().total_bytes()),
                tb.server().mcat().object_count());
    std::printf("  ops:");
    for (std::size_t k = 0; k < r.op_count.size(); ++k)
      if (r.op_count[k] > 0)
        std::printf(" %s=%llu", wk::op_kind_name(static_cast<wk::OpKind>(k)),
                    static_cast<unsigned long long>(r.op_count[k]));
    std::printf("\n");
    if (!r.spans.empty()) obs::write_text_report(std::cout, r.spans);

    // --- artifacts ----------------------------------------------------------
    dump_trace_artifacts(opts, r.spans);

    JsonWriter j;
    j.begin_object();
    j.key("bench").value("workload_driver");
    j.key("workload").value(name);
    j.key("cluster").value(cluster.name);
    j.key("ranks").value(ranks);
    j.key("seed").value(static_cast<std::uint64_t>(params.seed));
    j.key("params").begin_object();
    for (const auto& [k, v] : params.kv) j.key(k).value(v);
    j.end_object();
    j.key("exec_seconds").value(r.exec);
    j.key("marks").begin_array();
    for (const double m : r.marks) j.value(m);
    j.end_array();
    j.key("compute_phase").value(r.compute_phase);
    j.key("io_phase").value(r.io_phase);
    j.key("expected_overlap").value(r.expected_overlap);
    j.key("span_overlap_achieved").value(r.span_overlap_achieved);
    j.key("span_compute_busy").value(r.span_compute_busy);
    j.key("span_io_busy").value(r.span_io_busy);
    j.key("bytes_read").value(r.bytes_read);
    j.key("bytes_written").value(r.bytes_written);
    j.key("server_bytes").value(
        static_cast<std::uint64_t>(tb.server().store().total_bytes()));
    j.key("server_objects").value(
        static_cast<std::uint64_t>(tb.server().mcat().object_count()));
    j.key("ops").begin_object();
    for (std::size_t k = 0; k < r.op_count.size(); ++k) {
      if (r.op_count[k] == 0) continue;
      j.key(wk::op_kind_name(static_cast<wk::OpKind>(k)))
          .begin_object()
          .key("count")
          .value(r.op_count[k])
          .key("bytes")
          .value(r.op_bytes[k])
          .end_object();
    }
    j.end_object();
    j.end_object();
    const std::string json_path =
        opts.get("json", "BENCH_workload_" + name + ".json");
    write_json_file(json_path, j.str());
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload_driver: %s\n", e.what());
    return 1;
  }
}
