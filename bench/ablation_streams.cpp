// §7.2 extension: the paper demonstrates two connections per node and notes
// "an arbitrary number of connections can be created"; this ablation sweeps
// streams-per-node 1..8 on each cluster to find where the shared resources
// (uplink, NAT, server) take over from the per-stream window cap.
//
// A second table per cluster (default das2 and tg) prices single requests
// on 2 streams: request size x requests in flight ("window"), a forced even
// split (stripe_size = ceil(n/2)) against auto striping, which sends a
// request below min(tcp_window, 64 KiB) whole to the next stream in turn.
//
// Usage: ablation_streams [--clusters=das2,osc,tg] [--procs=4] [--scale=400]
#include <cstdio>
#include <deque>

#include "core/semplar.hpp"
#include "simnet/timescale.hpp"
#include "testbed/harness.hpp"
#include "testbed/workloads.hpp"
#include "testbed/world.hpp"

using namespace remio;
using namespace remio::testbed;

namespace {

struct RequestCost {
  double ms_per_op;
  double rpcs_per_request;
};

/// Issues kOps requests of `len` bytes on one 2-stream file (half writes,
/// then half reads of the same ranges), keeping `window` of them in flight.
RequestCost request_cost(const ClusterSpec& cluster, std::size_t len,
                         int window, bool forced_split) {
  constexpr int kOps = 24;
  Testbed tb(cluster, 1);
  semplar::Config cfg = tb.semplar_config(0, /*streams=*/2, /*io_threads=*/2);
  if (forced_split) cfg.stripe_size = (len + 1) / 2;
  semplar::SemplarFile f(tb.fabric(), cfg, "/ablation/requests",
                         mpiio::kModeRead | mpiio::kModeWrite |
                             mpiio::kModeCreate | mpiio::kModeTrunc);
  auto rpcs = [&f] {
    std::uint64_t n = 0;
    for (int i = 0; i < f.streams().count(); ++i)
      n += f.streams().client(i).rpc_count();
    return n;
  };
  Bytes buf(len * static_cast<std::size_t>(window), 'r');
  std::deque<mpiio::IoRequest> inflight;
  const std::uint64_t rpc0 = rpcs();
  const double t0 = simnet::sim_now();
  for (int i = 0; i < kOps; ++i) {
    if (inflight.size() == static_cast<std::size_t>(window)) {
      inflight.front().wait();
      inflight.pop_front();
    }
    // Each in-flight slot owns its own range of the object and the buffer.
    const std::size_t at = static_cast<std::size_t>(i % window) * len;
    inflight.push_back(i < kOps / 2
                           ? f.iwrite_at(at, ByteSpan(buf.data() + at, len))
                           : f.iread_at(at, MutByteSpan(buf.data() + at, len)));
  }
  for (auto& r : inflight) r.wait();
  const double dt = simnet::sim_now() - t0;
  return {dt * 1e3 / kOps,
          static_cast<double>(rpcs() - rpc0) / static_cast<double>(kOps)};
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  apply_time_scale(opts);
  const int procs = static_cast<int>(opts.get_int("procs", 4));

  for (const auto& cluster : clusters_from(opts)) {
    Table table({"streams/node", "agg-write-Mb/s", "speedup-vs-1"});
    double base_bw = 0.0;
    for (const int streams : {1, 2, 3, 4, 6, 8}) {
      Testbed tb(cluster, procs);
      PerfParams p;
      p.array_bytes = 2u << 20;
      p.streams = streams;
      const auto r = run_perf(tb, procs, p);
      if (streams == 1) base_bw = r.write_bw;
      table.add_row({std::to_string(streams), Table::num(r.write_bw * 8 / 1e6, 1),
                     Table::num(base_bw > 0 ? r.write_bw / base_bw : 0.0, 2)});
    }
    emit(opts, "Ablation: streams per node (" + cluster.name + ", " +
                   std::to_string(procs) + " procs)",
         table);
  }
  std::printf("expectation: near-linear gains while the window cap binds, then a "
              "plateau at the cluster's shared bottleneck (NAT on OSC, uplink on "
              "DAS-2, server resources on TG).\n");

  for (const auto& cluster : clusters_from(opts, {"das2", "tg"})) {
    Table table({"KiB", "window", "split-ms/op", "auto-ms/op", "auto/split",
                 "split-rpcs/req", "auto-rpcs/req"});
    for (const int window : {1, 4}) {
      for (const std::size_t kib : {4, 16, 32, 48, 64, 128}) {
        const std::size_t len = kib * 1024;
        const RequestCost split = request_cost(cluster, len, window, true);
        const RequestCost autos = request_cost(cluster, len, window, false);
        table.add_row({std::to_string(kib), std::to_string(window),
                       Table::num(split.ms_per_op, 1),
                       Table::num(autos.ms_per_op, 1),
                       Table::num(autos.ms_per_op / split.ms_per_op, 2),
                       Table::num(split.rpcs_per_request, 1),
                       Table::num(autos.rpcs_per_request, 1)});
      }
    }
    emit(opts, "Ablation: request size x window on 2 streams (" +
                   cluster.name + ", tcp_window " +
                   std::to_string(cluster.tcp_window / 1024) + " KiB)",
         table);
  }
  std::printf("expectation: auto sends requests below min(tcp_window, 64 KiB) "
              "whole (1 RPC) and splits the rest (2 RPCs); auto is within noise "
              "of the split at window 1 and about 2x faster below that limit at "
              "window 4.\n");
  return 0;
}
