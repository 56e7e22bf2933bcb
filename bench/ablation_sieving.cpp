// Noncontiguous-access ablation (ROMIO's data sieving and list I/O ported
// onto the SRB wire, Thakur et al.'s playbook applied to SEMPLAR). Each
// cell moves a strided pattern of N extents over the 182 ms das2 WAN:
//   naive:  the ADIO base FileHandle::readv/writev, one read_at/write_at
//           per extent (N messages) — what a driver without vectored verbs
//           does;
//   driver: SemplarFile::readv/writev. Writes always take the list verb;
//           a read takes one hull fetch + local scatter when its holes
//           cost no more than the list verb's 16 B per extent
//           (srb::kListReadBytesPerExtent), the list verb otherwise. The
//           cell's strategy field is the path the driver took, read from
//           its spans: "hull" or "list".
// The sparse grid (1/8 KiB extents at 4x stride) runs both columns; the
// dense grid (8-64 B extents at 2x stride, 1k-16k extents) runs the driver
// only, where the hull-or-list choice flips between 16 and 32 B holes.
// wire_ops and bytes are deterministic for a given pattern and gate the
// committed baseline; timings are warn-only.
//
// Usage: ablation_sieving [--scale=100] [--json=PATH]
#include <cstdio>
#include <string>
#include <vector>

#include "common/bench_json.hpp"
#include "core/semplar.hpp"
#include "simnet/timescale.hpp"
#include "testbed/harness.hpp"
#include "testbed/world.hpp"

using namespace remio;
using namespace remio::testbed;

namespace {

struct Cell {
  std::string op;        // "read" | "write"
  std::string strategy;  // "naive" | "hull" | "list"
  int extents = 0;
  std::size_t extent_bytes = 0;
  std::uint64_t wire_ops = 0;  // protocol round trips (stable)
  std::uint64_t bytes = 0;     // application bytes moved (stable)
  double sim_s = 0.0;          // simulated transfer time (timing, warn-only)
};

ExtentList tile_pattern(int count, std::size_t extent_bytes,
                        std::size_t stride_factor) {
  ExtentList xs;
  const std::uint64_t stride = stride_factor * extent_bytes;
  for (int i = 0; i < count; ++i)
    xs.push_back({static_cast<std::uint64_t>(i) * stride, extent_bytes});
  return xs;
}

Cell run_cell(Testbed& tb, bool naive, bool is_write, int count,
              std::size_t extent_bytes, std::size_t stride_factor) {
  semplar::Config cfg = tb.semplar_config(0);
  cfg.obs.enabled = true;  // the driver's path is read from its spans
  semplar::SemplarFile f(tb.fabric(), cfg, "/sieving/tile",
                         mpiio::kModeRead | mpiio::kModeWrite);

  const ExtentList xs = tile_pattern(count, extent_bytes, stride_factor);
  Bytes packed(static_cast<std::size_t>(total_bytes(xs)), 's');

  Cell c;
  c.op = is_write ? "write" : "read";
  c.extents = count;
  c.extent_bytes = extent_bytes;
  const ByteSpan in(packed.data(), packed.size());
  const MutByteSpan out(packed.data(), packed.size());
  using Adio = mpiio::adio::FileHandle;  // naive: its per-extent loop
  const std::uint64_t before = f.stats().snapshot().wire_ops;
  const double t0 = simnet::sim_now();
  if (is_write)
    c.bytes = naive ? f.Adio::writev(xs, in) : f.writev(xs, in);
  else
    c.bytes = naive ? f.Adio::readv(xs, out) : f.readv(xs, out);
  c.sim_s = simnet::sim_now() - t0;
  c.wire_ops = f.stats().snapshot().wire_ops - before;

  c.strategy = naive ? "naive" : "list";
  if (!naive)
    for (const obs::Span& s : f.tracer()->snapshot())
      if (s.kind == obs::SpanKind::kSieve) c.strategy = "hull";
  return c;
}

std::string sieving_json(const std::string& cluster,
                         const std::vector<Cell>& cells) {
  JsonWriter w;
  w.begin_object();
  w.key("bench").value("ablation_sieving");
  w.key("cluster").value(cluster);
  w.key("cells").begin_array();
  for (const Cell& c : cells) {
    w.begin_object();
    w.key("op").value(c.op);
    w.key("strategy").value(c.strategy);
    w.key("extents").value(c.extents);
    w.key("extent_bytes").value(static_cast<std::uint64_t>(c.extent_bytes));
    w.key("wire_ops").value(c.wire_ops);
    w.key("bytes").value(c.bytes);
    w.key("sim_s").value(c.sim_s);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  apply_time_scale(opts);

  Testbed tb(das2(), 1);

  // Seed the remote tile array once, large enough for the widest pattern.
  constexpr std::size_t kSparseStride = 4;  // stride = 4 * extent_bytes
  constexpr std::size_t kDenseStride = 2;
  const std::size_t image_bytes = 256u * kSparseStride * 8192;
  {
    semplar::SrbfsDriver seeder(tb.fabric(), tb.semplar_config(0));
    mpiio::File seed(seeder, "/sieving/tile",
                     mpiio::kModeWrite | mpiio::kModeCreate | mpiio::kModeTrunc);
    const Bytes data(image_bytes, 'd');
    seed.write_at(0, ByteSpan(data.data(), data.size()));
    seed.close();
  }

  std::vector<Cell> cells;
  Table table({"op", "strategy", "extents", "extent-B", "wire-ops", "sim-ms"});
  const auto add = [&](const Cell& c) {
    table.add_row({c.op, c.strategy, std::to_string(c.extents),
                   std::to_string(c.extent_bytes), std::to_string(c.wire_ops),
                   Table::num(c.sim_s * 1e3, 1)});
    cells.push_back(c);
  };
  for (const bool is_write : {false, true}) {
    for (const std::size_t extent_bytes :
         {std::size_t{1024}, std::size_t{8192}})
      for (const int count : {4, 16, 64, 256})
        for (const bool naive : {true, false})
          add(run_cell(tb, naive, is_write, count, extent_bytes,
                       kSparseStride));
    for (const std::size_t extent_bytes :
         {std::size_t{8}, std::size_t{16}, std::size_t{32}, std::size_t{64}})
      for (const int count : {1024, 4096, 16384})
        add(run_cell(tb, /*naive=*/false, is_write, count, extent_bytes,
                     kDenseStride));
  }
  emit(opts, "Ablation: noncontiguous transfers over the 182 ms WAN (das2)",
       table);
  std::printf(
      "expectation: naive costs one 182 ms round trip per extent; the driver "
      "flattens that to one list message per 4096 extents; dense reads whose "
      "holes cost <= 16 B per extent (8 and 16 B extents at 2x stride) take "
      "one hull fetch instead, every write and every sparser read takes the "
      "list verb.\n");
  if (opts.has("json"))
    write_json_file(opts.get("json"), sieving_json(tb.cluster().name, cells));
  return 0;
}
