// Integrity ablation (common/checksum + srb wire CRC + object-store scrub):
//
//   1. Wire-checksum overhead — the same sync read/write workload on a raw
//      SRB session with per-frame CRC32C on vs. off. The byte overhead is
//      exact (+4 B per frame, each direction, connect exchange included);
//      wall-clock delta on the re-read loop is the CPU cost of checksumming
//      (warn-only: it depends on the host and on the hw/sw CRC path).
//   2. Supervised in-flight corruption — the striped async workload with a
//      per-frame corruption probability on the pool's streams. Detection is
//      a checksum mismatch, recovery is a transparent replay on the same
//      stream: the run must end intact with zero reconnects.
//   3. At-rest rot + scrub — flip bytes under two stored objects, then
//      drive the admin scrub over the wire: both are quarantined; after
//      rewriting the damaged ranges a second scrub heals both.
//
// Usage: ablation_integrity [--mb=8] [--corrupt=0.05] [--scale=100]
//                           [--json=PATH]
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/bench_json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/semplar.hpp"
#include "simnet/faults.hpp"
#include "simnet/timescale.hpp"
#include "srb/client.hpp"
#include "srb/object_store.hpp"
#include "testbed/harness.hpp"
#include "testbed/world.hpp"

using namespace remio;
using namespace remio::testbed;

namespace {

constexpr std::uint32_t kRwct = mpiio::kModeRead | mpiio::kModeWrite |
                                mpiio::kModeCreate | mpiio::kModeTrunc;
constexpr std::uint32_t kSrbRwc = srb::kRead | srb::kWrite | srb::kCreate;

// ---- Phase 1: wire-checksum overhead on a raw SRB session ----------------

struct OverheadRun {
  std::uint64_t rpcs = 0;        // request/response pairs after connect
  std::uint64_t bytes_sent = 0;  // client -> server, session lifetime
  std::uint64_t bytes_received = 0;
  double reread_wall_s = 0.0;  // wall-clock of the re-read loop (CPU cost)
};

OverheadRun run_overhead(Testbed& tb, const std::string& path, bool crc,
                         std::size_t total) {
  const ServerSpec srv = sdsc_orion();
  srb::SrbClient c(tb.fabric(), tb.node_host(0), srv.host, srv.port, {},
                   "integrity-bench", "", crc);
  const auto fd = c.open(path, kSrbRwc);
  Rng rng(7);
  const Bytes data = rng.bytes(total);
  const std::size_t chunk = 64 * 1024;
  for (std::size_t off = 0; off < total; off += chunk)
    c.pwrite(fd, ByteSpan(data.data() + off, std::min(chunk, total - off)), off);

  Bytes back(total);
  const auto w0 = std::chrono::steady_clock::now();
  for (int pass = 0; pass < 4; ++pass)
    for (std::size_t off = 0; off < total; off += chunk)
      c.pread(fd, MutByteSpan(back.data() + off, std::min(chunk, total - off)),
              off);
  const auto w1 = std::chrono::steady_clock::now();
  if (back != data) std::printf("overhead run (crc=%d): READBACK MISMATCH\n", crc);

  OverheadRun run;
  run.reread_wall_s = std::chrono::duration<double>(w1 - w0).count();
  c.close(fd);
  c.disconnect();
  run.rpcs = c.rpc_count();
  run.bytes_sent = c.bytes_sent();
  run.bytes_received = c.bytes_received();
  return run;
}

// ---- Phase 2: supervised in-flight corruption ----------------------------

struct CorruptRun {
  double sim_s = 0.0;
  bool intact = false;
  std::uint64_t corruptions = 0;  // frames the injector actually damaged
  semplar::StatsSnapshot stats;
};

CorruptRun run_corrupt(Testbed& tb, const semplar::Config& cfg,
                       simnet::FaultInjector& faults, const std::string& path,
                       std::size_t total) {
  semplar::SrbfsDriver driver(tb.fabric(), cfg);
  mpiio::File f(driver, path, kRwct);
  Rng rng(11);
  const Bytes data = rng.bytes(total);
  const std::size_t chunk = 128 * 1024;
  const std::uint64_t corruptions_before = faults.corruptions();

  const double t0 = simnet::sim_now();
  std::vector<mpiio::IoRequest> reqs;
  for (std::size_t off = 0; off < total; off += chunk)
    reqs.push_back(f.iwrite_at(
        off, ByteSpan(data.data() + off, std::min(chunk, total - off))));
  for (auto& r : reqs) r.wait();
  reqs.clear();

  Bytes back(total);
  for (std::size_t off = 0; off < total; off += chunk)
    reqs.push_back(f.iread_at(
        off, MutByteSpan(back.data() + off, std::min(chunk, total - off))));
  for (auto& r : reqs) r.wait();

  CorruptRun run;
  run.sim_s = simnet::sim_now() - t0;
  run.intact = back == data;
  run.corruptions = faults.corruptions() - corruptions_before;
  auto* sf = dynamic_cast<semplar::SemplarFile*>(&f.handle());
  if (sf != nullptr) run.stats = sf->stats().snapshot();
  f.close();
  return run;
}

// ---- JSON artifact -------------------------------------------------------

std::string integrity_json(const std::string& cluster, std::uint64_t rpcs,
                           std::uint64_t frames, std::uint64_t d_sent,
                           std::uint64_t d_recv, double wall_ratio,
                           const CorruptRun& cr,
                           const srb::SrbClient::ScrubResult& dirty,
                           const srb::SrbClient::ScrubResult& healed) {
  JsonWriter w;
  w.begin_object();
  w.key("bench").value("ablation_integrity");
  w.key("cluster").value(cluster);
  w.key("overhead").begin_object();
  w.key("rpcs").value(rpcs);
  w.key("frames_per_direction").value(frames);
  w.key("delta_sent_bytes").value(d_sent);
  w.key("delta_recv_bytes").value(d_recv);
  w.key("per_frame_sent").value(frames > 0 ? d_sent / frames : 0);
  w.key("per_frame_recv").value(frames > 0 ? d_recv / frames : 0);
  w.key("reread_wall_ratio").value(wall_ratio);
  w.end_object();
  w.key("corruption").begin_object();
  w.key("intact").value(cr.intact);
  w.key("any_detected").value(cr.stats.corruptions_detected > 0);
  w.key("reconnects").value(cr.stats.reconnects);
  w.key("corruptions_injected").value(cr.corruptions);
  w.key("corruptions_detected").value(cr.stats.corruptions_detected);
  w.key("integrity_retries").value(cr.stats.integrity_retries);
  w.key("sim_s").value(cr.sim_s);
  w.end_object();
  w.key("scrub").begin_object();
  w.key("mismatched").value(dirty.mismatched);
  w.key("quarantined").value(dirty.quarantined);
  w.key("healed").value(healed.healed);
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  apply_time_scale(opts);
  const std::size_t total = static_cast<std::size_t>(opts.get_int("mb", 8)) << 20;
  const double corrupt_p = opts.get_double("corrupt", 0.05);

  Testbed tb(das2(), 1);
  bool ok = true;

  // ---- 1. wire-checksum overhead ----------------------------------------
  // Equal-length paths: the open request is part of the byte comparison.
  const OverheadRun on = run_overhead(tb, "/integrity/crc-on", true, total);
  const OverheadRun off = run_overhead(tb, "/integrity/crcoff", false, total);
  // One frame per rpc each direction. Every post-connect frame carries a
  // 4 B CRC trailer; the connect exchange is unchecksummed but carries the
  // 4 B feature-flags word (request) and its echo (response) instead — so
  // the session-lifetime delta is exactly 4 B per frame, both directions.
  const std::uint64_t frames = on.rpcs;
  const std::uint64_t d_sent = on.bytes_sent - off.bytes_sent;
  const std::uint64_t d_recv = on.bytes_received - off.bytes_received;
  const double wall_ratio =
      off.reread_wall_s > 0 ? on.reread_wall_s / off.reread_wall_s : 0.0;
  if (on.rpcs != off.rpcs || d_sent != 4 * frames || d_recv != 4 * frames) {
    std::printf("FAIL: expected exactly +4 B/frame (frames=%llu, "
                "d_sent=%llu, d_recv=%llu)\n",
                static_cast<unsigned long long>(frames),
                static_cast<unsigned long long>(d_sent),
                static_cast<unsigned long long>(d_recv));
    ok = false;
  }

  Table overhead({"wire-crc", "rpcs", "sent-B", "recv-B", "reread-wall-s"});
  overhead.add_row({"off", std::to_string(off.rpcs),
                    std::to_string(off.bytes_sent),
                    std::to_string(off.bytes_received),
                    Table::num(off.reread_wall_s, 3)});
  overhead.add_row({"on", std::to_string(on.rpcs),
                    std::to_string(on.bytes_sent),
                    std::to_string(on.bytes_received),
                    Table::num(on.reread_wall_s, 3)});
  emit(opts, "Ablation: per-frame CRC32C overhead (raw SRB session)", overhead);
  std::printf("overhead: +%llu B sent / +%llu B received over %llu frames "
              "(= 4 B/frame each way); re-read wall-clock ratio on/off = "
              "%.3f\n",
              static_cast<unsigned long long>(d_sent),
              static_cast<unsigned long long>(d_recv),
              static_cast<unsigned long long>(frames), wall_ratio);

  // ---- 2. supervised in-flight corruption -------------------------------
  auto faults = std::make_shared<simnet::FaultInjector>();
  tb.fabric().set_fault_injector(faults);
  semplar::Config cfg = tb.semplar_config(0, /*streams_per_node=*/2,
                                          /*io_threads=*/2);
  cfg.retry.max_attempts = 10;
  cfg.retry.backoff_base = 0.005;
  cfg.retry.backoff_cap = 0.04;

  faults->seed(0x1badc4c5u);
  faults->set_corrupt_probability(corrupt_p, "semplar/");
  CorruptRun cr;
  for (int attempt = 0; attempt < 5; ++attempt) {
    cr = run_corrupt(tb, cfg, *faults, "/integrity/flight", total);
    if (cr.corruptions > 0) break;  // injector draw order is thread-timing
  }                                 // dependent; insist a fault actually fired
  faults->set_corrupt_probability(0.0);

  Table corrupt({"corrupt-p", "intact", "injected", "detected",
                 "integrity-retries", "reconnects", "sim-s"});
  corrupt.add_row({Table::num(100.0 * corrupt_p, 1) + "%",
                   cr.intact ? "yes" : "NO", std::to_string(cr.corruptions),
                   std::to_string(cr.stats.corruptions_detected),
                   std::to_string(cr.stats.integrity_retries),
                   std::to_string(cr.stats.reconnects),
                   Table::num(cr.sim_s, 2)});
  emit(opts, "Ablation: in-flight corruption vs. checksum-driven replay",
       corrupt);
  if (!cr.intact || cr.corruptions == 0 || cr.stats.corruptions_detected == 0 ||
      cr.stats.reconnects != 0) {
    std::printf("FAIL: corruption run must end intact, detect at least one "
                "damaged frame, and never reconnect\n");
    ok = false;
  }

  // ---- 3. at-rest rot + admin scrub -------------------------------------
  const ServerSpec srv = sdsc_orion();
  srb::SrbClient admin(tb.fabric(), tb.node_host(0), srv.host, srv.port, {},
                       "integrity-scrub");
  std::vector<std::int32_t> fds;
  Bytes blob(160 * 1024, 'q');
  for (const char* path : {"/integrity/rot-a", "/integrity/rot-b"}) {
    const auto fd = admin.open(path, kSrbRwc);
    admin.pwrite(fd, ByteSpan(blob.data(), blob.size()), 0);
    fds.push_back(fd);
    const auto st = admin.stat(path);
    if (st.has_value())
      tb.server().store().corrupt(st->object_id, 70000);  // checksum block 17
  }
  const srb::SrbClient::ScrubResult dirty = admin.scrub();
  for (const auto fd : fds)  // rewrite [64 K, 128 K), which holds block 17
    admin.pwrite(fd, ByteSpan(blob.data() + 65536, 65536), 65536);
  const srb::SrbClient::ScrubResult healed = admin.scrub();
  for (const auto fd : fds) admin.close(fd);

  Table scrub({"pass", "objects", "blocks", "mismatched", "quarantined",
               "healed"});
  scrub.add_row({"after rot", std::to_string(dirty.objects),
                 std::to_string(dirty.blocks), std::to_string(dirty.mismatched),
                 std::to_string(dirty.quarantined),
                 std::to_string(dirty.healed)});
  scrub.add_row({"after rewrite", std::to_string(healed.objects),
                 std::to_string(healed.blocks),
                 std::to_string(healed.mismatched),
                 std::to_string(healed.quarantined),
                 std::to_string(healed.healed)});
  emit(opts, "Ablation: at-rest rot, quarantine, and scrub-heal", scrub);
  if (dirty.mismatched != 2 || dirty.quarantined != 2 || healed.healed != 2) {
    std::printf("FAIL: expected both rotted objects quarantined then "
                "healed\n");
    ok = false;
  }

  std::printf("expectation: wire CRC costs exactly 4 B/frame each direction "
              "and a small CPU tax on re-reads; in-flight corruption is "
              "detected and replayed without a reconnect; at-rest rot is "
              "quarantined by scrub and healed after a rewrite.\n");
  if (opts.has("json"))
    write_json_file(opts.get("json"),
                    integrity_json(tb.cluster().name, on.rpcs, frames, d_sent,
                                   d_recv, wall_ratio, cr, dirty, healed));
  return ok ? 0 : 1;
}
