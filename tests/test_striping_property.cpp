// Property suite: however a transfer is decomposed — any stream count,
// stripe size (explicit or auto), I/O-thread count, sync or async, single
// or double open — the bytes that land in the remote object are identical
// to a reference single-stream synchronous write, and reads recover them
// exactly. Verified by content hash against the broker's stored object.
// A second group pins what auto striping costs on the wire: RPCs per
// request, per stream, on either side of the one-window limit.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/semplar.hpp"
#include "simnet/timescale.hpp"
#include "srb/server.hpp"

namespace remio::semplar {
namespace {

struct StripingCase {
  int streams;
  int io_threads;
  std::size_t stripe;  // 0 = auto
  bool async;
  std::size_t size;
};

std::string case_name(const ::testing::TestParamInfo<StripingCase>& info) {
  const auto& c = info.param;
  return "s" + std::to_string(c.streams) + "_t" + std::to_string(c.io_threads) +
         "_stripe" + std::to_string(c.stripe) + (c.async ? "_async" : "_sync") +
         "_n" + std::to_string(c.size);
}

/// One client node and a broker on an unshaped fabric.
struct World {
  World() : scale(5000.0) {
    simnet::HostSpec server_host;
    server_host.name = "orion";
    fabric.add_host(server_host);
    simnet::HostSpec node;
    node.name = "node0";
    fabric.add_host(node);
    server = std::make_unique<srb::SrbServer>(fabric, srb::ServerConfig{});
    server->start();
  }

  simnet::ScopedTimeScale scale;
  simnet::Fabric fabric;
  std::unique_ptr<srb::SrbServer> server;
};

class StripingProperty : public ::testing::TestWithParam<StripingCase> {
 protected:
  std::uint64_t object_hash(const std::string& path) {
    srb::SrbClient client(fabric_, "node0", "orion", 5544);
    const auto st = client.stat(path);
    if (!st) return 0;
    Bytes raw(st->size);
    const auto fd = client.open(path, srb::kRead);
    EXPECT_EQ(client.pread(fd, MutByteSpan(raw.data(), raw.size()), 0), raw.size());
    client.close(fd);
    return fnv1a(ByteSpan(raw.data(), raw.size()));
  }

  World world_;
  simnet::Fabric& fabric_ = world_.fabric;
};

TEST_P(StripingProperty, AnyDecompositionSameObject) {
  const StripingCase c = GetParam();
  Rng rng(c.size * 7 + static_cast<std::uint64_t>(c.streams));
  const Bytes data = rng.bytes(c.size);

  // Reference: single-stream synchronous write.
  Config ref_cfg;
  ref_cfg.client_host = "node0";
  ref_cfg.conn.tcp_window = 0;
  {
    SemplarFile ref(fabric_, ref_cfg, "/prop/ref",
                    mpiio::kModeWrite | mpiio::kModeCreate | mpiio::kModeTrunc);
    ref.write_at(0, ByteSpan(data.data(), data.size()));
  }

  // Candidate decomposition.
  Config cfg = ref_cfg;
  cfg.streams_per_node = c.streams;
  cfg.io_threads = c.io_threads;
  cfg.stripe_size = c.stripe;
  {
    SemplarFile f(fabric_, cfg, "/prop/cand",
                  mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate |
                      mpiio::kModeTrunc);
    if (c.async) {
      mpiio::IoRequest req = f.iwrite_at(0, ByteSpan(data.data(), data.size()));
      ASSERT_EQ(req.wait(), data.size());
    } else {
      ASSERT_EQ(f.write_at(0, ByteSpan(data.data(), data.size())), data.size());
    }
    // Read back through the same decomposition too.
    Bytes round(c.size);
    if (!round.empty()) {
      mpiio::IoRequest r = f.iread_at(0, MutByteSpan(round.data(), round.size()));
      ASSERT_EQ(r.wait(), data.size());
      EXPECT_EQ(round, data);
    }
  }

  EXPECT_EQ(object_hash("/prop/cand"), object_hash("/prop/ref"));
}

INSTANTIATE_TEST_SUITE_P(
    Decompositions, StripingProperty,
    ::testing::Values(
        StripingCase{1, 1, 0, true, 1},
        StripingCase{2, 2, 0, true, 100 * 1024 + 1},
        StripingCase{2, 2, 64 * 1024, true, 100 * 1024 + 1},
        StripingCase{2, 1, 32 * 1024, true, 300 * 1024},
        StripingCase{3, 3, 0, true, 257 * 1024},
        StripingCase{3, 2, 48 * 1024, true, 500 * 1024 + 13},
        StripingCase{4, 4, 0, true, 1 << 20},
        StripingCase{4, 4, 16 * 1024, true, 200 * 1024},
        StripingCase{2, 2, 0, false, 128 * 1024},
        StripingCase{1, 1, 8 * 1024, true, 64 * 1024},
        StripingCase{4, 2, 0, true, 3},
        StripingCase{2, 2, 0, true, 0},
        // Either side of auto striping's one-window limit T (64 KiB on this
        // unshaped fabric): T - 1 goes whole to one stream, T splits.
        StripingCase{2, 2, 0, true, 64 * 1024 - 1},
        StripingCase{2, 2, 0, true, 64 * 1024},
        StripingCase{3, 3, 0, true, 64 * 1024 - 1},
        StripingCase{3, 3, 0, true, 64 * 1024},
        StripingCase{4, 4, 0, true, 64 * 1024 - 1},
        StripingCase{4, 4, 0, true, 64 * 1024}),
    case_name);

// --- what auto striping costs on the wire ----------------------------------

class AutoStripingRpcs : public ::testing::Test {
 protected:
  /// A two-stream auto-striped file on the unshaped fabric.
  std::unique_ptr<SemplarFile> open_file(std::size_t tcp_window = 0) {
    Config cfg;
    cfg.client_host = "node0";
    cfg.conn.tcp_window = tcp_window;
    cfg.streams_per_node = 2;
    cfg.io_threads = 2;
    return std::make_unique<SemplarFile>(
        world_.fabric, cfg, "/rpcs/obj",
        mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate |
            mpiio::kModeTrunc);
  }

  /// RPCs each stream of `f` has sent so far.
  static std::vector<std::uint64_t> rpcs(SemplarFile& f) {
    std::vector<std::uint64_t> out;
    for (int i = 0; i < f.streams().count(); ++i)
      out.push_back(f.streams().client(i).rpc_count());
    return out;
  }

  /// Per-stream RPCs one iwrite_at and one iread_at of `n` bytes cost.
  static std::vector<std::uint64_t> rpcs_per_request(SemplarFile& f,
                                                     std::size_t n) {
    Rng rng(n);
    const Bytes data = rng.bytes(n);
    const auto before = rpcs(f);
    EXPECT_EQ(f.iwrite_at(0, ByteSpan(data.data(), data.size())).wait(), n);
    Bytes back(n);
    EXPECT_EQ(f.iread_at(0, MutByteSpan(back.data(), back.size())).wait(), n);
    EXPECT_EQ(back, data);
    const auto after = rpcs(f);
    std::vector<std::uint64_t> delta;
    for (std::size_t i = 0; i < after.size(); ++i)
      delta.push_back(after[i] - before[i]);
    return delta;
  }

  World world_;
};

TEST_F(AutoStripingRpcs, SmallRequestsRotateOneRpcEach) {
  // A 4 KiB request fits one window: it goes whole, as one RPC, to the
  // next stream in turn, so eight requests cost eight RPCs, four a stream.
  auto f = open_file();
  constexpr std::size_t kLen = 4 * 1024;
  Rng rng(4);
  const Bytes data = rng.bytes(8 * kLen);
  for (const bool write : {true, false}) {
    Bytes back(data.size());
    const auto before = rpcs(*f);
    const std::uint64_t ops0 = f->stats().snapshot().wire_ops;
    for (std::size_t i = 0; i < 8; ++i) {
      const std::uint64_t off = i * kLen;
      mpiio::IoRequest r =
          write ? f->iwrite_at(off, ByteSpan(data.data() + off, kLen))
                : f->iread_at(off, MutByteSpan(back.data() + off, kLen));
      ASSERT_EQ(r.wait(), kLen);
    }
    const auto after = rpcs(*f);
    EXPECT_EQ(after[0] - before[0], 4u) << (write ? "writes" : "reads");
    EXPECT_EQ(after[1] - before[1], 4u) << (write ? "writes" : "reads");
    EXPECT_EQ(f->stats().snapshot().wire_ops - ops0, 8u);
    if (!write) {
      EXPECT_EQ(back, data);
    }
  }
}

TEST_F(AutoStripingRpcs, WindowSizedRequestSplitsOneRpcPerStream) {
  auto f = open_file();
  EXPECT_EQ(rpcs_per_request(*f, 64 * 1024),
            (std::vector<std::uint64_t>{2, 2}));
}

TEST_F(AutoStripingRpcs, TcpWindowSetsTheLimit) {
  // A 24 KiB window (TG/OSC) lowers the limit below 64 KiB: 32 KiB spans
  // more than one window and splits; 16 KiB fits one and goes whole, the
  // write to one stream and the read to the next.
  auto f = open_file(24 * 1024);
  const auto split = rpcs_per_request(*f, 32 * 1024);
  EXPECT_EQ(split, (std::vector<std::uint64_t>{2, 2}));
  EXPECT_EQ(rpcs_per_request(*f, 16 * 1024),
            (std::vector<std::uint64_t>{1, 1}));
}

// Double-open decomposition (the paper's §7.2 trick) writes the same
// object content as one handle with two streams.
TEST(StripingDoubleOpen, MatchesLibraryStriping) {
  World world;
  simnet::Fabric& fabric = world.fabric;

  Rng rng(77);
  const Bytes data = rng.bytes(400 * 1024);
  const std::size_t half = data.size() / 2;

  Config cfg;
  cfg.client_host = "node0";
  cfg.conn.tcp_window = 0;

  // Library-level striping.
  Config lib_cfg = cfg;
  lib_cfg.streams_per_node = 2;
  lib_cfg.io_threads = 2;
  {
    SemplarFile f(fabric, lib_cfg, "/dbl/lib",
                  mpiio::kModeWrite | mpiio::kModeCreate | mpiio::kModeTrunc);
    f.iwrite_at(0, ByteSpan(data.data(), data.size())).wait();
  }

  // Application-level double open (two handles, one connection each).
  {
    SemplarFile f1(fabric, cfg, "/dbl/app",
                   mpiio::kModeWrite | mpiio::kModeCreate | mpiio::kModeTrunc);
    SemplarFile f2(fabric, cfg, "/dbl/app", mpiio::kModeWrite);
    mpiio::IoRequest r1 = f1.iwrite_at(0, ByteSpan(data.data(), half));
    mpiio::IoRequest r2 = f2.iwrite_at(half, ByteSpan(data.data() + half,
                                                      data.size() - half));
    r1.wait();
    r2.wait();
  }

  srb::SrbClient client(fabric, "node0", "orion", 5544);
  auto hash_of = [&](const std::string& path) {
    const auto st = client.stat(path);
    Bytes raw(st->size);
    const auto fd = client.open(path, srb::kRead);
    client.pread(fd, MutByteSpan(raw.data(), raw.size()), 0);
    client.close(fd);
    return fnv1a(ByteSpan(raw.data(), raw.size()));
  };
  EXPECT_EQ(hash_of("/dbl/lib"), hash_of("/dbl/app"));
}

}  // namespace
}  // namespace remio::semplar
