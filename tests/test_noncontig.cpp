// Noncontiguous I/O end to end: the list-I/O wire verb (one round-trip for
// many extents, server-side validation that keeps the session), the strategy
// selection in SEMPLAR (list I/O or one hull read), concurrent interleaved
// writers, strided FileViews through the mpiio front end, and a randomized
// property suite that checks every cache x sync/async combination against
// a flat in-memory model.
#include <gtest/gtest.h>

#include <filesystem>
#include <latch>
#include <thread>

#include "chaos.hpp"
#include "common/rng.hpp"
#include "core/semplar.hpp"
#include "mpiio/file.hpp"
#include "mpiio/ufs.hpp"
#include "simnet/faults.hpp"
#include "simnet/timescale.hpp"
#include "srb/server.hpp"

namespace remio::semplar {
namespace {

class NoncontigTest : public ::testing::Test {
 protected:
  NoncontigTest() : scale_(5000.0) {
    simnet::HostSpec server_host;
    server_host.name = "orion";
    fabric_.add_host(server_host);
    simnet::HostSpec node;
    node.name = "node0";
    fabric_.add_host(node);
    server_ = std::make_unique<srb::SrbServer>(fabric_, srb::ServerConfig{});
    server_->start();
    // Chaos lane: REMIO_CHAOS_CORRUPT flips bits on the supervised semplar
    // streams while the whole noncontig matrix runs. base_config() turns on
    // retries in that mode, so every strategy has to earn its correctness
    // under ambient corruption; raw SrbClient checks (tagged by host name,
    // not "semplar/") stay deterministic.
    if (chaos_corrupt_rate() > 0.0) {
      faults_ = std::make_shared<simnet::FaultInjector>();
      faults_->seed(0xc4a05u);
      faults_->set_corrupt_probability(chaos_corrupt_rate(), "semplar/");
      fabric_.set_fault_injector(faults_);
    }
  }

  Config base_config() const {
    Config cfg;
    cfg.client_host = "node0";
    cfg.conn.tcp_window = 0;
    if (faults_ != nullptr) {
      cfg.retry.max_attempts = 8;
      cfg.retry.backoff_base = 0.005;
      cfg.retry.backoff_cap = 0.04;
    }
    return cfg;
  }

  simnet::ScopedTimeScale scale_;
  simnet::Fabric fabric_;
  std::unique_ptr<srb::SrbServer> server_;
  std::shared_ptr<simnet::FaultInjector> faults_;
};

// --- the wire verb itself --------------------------------------------------

TEST_F(NoncontigTest, OneListMessageCarries64Extents) {
  srb::SrbClient client(fabric_, "node0", "orion", 5544);
  const auto fd = client.open("/list/many", srb::kRead | srb::kWrite | srb::kCreate);
  Rng rng(42);
  const Bytes image = rng.bytes(64 * 1024);
  client.pwrite(fd, ByteSpan(image.data(), image.size()), 0);

  // 64 extents of 128 bytes every 1 KiB.
  ExtentList xs;
  for (int i = 0; i < 64; ++i)
    xs.push_back({static_cast<std::uint64_t>(i) * 1024, 128});
  Bytes packed(static_cast<std::size_t>(total_bytes(xs)));

  const std::uint64_t before = client.rpc_count();
  EXPECT_EQ(client.preadv(fd, xs, MutByteSpan(packed.data(), packed.size())),
            packed.size());
  // The whole list travelled in ONE protocol round-trip.
  EXPECT_EQ(client.rpc_count() - before, 1u);

  std::size_t cursor = 0;
  for (const Extent& x : xs) {
    EXPECT_EQ(0, std::memcmp(packed.data() + cursor,
                             image.data() + x.offset,
                             static_cast<std::size_t>(x.len)));
    cursor += static_cast<std::size_t>(x.len);
  }

  // Scatter write: one message too, and the bytes land per extent.
  const Bytes fresh = rng.bytes(packed.size());
  const std::uint64_t wbefore = client.rpc_count();
  EXPECT_EQ(client.pwritev(fd, xs, ByteSpan(fresh.data(), fresh.size())),
            fresh.size());
  EXPECT_EQ(client.rpc_count() - wbefore, 1u);
  Bytes round(image.size());
  client.pread(fd, MutByteSpan(round.data(), round.size()), 0);
  cursor = 0;
  for (const Extent& x : xs) {
    EXPECT_EQ(0, std::memcmp(round.data() + x.offset, fresh.data() + cursor,
                             static_cast<std::size_t>(x.len)));
    cursor += static_cast<std::size_t>(x.len);
  }
  client.close(fd);
}

TEST_F(NoncontigTest, ListReadStopsAtEof) {
  srb::SrbClient client(fabric_, "node0", "orion", 5544);
  const auto fd = client.open("/list/eof", srb::kRead | srb::kWrite | srb::kCreate);
  const Bytes image = Rng(7).bytes(100);
  client.pwrite(fd, ByteSpan(image.data(), image.size()), 0);

  // Second extent straddles EOF, third lies fully beyond it.
  const ExtentList xs{{0, 50}, {80, 40}, {200, 10}};
  Bytes packed(100);
  EXPECT_EQ(client.preadv(fd, xs, MutByteSpan(packed.data(), packed.size())),
            70u);  // 50 + (100 - 80) + 0
  EXPECT_EQ(0, std::memcmp(packed.data(), image.data(), 50));
  EXPECT_EQ(0, std::memcmp(packed.data() + 50, image.data() + 80, 20));
  client.close(fd);
}

TEST_F(NoncontigTest, ServerRejectsMalformedListsButKeepsSession) {
  srb::SrbClient client(fabric_, "node0", "orion", 5544);
  const auto fd = client.open("/list/bad", srb::kRead | srb::kWrite | srb::kCreate);
  const Bytes image = Rng(9).bytes(4096);
  client.pwrite(fd, ByteSpan(image.data(), image.size()), 0);
  Bytes buf(4096);

  const auto expect_invalid = [&](const ExtentList& xs) {
    Bytes packed(static_cast<std::size_t>(total_bytes(xs)));
    try {
      client.preadv(fd, xs, MutByteSpan(packed.data(), packed.size()));
      FAIL() << "malformed list was accepted";
    } catch (const srb::SrbError& e) {
      EXPECT_EQ(e.status(), srb::Status::kInvalid);
    }
    // The same session keeps serving: the rejection was a semantic reply,
    // not a protocol kill.
    EXPECT_EQ(client.pread(fd, MutByteSpan(buf.data(), 16), 0), 16u);
  };

  expect_invalid({{100, 10}, {0, 10}});    // unsorted
  expect_invalid({{0, 100}, {50, 100}});   // overlapping
  expect_invalid({{0, 10}, {20, 0}});      // zero-length extent
  ExtentList too_many;
  for (std::uint32_t i = 0; i <= srb::kMaxListExtents; ++i)
    too_many.push_back({static_cast<std::uint64_t>(i) * 2, 1});
  expect_invalid(too_many);                // count over the cap

  // Total response bytes over kMaxMessage/2.
  ExtentList huge;
  for (int i = 0; i < 3; ++i)
    huge.push_back({static_cast<std::uint64_t>(i) * (40u << 20), 30u << 20});
  expect_invalid(huge);

  // Write flavour: data shorter than the declared extents.
  {
    const ExtentList xs{{0, 10}, {20, 10}};
    const Bytes data = Rng(11).bytes(12);  // needs 20
    try {
      client.pwritev(fd, xs, ByteSpan(data.data(), data.size()));
      FAIL() << "short write payload was accepted";
    } catch (const srb::SrbError& e) {
      EXPECT_EQ(e.status(), srb::Status::kInvalid);
    }
    EXPECT_EQ(client.pread(fd, MutByteSpan(buf.data(), 16), 0), 16u);
  }
  client.close(fd);
}

// --- list I/O vs hull read in SEMPLAR --------------------------------------

TEST_F(NoncontigTest, ListStrategyCutsRoundTripsVsNaive) {
  Rng rng(13);
  const Bytes image = rng.bytes(256 * 1024);
  ExtentList xs;
  for (int i = 0; i < 64; ++i)
    xs.push_back({static_cast<std::uint64_t>(i) * 4096, 512});
  Bytes packed(static_cast<std::size_t>(total_bytes(xs)));

  SemplarFile f(fabric_, base_config(), "/strategy/obj",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate |
                    mpiio::kModeTrunc);
  f.write_at(0, ByteSpan(image.data(), image.size()));
  const auto expect_image = [&] {
    std::size_t cursor = 0;
    for (const Extent& x : xs) {
      EXPECT_EQ(0, std::memcmp(packed.data() + cursor, image.data() + x.offset,
                               static_cast<std::size_t>(x.len)));
      cursor += static_cast<std::size_t>(x.len);
    }
  };

  // Naive: the ADIO base's loop, one plain read_at per extent.
  std::uint64_t before = f.stats().snapshot().wire_ops;
  EXPECT_EQ(f.mpiio::adio::FileHandle::readv(
                xs, MutByteSpan(packed.data(), packed.size())),
            packed.size());
  const std::uint64_t naive = f.stats().snapshot().wire_ops - before;
  expect_image();

  std::fill(packed.begin(), packed.end(), 0);
  before = f.stats().snapshot().wire_ops;
  EXPECT_EQ(f.readv(xs, MutByteSpan(packed.data(), packed.size())),
            packed.size());
  const std::uint64_t list = f.stats().snapshot().wire_ops - before;
  expect_image();

  EXPECT_EQ(naive, 64u);  // one round trip per extent
  EXPECT_EQ(list, 1u);    // one message carries all 64
  EXPECT_GE(naive / list, 5u);
}

TEST_F(NoncontigTest, HullReadOnlyWhileHolesCostAtMostListDescriptors) {
  Config cfg = base_config();
  cfg.obs.enabled = true;  // the kSieve/kListIo spans tell the paths apart
  SemplarFile f(fabric_, cfg, "/select/obj",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate |
                    mpiio::kModeTrunc);
  Bytes image = Rng(17).bytes(16 * 1024);
  f.write_at(0, ByteSpan(image.data(), image.size()));

  const auto spans_of = [&](obs::SpanKind kind) {
    std::size_t n = 0;
    for (const obs::Span& s : f.tracer()->snapshot())
      if (s.kind == kind) ++n;
    return n;
  };
  // 64 extents of 64 B; the first hole is `first_gap` bytes, the rest `gap`.
  const auto pattern = [](std::uint64_t first_gap, std::uint64_t gap) {
    ExtentList xs{{0, 64}};
    std::uint64_t at = 64 + first_gap;
    for (int i = 1; i < 64; ++i, at += 64 + gap) xs.push_back({at, 64});
    return xs;
  };
  const auto read_matches = [&](const ExtentList& xs) {
    Bytes packed(static_cast<std::size_t>(total_bytes(xs)));
    const std::uint64_t before = f.stats().snapshot().wire_ops;
    EXPECT_EQ(f.readv(xs, MutByteSpan(packed.data(), packed.size())),
              packed.size());
    EXPECT_EQ(f.stats().snapshot().wire_ops - before, 1u);
    std::size_t cursor = 0;
    for (const Extent& x : xs) {
      EXPECT_EQ(0, std::memcmp(packed.data() + cursor, image.data() + x.offset,
                               static_cast<std::size_t>(x.len)));
      cursor += static_cast<std::size_t>(x.len);
    }
  };
  constexpr std::uint64_t kPerExtent = srb::kListReadBytesPerExtent;
  static_assert(kPerExtent == 16);

  // Holes totalling exactly 16 B per extent (64 * 16 = 32 + 62 * 16): one
  // hull fetch.
  read_matches(pattern(2 * kPerExtent, kPerExtent));
  EXPECT_EQ(spans_of(obs::SpanKind::kSieve), 1u);
  EXPECT_EQ(spans_of(obs::SpanKind::kListIo), 0u);

  // One byte more: the list verb.
  read_matches(pattern(2 * kPerExtent + 1, kPerExtent));
  EXPECT_EQ(spans_of(obs::SpanKind::kSieve), 1u);
  EXPECT_EQ(spans_of(obs::SpanKind::kListIo), 1u);

  // Holes of 17 B everywhere: the list verb.
  read_matches(pattern(kPerExtent + 1, kPerExtent + 1));
  EXPECT_EQ(spans_of(obs::SpanKind::kSieve), 1u);
  EXPECT_EQ(spans_of(obs::SpanKind::kListIo), 2u);

  // A dense write never takes the hull: one list message, holes untouched.
  const ExtentList dense = pattern(1, 1);
  const Bytes fresh =
      Rng(19).bytes(static_cast<std::size_t>(total_bytes(dense)));
  const std::uint64_t before = f.stats().snapshot().wire_ops;
  EXPECT_EQ(f.writev(dense, ByteSpan(fresh.data(), fresh.size())),
            fresh.size());
  EXPECT_EQ(f.stats().snapshot().wire_ops - before, 1u);
  EXPECT_EQ(spans_of(obs::SpanKind::kSieve), 1u);
  EXPECT_EQ(spans_of(obs::SpanKind::kListIo), 3u);
  std::size_t cursor = 0;
  for (const Extent& x : dense) {
    std::copy_n(fresh.data() + cursor, static_cast<std::size_t>(x.len),
                image.data() + x.offset);
    cursor += static_cast<std::size_t>(x.len);
  }
  Bytes round(image.size());
  EXPECT_EQ(f.read_at(0, MutByteSpan(round.data(), round.size())),
            round.size());
  EXPECT_EQ(round, image);
}

TEST_F(NoncontigTest, DenseReadStraddlingEofMatchesListVerb) {
  // 80 extents of 8 B every 16 B (a hull read); EOF at 996 cuts extent 62
  // to 4 bytes and leaves 63..79 wholly past it.
  const Bytes image = Rng(43).bytes(996);
  ExtentList xs;
  for (int i = 0; i < 80; ++i)
    xs.push_back({static_cast<std::uint64_t>(i) * 16, 8});
  constexpr std::size_t kExpected = 62 * 8 + 4;

  srb::SrbClient client(fabric_, "node0", "orion", 5544);
  const auto fd =
      client.open("/eof/dense", srb::kRead | srb::kWrite | srb::kCreate);
  client.pwrite(fd, ByteSpan(image.data(), image.size()), 0);
  Bytes want(static_cast<std::size_t>(total_bytes(xs)));
  ASSERT_EQ(client.preadv(fd, xs, MutByteSpan(want.data(), want.size())),
            kExpected);
  client.close(fd);

  Config cfg = base_config();
  cfg.obs.enabled = true;
  cfg.streams_per_node = 2;  // the async read splits into two hull reads
  SemplarFile f(fabric_, cfg, "/eof/dense", mpiio::kModeRead);
  for (const bool async : {false, true}) {
    Bytes got(want.size());
    const MutByteSpan out(got.data(), got.size());
    const std::size_t n =
        async ? f.ireadv(xs, out).wait() : f.readv(xs, out);
    EXPECT_EQ(n, kExpected) << (async ? "ireadv" : "readv");
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(), kExpected));
  }
  std::size_t hull_reads = 0;
  for (const obs::Span& s : f.tracer()->snapshot())
    if (s.kind == obs::SpanKind::kSieve) ++hull_reads;
  EXPECT_EQ(hull_reads, 3u);  // 1 sync + 1 per stream
}

TEST_F(NoncontigTest, SparseReadOf4097ExtentsTakesTwoListMessages) {
  const std::uint32_t count = srb::kMaxListExtents + 1;
  const Bytes image = Rng(47).bytes(static_cast<std::size_t>(count) * 64);
  ExtentList xs;
  for (std::uint32_t i = 0; i < count; ++i)
    xs.push_back({static_cast<std::uint64_t>(i) * 64, 8});

  SemplarFile f(fabric_, base_config(), "/list/4097",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate |
                    mpiio::kModeTrunc);
  f.write_at(0, ByteSpan(image.data(), image.size()));
  Bytes packed(static_cast<std::size_t>(total_bytes(xs)));
  const std::uint64_t before = f.stats().snapshot().wire_ops;
  EXPECT_EQ(f.readv(xs, MutByteSpan(packed.data(), packed.size())),
            packed.size());
  EXPECT_EQ(f.stats().snapshot().wire_ops - before, 2u);
  for (std::uint32_t i = 0; i < count; ++i)
    ASSERT_EQ(0, std::memcmp(packed.data() + i * 8, image.data() + i * 64, 8))
        << "extent " << i;
}

// --- concurrent writers ----------------------------------------------------

// Two ranks write interleaved 1 KiB extents of one object at the same time
// (rank r owns extents 2i + r). Each writes only its own extents, so no
// byte of the other rank's may be lost, whatever the interleaving.
TEST_F(NoncontigTest, ConcurrentInterleavedWritevLosesNoByte) {
  constexpr std::size_t kExtent = 1024;
  constexpr int kPerRank = 64;
  constexpr std::size_t kObject = 2 * kPerRank * kExtent;  // 128 KiB
  for (const bool async : {false, true}) {
    const std::string path = async ? "/race/iwritev" : "/race/writev";
    {
      SemplarFile seed(fabric_, base_config(), path,
                       mpiio::kModeWrite | mpiio::kModeCreate |
                           mpiio::kModeTrunc);
      const Bytes zeros(kObject, 0);
      seed.write_at(0, ByteSpan(zeros.data(), zeros.size()));
    }
    std::latch opened(2);
    const auto rank = [&](int r) {
      bool arrived = false;
      try {
        SemplarFile f(fabric_, base_config(), path,
                      mpiio::kModeRead | mpiio::kModeWrite);
        ExtentList xs;
        for (int i = 0; i < kPerRank; ++i)
          xs.push_back(
              {static_cast<std::uint64_t>(2 * i + r) * kExtent, kExtent});
        const Bytes fill(kPerRank * kExtent, static_cast<std::uint8_t>(r + 1));
        const ByteSpan data(fill.data(), fill.size());
        arrived = true;
        opened.arrive_and_wait();
        const std::size_t n =
            async ? f.iwritev(xs, data).wait() : f.writev(xs, data);
        EXPECT_EQ(n, fill.size()) << "rank " << r;
      } catch (const std::exception& e) {
        if (!arrived) opened.count_down();  // never strand the other rank
        ADD_FAILURE() << "rank " << r << ": " << e.what();
      }
    };
    std::thread r0(rank, 0);
    std::thread r1(rank, 1);
    r0.join();
    r1.join();

    SemplarFile check(fabric_, base_config(), path, mpiio::kModeRead);
    Bytes image(kObject);
    ASSERT_EQ(check.read_at(0, MutByteSpan(image.data(), image.size())),
              kObject);
    std::size_t lost = 0;
    for (std::size_t b = 0; b < kObject; ++b)
      if (static_cast<std::size_t>(image[b]) != (b / kExtent) % 2 + 1) ++lost;
    EXPECT_EQ(lost, 0u) << (async ? "iwritev" : "writev") << " lost " << lost
                        << " of " << kObject << " bytes";
  }
}

// --- accounting parity -----------------------------------------------------

TEST_F(NoncontigTest, SingleExtentReadvAccountsExactlyLikeReadAt) {
  Config cfg = base_config();
  cfg.obs.enabled = true;
  SemplarFile f(fabric_, cfg, "/parity/obj",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate |
                    mpiio::kModeTrunc);
  const Bytes image = Rng(31).bytes(32 * 1024);
  f.write_at(0, ByteSpan(image.data(), image.size()));

  struct Delta {
    std::uint64_t sync, reads, wire;
    std::size_t spans_sync_read, spans_sieve, spans_list;
  };
  const auto measure = [&](auto&& op) {
    const StatsSnapshot s0 = f.stats().snapshot();
    const std::size_t spans0 = f.tracer()->snapshot().size();
    op();
    const StatsSnapshot s1 = f.stats().snapshot();
    Delta d{};
    d.sync = s1.sync_calls - s0.sync_calls;
    d.reads = s1.bytes_read - s0.bytes_read;
    d.wire = s1.wire_ops - s0.wire_ops;
    const auto spans = f.tracer()->snapshot();
    for (std::size_t i = spans0; i < spans.size(); ++i) {
      if (spans[i].kind == obs::SpanKind::kSyncRead) ++d.spans_sync_read;
      if (spans[i].kind == obs::SpanKind::kSieve) ++d.spans_sieve;
      if (spans[i].kind == obs::SpanKind::kListIo) ++d.spans_list;
    }
    return d;
  };

  Bytes a(1024), b(1024);
  const Delta plain =
      measure([&] { f.read_at(512, MutByteSpan(a.data(), a.size())); });
  const Delta vec = measure(
      [&] { f.readv({{512, 1024}}, MutByteSpan(b.data(), b.size())); });

  EXPECT_EQ(a, b);
  EXPECT_EQ(plain.sync, vec.sync);
  EXPECT_EQ(plain.reads, vec.reads);
  EXPECT_EQ(plain.wire, vec.wire);
  EXPECT_EQ(plain.spans_sync_read, vec.spans_sync_read);
  EXPECT_EQ(vec.spans_sieve, 0u);   // delegation: no strategy span
  EXPECT_EQ(vec.spans_list, 0u);
}

// --- randomized property: list shapes x cache vs a flat model --------------

// The driver has no strategy setting: it picks the hull or the list verb per
// request from the holes in the list. So each case steers it by the shape of
// its hand-built lists, and kNaive issues them through the ADIO base class's
// per-extent loop, the lowering list I/O replaces.
enum class Shape { kAuto = 0, kNaive = 1, kSieve = 2, kList = 3 };

struct NoncontigCase {
  Shape shape;
  bool cached;
  bool async;
};

std::string noncontig_case_name(
    const ::testing::TestParamInfo<NoncontigCase>& info) {
  const char* m = "auto";
  switch (info.param.shape) {
    case Shape::kNaive: m = "naive"; break;
    case Shape::kSieve: m = "sieve"; break;
    case Shape::kList: m = "list"; break;
    case Shape::kAuto: m = "auto"; break;
  }
  return std::string(m) + (info.param.cached ? "_cached" : "_uncached") +
         (info.param.async ? "_async" : "_sync");
}

class NoncontigProperty : public NoncontigTest,
                          public ::testing::WithParamInterface<NoncontigCase> {};

TEST_P(NoncontigProperty, StridedViewMatchesFlatModel) {
  const NoncontigCase c = GetParam();
  Config cfg = base_config();
  cfg.obs.enabled = true;  // the kSieve/kListIo spans show which path ran
  if (c.cached) {
    cfg.cache_bytes = 256 * 1024;
    cfg.cache_block_bytes = 16 * 1024;  // small blocks: exercise eviction
  }
  cfg.streams_per_node = 2;
  cfg.io_threads = 2;
  SrbfsDriver driver(fabric_, cfg);
  mpiio::File f(driver, "/prop/view",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate |
                    mpiio::kModeTrunc);

  Rng rng(static_cast<std::uint64_t>(c.shape) * 1000 + c.cached * 10 + c.async);
  Bytes model = rng.bytes(48 * 1024);
  f.write_at(0, ByteSpan(model.data(), model.size()));

  // Strided view: 64 visible bytes per 256-byte frame after a 128-byte
  // header; every mapped extent stays inside the 48 KiB image.
  const mpiio::FileView view{/*displacement=*/128, /*etype_bytes=*/16,
                             /*count=*/4, /*stride=*/256};
  f.set_view(view);

  const auto apply_model = [&](const ExtentList& xs, const Bytes& packed) {
    std::size_t cursor = 0;
    for (const Extent& x : xs) {
      std::copy_n(packed.data() + cursor, static_cast<std::size_t>(x.len),
                  model.data() + x.offset);
      cursor += static_cast<std::size_t>(x.len);
    }
  };
  const auto expect_model = [&](const ExtentList& xs, const Bytes& packed) {
    std::size_t cursor = 0;
    for (const Extent& x : xs) {
      ASSERT_EQ(0, std::memcmp(packed.data() + cursor, model.data() + x.offset,
                               static_cast<std::size_t>(x.len)));
      cursor += static_cast<std::size_t>(x.len);
    }
  };

  for (int it = 0; it < 24; ++it) {
    // View-relative range; bound so the last frame ends inside the image.
    const std::uint64_t vo = rng.below(6 * 1024);
    const std::uint64_t len = 1 + rng.below(2 * 1024);
    const ExtentList mapped = view.map(vo, len);
    Bytes buf(static_cast<std::size_t>(len));
    if (rng.chance(0.5)) {
      const Bytes data = rng.bytes(buf.size());
      if (c.async) {
        mpiio::IoRequest r =
            f.iwrite_at(vo, ByteSpan(data.data(), data.size()));
        ASSERT_EQ(r.wait(), data.size());
      } else {
        ASSERT_EQ(f.write_at(vo, ByteSpan(data.data(), data.size())),
                  data.size());
      }
      apply_model(mapped, data);
    } else {
      if (c.async) {
        mpiio::IoRequest r = f.iread_at(vo, MutByteSpan(buf.data(), buf.size()));
        ASSERT_EQ(r.wait(), buf.size());
      } else {
        ASSERT_EQ(f.read_at(vo, MutByteSpan(buf.data(), buf.size())),
                  buf.size());
      }
      expect_model(mapped, buf);
    }
  }

  const auto strategy_spans = [&](obs::SpanKind kind) {
    std::size_t n = 0;
    for (const obs::Span& s : f.handle().tracer()->snapshot())
      if (s.kind == kind) ++n;
    return n;
  };
  const std::size_t hull_before = strategy_spans(obs::SpanKind::kSieve);
  const std::size_t list_before = strategy_spans(obs::SpanKind::kListIo);

  // Direct vectored calls against hand-built lists (identity view). Writes
  // and reads alternate. A dense list has holes of 1-16 B, at most the 16 B
  // a list read spends per extent, so reading it takes the hull; a sparse
  // one has holes of 33 B or more, so even two extents take the list verb.
  // kAuto and kNaive alternate dense and sparse pairs.
  constexpr std::uint64_t kPerExtent = srb::kListReadBytesPerExtent;
  using AdioHandle = mpiio::adio::FileHandle;
  std::size_t hull_reads = 0, list_transfers = 0;
  f.set_view(mpiio::FileView{});
  for (int it = 0; it < 12; ++it) {
    const bool dense = c.shape == Shape::kSieve ||
                       ((c.shape == Shape::kAuto || c.shape == Shape::kNaive) &&
                        it % 4 < 2);
    ExtentList xs;
    std::uint64_t cursor = rng.below(1024);
    const int n = static_cast<int>(2 + rng.below(23));
    for (int i = 0; i < n && cursor + 512 < model.size(); ++i) {
      const std::uint64_t len = 1 + rng.below(300);
      xs.push_back({cursor, len});
      cursor += len + (dense ? 1 + rng.below(kPerExtent)
                             : 2 * kPerExtent + 1 + rng.below(700));
    }
    if (xs.size() < 2 || xs.back().end() > model.size()) continue;
    Bytes packed(static_cast<std::size_t>(total_bytes(xs)));
    if (it % 2 == 0) {
      const Bytes data = rng.bytes(packed.size());
      const ByteSpan in(data.data(), data.size());
      if (c.shape == Shape::kNaive) {
        ASSERT_EQ(f.handle().AdioHandle::writev(xs, in), data.size());
      } else if (c.async) {
        mpiio::IoRequest r = f.iwritev(xs, in);
        ASSERT_EQ(r.wait(), data.size());
      } else {
        ASSERT_EQ(f.writev(xs, in), data.size());
      }
      ++list_transfers;
      apply_model(xs, data);
    } else {
      const MutByteSpan out(packed.data(), packed.size());
      if (c.shape == Shape::kNaive) {
        ASSERT_EQ(f.handle().AdioHandle::readv(xs, out), packed.size());
      } else if (c.async) {
        mpiio::IoRequest r = f.ireadv(xs, out);
        ASSERT_EQ(r.wait(), packed.size());
      } else {
        ASSERT_EQ(f.readv(xs, out), packed.size());
      }
      ++(dense ? hull_reads : list_transfers);
      expect_model(xs, packed);
    }
  }

  // Final full read-back equals the model byte for byte.
  f.flush();
  Bytes final_image(model.size());
  ASSERT_EQ(f.read_at(0, MutByteSpan(final_image.data(), final_image.size())),
            final_image.size());
  EXPECT_EQ(final_image, model);

  // The cache bypasses both wire paths. Without it, every vectored call took
  // the path its shape picks: one span per sync call, one per stream subset
  // for an async one, and none at all for the per-extent loop.
  if (!c.cached) {
    const std::size_t hull = strategy_spans(obs::SpanKind::kSieve) - hull_before;
    const std::size_t list = strategy_spans(obs::SpanKind::kListIo) - list_before;
    if (c.shape == Shape::kNaive) {
      EXPECT_EQ(hull, 0u);
      EXPECT_EQ(list, 0u);
    } else if (c.async) {
      EXPECT_GE(hull, hull_reads);
      EXPECT_GE(list, list_transfers);
    } else {
      EXPECT_EQ(hull, hull_reads);
      EXPECT_EQ(list, list_transfers);
    }
    if (c.shape == Shape::kSieve || c.shape == Shape::kAuto) {
      EXPECT_GE(hull, 1u);
    }
    if (c.shape == Shape::kList || c.shape == Shape::kAuto) {
      EXPECT_GE(list, 1u);
    }
    if (c.shape == Shape::kList) {
      EXPECT_EQ(hull, 0u);
    }
  }
  f.close();
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndCache, NoncontigProperty,
    ::testing::Values(NoncontigCase{Shape::kNaive, false, false},
                      NoncontigCase{Shape::kSieve, false, false},
                      NoncontigCase{Shape::kList, false, false},
                      NoncontigCase{Shape::kAuto, false, true},
                      NoncontigCase{Shape::kNaive, true, false},
                      NoncontigCase{Shape::kSieve, true, true},
                      NoncontigCase{Shape::kList, true, false},
                      NoncontigCase{Shape::kAuto, true, true}),
    noncontig_case_name);

// --- the portable layer: validation, views, default async verbs -----------

class NoncontigUfsTest : public ::testing::Test {
 protected:
  NoncontigUfsTest() {
    root_ = std::filesystem::temp_directory_path() /
            ("remio_noncontig_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    driver_ = std::make_unique<mpiio::UfsDriver>(root_.string());
  }
  ~NoncontigUfsTest() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  static int counter_;
  std::filesystem::path root_;
  std::unique_ptr<mpiio::UfsDriver> driver_;
};

int NoncontigUfsTest::counter_ = 0;

TEST_F(NoncontigUfsTest, ValidatesListAndBufferSize) {
  mpiio::File f(*driver_, "/v", mpiio::kModeRead | mpiio::kModeWrite |
                                    mpiio::kModeCreate);
  Bytes buf(20);
  // Unsorted, overlapping, and empty-extent lists are rejected.
  EXPECT_THROW(f.readv({{10, 10}, {0, 10}}, MutByteSpan(buf.data(), 20)),
               mpiio::IoError);
  EXPECT_THROW(f.writev({{0, 15}, {10, 5}}, ByteSpan(buf.data(), 20)),
               mpiio::IoError);
  EXPECT_THROW(f.readv({{0, 0}}, MutByteSpan(buf.data(), 0)), mpiio::IoError);
  // Packed-buffer size must match total_bytes exactly.
  EXPECT_THROW(f.readv({{0, 10}}, MutByteSpan(buf.data(), 20)), mpiio::IoError);
  EXPECT_THROW(f.writev({{0, 10}, {20, 10}}, ByteSpan(buf.data(), 10)),
               mpiio::IoError);
  // Empty list is a no-op, not an error.
  EXPECT_EQ(f.readv({}, MutByteSpan(buf.data(), 0)), 0u);
  EXPECT_EQ(f.writev({}, ByteSpan(buf.data(), 0)), 0u);
  mpiio::IoRequest r = f.ireadv({}, MutByteSpan(buf.data(), 0));
  EXPECT_EQ(r.wait(), 0u);
  f.close();
}

TEST_F(NoncontigUfsTest, DefaultAsyncRunsVectoredVerbs) {
  mpiio::File f(*driver_, "/fb", mpiio::kModeRead | mpiio::kModeWrite |
                                     mpiio::kModeCreate);
  const Bytes image = Rng(37).bytes(4096);
  f.write_at(0, ByteSpan(image.data(), image.size()));

  const ExtentList xs{{16, 100}, {512, 200}, {2000, 50}};
  Bytes packed(350);
  mpiio::IoRequest r = f.ireadv(xs, MutByteSpan(packed.data(), packed.size()));
  EXPECT_EQ(r.wait(), 350u);
  std::size_t cursor = 0;
  for (const Extent& x : xs) {
    EXPECT_EQ(0, std::memcmp(packed.data() + cursor, image.data() + x.offset,
                             static_cast<std::size_t>(x.len)));
    cursor += static_cast<std::size_t>(x.len);
  }

  const Bytes fresh = Rng(41).bytes(350);
  mpiio::IoRequest w = f.iwritev(xs, ByteSpan(fresh.data(), fresh.size()));
  EXPECT_EQ(w.wait(), 350u);
  Bytes round(200);
  f.read_at(512, MutByteSpan(round.data(), 200));
  EXPECT_EQ(0, std::memcmp(round.data(), fresh.data() + 100, 200));
  f.close();
}

TEST_F(NoncontigUfsTest, ViewSemanticsOnFilePointerAndSeek) {
  mpiio::File f(*driver_, "/view", mpiio::kModeRead | mpiio::kModeWrite |
                                       mpiio::kModeCreate);
  Bytes image(1024, '\0');
  f.write_at(0, ByteSpan(image.data(), image.size()));

  const mpiio::FileView v{/*displacement=*/64, /*etype_bytes=*/8,
                          /*count=*/2, /*stride=*/64};
  f.set_view(v);
  EXPECT_EQ(f.seek(0, SEEK_CUR), 0u);  // set_view resets the file pointer

  // Two file-pointer writes land in consecutive view bytes = frames 0..1.
  const Bytes a = to_bytes("0123456789abcdef");  // one full frame
  const Bytes b = to_bytes("FEDCBA");
  f.write(ByteSpan(a.data(), a.size()));
  f.write(ByteSpan(b.data(), b.size()));
  EXPECT_EQ(f.seek(0, SEEK_CUR), 22u);

  Bytes raw(256);
  f.set_view(mpiio::FileView{});
  f.read_at(0, MutByteSpan(raw.data(), raw.size()));
  EXPECT_EQ(0, std::memcmp(raw.data() + 64, a.data(), 16));   // frame 0
  EXPECT_EQ(0, std::memcmp(raw.data() + 128, b.data(), 6));   // frame 1

  // SEEK_END is ill-defined under a strided view.
  f.set_view(v);
  EXPECT_THROW(f.seek(0, SEEK_END), mpiio::IoError);
  f.close();
}

TEST_F(NoncontigUfsTest, RejectsDegenerateView) {
  mpiio::File f(*driver_, "/badview", mpiio::kModeRead | mpiio::kModeWrite |
                                          mpiio::kModeCreate);
  mpiio::FileView bad{/*displacement=*/0, /*etype_bytes=*/4, /*count=*/4,
                      /*stride=*/8};  // stride < block
  EXPECT_THROW(f.set_view(bad), mpiio::IoError);
  f.close();
}

}  // namespace
}  // namespace remio::semplar
