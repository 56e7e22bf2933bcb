// Noncontiguous I/O end to end: the list-I/O wire verb (one round-trip for
// many extents, server-side validation that keeps the session), the strategy
// selection in SEMPLAR (naive / data sieving / list I/O), strided FileViews
// through the mpiio front end, and a randomized property suite that checks
// every strategy x cache combination against a flat in-memory model.
#include <gtest/gtest.h>

#include <filesystem>

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

// --- strategy selection in SEMPLAR -----------------------------------------

TEST_F(NoncontigTest, ListStrategyCutsRoundTripsVsNaive) {
  Rng rng(13);
  const Bytes image = rng.bytes(256 * 1024);
  ExtentList xs;
  for (int i = 0; i < 64; ++i)
    xs.push_back({static_cast<std::uint64_t>(i) * 4096, 512});
  Bytes packed(static_cast<std::size_t>(total_bytes(xs)));

  const auto wire_ops_for = [&](Config::Sieve::Mode mode) {
    Config cfg = base_config();
    cfg.sieve.enabled = true;
    cfg.sieve.mode = mode;
    SemplarFile f(fabric_, cfg, "/strategy/obj",
                  mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate |
                      mpiio::kModeTrunc);
    f.write_at(0, ByteSpan(image.data(), image.size()));
    const std::uint64_t before = f.stats().snapshot().wire_ops;
    EXPECT_EQ(f.readv(xs, MutByteSpan(packed.data(), packed.size())),
              packed.size());
    std::size_t cursor = 0;
    for (const Extent& x : xs) {
      EXPECT_EQ(0, std::memcmp(packed.data() + cursor, image.data() + x.offset,
                               static_cast<std::size_t>(x.len)));
      cursor += static_cast<std::size_t>(x.len);
    }
    return f.stats().snapshot().wire_ops - before;
  };

  const std::uint64_t naive = wire_ops_for(Config::Sieve::Mode::kNaive);
  const std::uint64_t list = wire_ops_for(Config::Sieve::Mode::kList);
  const std::uint64_t sieve = wire_ops_for(Config::Sieve::Mode::kSieve);
  EXPECT_EQ(naive, 64u);  // one round trip per extent
  EXPECT_EQ(list, 1u);    // one message carries all 64
  EXPECT_EQ(sieve, 1u);   // a sieved read is one hull fetch
  EXPECT_GE(naive / list, 5u);
}

TEST_F(NoncontigTest, AutoModePicksSieveForDenseAndListForSparse) {
  Config cfg = base_config();
  cfg.sieve.enabled = true;  // mode defaults to kAuto
  cfg.sieve.max_hull_bytes = 64 * 1024;
  cfg.obs.enabled = true;  // the strategy spans tell the two paths apart
  SemplarFile f(fabric_, cfg, "/auto/obj",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate |
                    mpiio::kModeTrunc);
  const Bytes image = Rng(17).bytes(1 << 20);
  f.write_at(0, ByteSpan(image.data(), image.size()));

  const auto spans_of = [&](obs::SpanKind kind) {
    std::size_t n = 0;
    for (const obs::Span& s : f.tracer()->snapshot())
      if (s.kind == kind) ++n;
    return n;
  };

  // Dense: 16 extents inside a 16 KiB hull -> sieving -> 1 hull read.
  ExtentList dense;
  for (int i = 0; i < 16; ++i)
    dense.push_back({static_cast<std::uint64_t>(i) * 1024, 256});
  Bytes dbuf(static_cast<std::size_t>(total_bytes(dense)));
  std::uint64_t before = f.stats().snapshot().wire_ops;
  f.readv(dense, MutByteSpan(dbuf.data(), dbuf.size()));
  EXPECT_EQ(f.stats().snapshot().wire_ops - before, 1u);
  EXPECT_EQ(spans_of(obs::SpanKind::kSieve), 1u);
  EXPECT_EQ(spans_of(obs::SpanKind::kListIo), 0u);

  // Sparse: extents spread over ~1 MiB > max_hull_bytes -> list I/O.
  ExtentList sparse;
  for (int i = 0; i < 16; ++i)
    sparse.push_back({static_cast<std::uint64_t>(i) * 65536, 256});
  Bytes sbuf(static_cast<std::size_t>(total_bytes(sparse)));
  before = f.stats().snapshot().wire_ops;
  f.readv(sparse, MutByteSpan(sbuf.data(), sbuf.size()));
  EXPECT_EQ(f.stats().snapshot().wire_ops - before, 1u);  // one list message
  EXPECT_EQ(spans_of(obs::SpanKind::kListIo), 1u);
  EXPECT_EQ(spans_of(obs::SpanKind::kSieve), 1u);  // unchanged

  std::size_t cursor = 0;
  for (const Extent& x : sparse) {
    EXPECT_EQ(0, std::memcmp(sbuf.data() + cursor, image.data() + x.offset,
                             static_cast<std::size_t>(x.len)));
    cursor += static_cast<std::size_t>(x.len);
  }
}

TEST_F(NoncontigTest, SieveWritePreservesHoleBytes) {
  Config cfg = base_config();
  cfg.sieve.enabled = true;
  cfg.sieve.mode = Config::Sieve::Mode::kSieve;
  SemplarFile f(fabric_, cfg, "/sieve/rmw",
                mpiio::kModeRead | mpiio::kModeWrite | mpiio::kModeCreate |
                    mpiio::kModeTrunc);
  Bytes image = Rng(23).bytes(8192);
  f.write_at(0, ByteSpan(image.data(), image.size()));

  const ExtentList xs{{100, 50}, {1000, 50}, {4000, 50}};
  const Bytes fresh = Rng(29).bytes(150);
  EXPECT_EQ(f.writev(xs, ByteSpan(fresh.data(), fresh.size())), 150u);

  // Model: only the extents change; the hull's holes keep the pre-image.
  std::size_t cursor = 0;
  for (const Extent& x : xs) {
    std::copy_n(fresh.data() + cursor, static_cast<std::size_t>(x.len),
                image.data() + x.offset);
    cursor += static_cast<std::size_t>(x.len);
  }
  Bytes round(image.size());
  EXPECT_EQ(f.read_at(0, MutByteSpan(round.data(), round.size())),
            round.size());
  EXPECT_EQ(round, image);
}

// --- accounting parity -----------------------------------------------------

TEST_F(NoncontigTest, SingleExtentReadvAccountsExactlyLikeReadAt) {
  Config cfg = base_config();
  cfg.obs.enabled = true;
  cfg.sieve.enabled = true;  // must not matter for a 1-extent list
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

// --- randomized property: strategies x cache vs a flat model ---------------

struct NoncontigCase {
  Config::Sieve::Mode mode;
  bool cached;
  bool async;
};

std::string noncontig_case_name(
    const ::testing::TestParamInfo<NoncontigCase>& info) {
  const char* m = "auto";
  switch (info.param.mode) {
    case Config::Sieve::Mode::kNaive: m = "naive"; break;
    case Config::Sieve::Mode::kSieve: m = "sieve"; break;
    case Config::Sieve::Mode::kList: m = "list"; break;
    case Config::Sieve::Mode::kAuto: m = "auto"; break;
  }
  return std::string(m) + (info.param.cached ? "_cached" : "_uncached") +
         (info.param.async ? "_async" : "_sync");
}

class NoncontigProperty : public NoncontigTest,
                          public ::testing::WithParamInterface<NoncontigCase> {};

TEST_P(NoncontigProperty, StridedViewMatchesFlatModel) {
  const NoncontigCase c = GetParam();
  Config cfg = base_config();
  cfg.sieve.enabled = true;
  cfg.sieve.mode = c.mode;
  cfg.sieve.max_hull_bytes = 16 * 1024;  // auto mode exercises both paths
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

  Rng rng(static_cast<std::uint64_t>(c.mode) * 1000 + c.cached * 10 + c.async);
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

  // Direct vectored calls against hand-built lists (identity view).
  f.set_view(mpiio::FileView{});
  for (int it = 0; it < 12; ++it) {
    ExtentList xs;
    std::uint64_t cursor = rng.below(1024);
    const int n = static_cast<int>(1 + rng.below(24));
    for (int i = 0; i < n && cursor + 512 < model.size(); ++i) {
      const std::uint64_t len = 1 + rng.below(300);
      xs.push_back({cursor, len});
      cursor += len + 1 + rng.below(700);
    }
    if (xs.empty() || xs.back().end() > model.size()) continue;
    Bytes packed(static_cast<std::size_t>(total_bytes(xs)));
    if (rng.chance(0.5)) {
      const Bytes data = rng.bytes(packed.size());
      if (c.async) {
        mpiio::IoRequest r = f.iwritev(xs, ByteSpan(data.data(), data.size()));
        ASSERT_EQ(r.wait(), data.size());
      } else {
        ASSERT_EQ(f.writev(xs, ByteSpan(data.data(), data.size())),
                  data.size());
      }
      apply_model(xs, data);
    } else {
      if (c.async) {
        mpiio::IoRequest r = f.ireadv(xs, MutByteSpan(packed.data(), packed.size()));
        ASSERT_EQ(r.wait(), packed.size());
      } else {
        ASSERT_EQ(f.readv(xs, MutByteSpan(packed.data(), packed.size())),
                  packed.size());
      }
      expect_model(xs, packed);
    }
  }

  // Final full read-back equals the model byte for byte.
  f.flush();
  Bytes final_image(model.size());
  ASSERT_EQ(f.read_at(0, MutByteSpan(final_image.data(), final_image.size())),
            final_image.size());
  EXPECT_EQ(final_image, model);
  f.close();
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndCache, NoncontigProperty,
    ::testing::Values(
        NoncontigCase{Config::Sieve::Mode::kNaive, false, false},
        NoncontigCase{Config::Sieve::Mode::kSieve, false, false},
        NoncontigCase{Config::Sieve::Mode::kList, false, false},
        NoncontigCase{Config::Sieve::Mode::kAuto, false, true},
        NoncontigCase{Config::Sieve::Mode::kNaive, true, false},
        NoncontigCase{Config::Sieve::Mode::kSieve, true, true},
        NoncontigCase{Config::Sieve::Mode::kList, true, false},
        NoncontigCase{Config::Sieve::Mode::kAuto, true, true}),
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
