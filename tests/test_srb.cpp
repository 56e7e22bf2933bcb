// End-to-end broker tests: server + client over the shaped fabric —
// open/read/write/seek semantics, catalog verbs, concurrency, and the
// object store's pread/pwrite behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "simnet/faults.hpp"
#include "simnet/timescale.hpp"
#include "srb/client.hpp"
#include "srb/object_store.hpp"
#include "srb/server.hpp"

namespace remio::srb {
namespace {

class SrbTest : public ::testing::Test {
 protected:
  SrbTest() : scale_(2000.0) {
    simnet::HostSpec server_host;
    server_host.name = "orion";
    fabric_.add_host(server_host);
    simnet::HostSpec client_host;
    client_host.name = "node0";
    client_host.latency_to_core = 0.001;
    fabric_.add_host(client_host);

    server_ = std::make_unique<SrbServer>(fabric_, ServerConfig{});
    server_->start();
  }

  std::unique_ptr<SrbClient> make_client() {
    return std::make_unique<SrbClient>(fabric_, "node0", "orion", 5544);
  }

  simnet::ScopedTimeScale scale_;
  simnet::Fabric fabric_;
  std::unique_ptr<SrbServer> server_;
};

TEST_F(SrbTest, ConnectHandshake) {
  auto c = make_client();
  EXPECT_EQ(c->server_banner(), "remio-srb 3.2.1-sim");
  EXPECT_EQ(server_->sessions_served(), 1u);
}

TEST_F(SrbTest, OpenMissingFails) {
  auto c = make_client();
  try {
    c->open("/nope", kRead);
    FAIL() << "expected SrbError";
  } catch (const SrbError& e) {
    EXPECT_EQ(e.status(), Status::kNotFound);
  }
}

TEST_F(SrbTest, CreateWriteReadBack) {
  auto c = make_client();
  const auto fd = c->open("/home/t/obj", kRead | kWrite | kCreate);
  const Bytes data = to_bytes("the quick brown fox");
  EXPECT_EQ(c->pwrite(fd, ByteSpan(data.data(), data.size()), 0), data.size());
  Bytes back(data.size());
  EXPECT_EQ(c->pread(fd, MutByteSpan(back.data(), back.size()), 0), data.size());
  EXPECT_EQ(back, data);
  c->close(fd);
}

TEST_F(SrbTest, FilePointerSemantics) {
  auto c = make_client();
  const auto fd = c->open("/fp", kRead | kWrite | kCreate);
  const Bytes a = to_bytes("aaaa");
  const Bytes b = to_bytes("bbbb");
  c->write(fd, ByteSpan(a.data(), a.size()));
  c->write(fd, ByteSpan(b.data(), b.size()));  // appended at fp
  EXPECT_EQ(c->seek(fd, 0, Whence::kSet), 0);
  Bytes back(8);
  EXPECT_EQ(c->read(fd, MutByteSpan(back.data(), back.size())), 8u);
  EXPECT_EQ(to_string(ByteSpan(back.data(), back.size())), "aaaabbbb");
  // fp is now at EOF; further reads return 0.
  char extra;
  EXPECT_EQ(c->read(fd, MutByteSpan(&extra, 1)), 0u);
  c->close(fd);
}

TEST_F(SrbTest, SeekWhence) {
  auto c = make_client();
  const auto fd = c->open("/seek", kRead | kWrite | kCreate);
  const Bytes data = to_bytes("0123456789");
  c->pwrite(fd, ByteSpan(data.data(), data.size()), 0);
  EXPECT_EQ(c->seek(fd, 4, Whence::kSet), 4);
  EXPECT_EQ(c->seek(fd, 2, Whence::kCur), 6);
  EXPECT_EQ(c->seek(fd, -3, Whence::kEnd), 7);
  char ch;
  EXPECT_EQ(c->read(fd, MutByteSpan(&ch, 1)), 1u);
  EXPECT_EQ(ch, '7');
  EXPECT_THROW(c->seek(fd, -100, Whence::kSet), SrbError);
  c->close(fd);
}

TEST_F(SrbTest, SparseWriteZeroFills) {
  auto c = make_client();
  const auto fd = c->open("/sparse", kRead | kWrite | kCreate);
  const Bytes tail = to_bytes("end");
  c->pwrite(fd, ByteSpan(tail.data(), tail.size()), 100);
  EXPECT_EQ(c->stat("/sparse")->size, 103u);
  Bytes back(103);
  EXPECT_EQ(c->pread(fd, MutByteSpan(back.data(), back.size()), 0), 103u);
  EXPECT_EQ(back[0], '\0');
  EXPECT_EQ(back[99], '\0');
  EXPECT_EQ(back[100], 'e');
  c->close(fd);
}

TEST_F(SrbTest, TruncFlagResets) {
  auto c = make_client();
  auto fd = c->open("/trunc", kRead | kWrite | kCreate);
  const Bytes data = to_bytes("hello world");
  c->pwrite(fd, ByteSpan(data.data(), data.size()), 0);
  c->close(fd);
  fd = c->open("/trunc", kRead | kWrite | kTrunc);
  EXPECT_EQ(c->stat("/trunc")->size, 0u);
  c->close(fd);
}

TEST_F(SrbTest, StatAndUnlink) {
  auto c = make_client();
  EXPECT_FALSE(c->stat("/gone").has_value());
  const auto fd = c->open("/obj", kWrite | kCreate);
  const Bytes data(1234, 'x');
  c->pwrite(fd, ByteSpan(data.data(), data.size()), 0);
  c->close(fd);
  const auto st = c->stat("/obj");
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->size, 1234u);
  EXPECT_EQ(st->resource, "orion-disk");
  c->unlink("/obj");
  EXPECT_FALSE(c->stat("/obj").has_value());
  EXPECT_THROW(c->unlink("/obj"), SrbError);
}

TEST_F(SrbTest, PermissionBits) {
  auto c = make_client();
  const auto wr = c->open("/perm", kWrite | kCreate);
  Bytes buf(4);
  EXPECT_THROW(c->pread(wr, MutByteSpan(buf.data(), buf.size()), 0), SrbError);
  c->close(wr);
  const auto rd = c->open("/perm", kRead);
  const Bytes data = to_bytes("data");
  EXPECT_THROW(c->pwrite(rd, ByteSpan(data.data(), data.size()), 0), SrbError);
  c->close(rd);
}

TEST_F(SrbTest, BadFdRejected) {
  auto c = make_client();
  Bytes buf(4);
  EXPECT_THROW(c->pread(99, MutByteSpan(buf.data(), buf.size()), 0), SrbError);
  EXPECT_THROW(c->close(99), SrbError);
}

TEST_F(SrbTest, CollectionsAndAttrs) {
  auto c = make_client();
  c->make_collection("/proj/run1");
  const auto fd = c->open("/proj/run1/out", kWrite | kCreate);
  c->close(fd);
  const auto entries = c->list("/proj/run1");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0], "/proj/run1/out");
  EXPECT_THROW(c->list("/missing"), SrbError);

  c->set_attr("/proj/run1/out", "owner", "demo");
  EXPECT_EQ(c->get_attr("/proj/run1/out", "owner").value(), "demo");
  EXPECT_FALSE(c->get_attr("/proj/run1/out", "nope").has_value());
}

TEST_F(SrbTest, LargeTransferIntegrity) {
  auto c = make_client();
  const auto fd = c->open("/big", kRead | kWrite | kCreate);
  Rng rng(5);
  const Bytes data = rng.bytes((1 << 20) + 321);
  EXPECT_EQ(c->pwrite(fd, ByteSpan(data.data(), data.size()), 0), data.size());
  Bytes back(data.size());
  EXPECT_EQ(c->pread(fd, MutByteSpan(back.data(), back.size()), 0), data.size());
  EXPECT_EQ(back, data);
  c->close(fd);
}

TEST_F(SrbTest, ConcurrentClientsDisjointOffsets) {
  // Two connections writing disjoint slices of the same object — the §7.2
  // double-connection pattern at the broker level.
  auto c = make_client();
  const auto fd0 = c->open("/shared", kWrite | kCreate);
  c->close(fd0);

  constexpr std::size_t kSlice = 256 * 1024;
  auto writer = [&](int idx) {
    auto cl = make_client();
    const auto fd = cl->open("/shared", kWrite);
    const Bytes data(kSlice, static_cast<char>('A' + idx));
    cl->pwrite(fd, ByteSpan(data.data(), data.size()),
               static_cast<std::uint64_t>(idx) * kSlice);
    cl->close(fd);
  };
  auto f1 = std::async(std::launch::async, writer, 0);
  auto f2 = std::async(std::launch::async, writer, 1);
  f1.get();
  f2.get();

  const auto fd = c->open("/shared", kRead);
  Bytes back(2 * kSlice);
  EXPECT_EQ(c->pread(fd, MutByteSpan(back.data(), back.size()), 0), back.size());
  EXPECT_EQ(back[0], 'A');
  EXPECT_EQ(back[kSlice - 1], 'A');
  EXPECT_EQ(back[kSlice], 'B');
  EXPECT_EQ(back.back(), 'B');
  c->close(fd);
}

TEST_F(SrbTest, ManyParallelSessions) {
  constexpr int kSessions = 8;
  std::vector<std::future<void>> jobs;
  for (int i = 0; i < kSessions; ++i)
    jobs.push_back(std::async(std::launch::async, [&, i] {
      auto cl = make_client();
      const std::string path = "/many/obj" + std::to_string(i);
      const auto fd = cl->open(path, kRead | kWrite | kCreate);
      const Bytes data(10000, static_cast<char>(i));
      cl->pwrite(fd, ByteSpan(data.data(), data.size()), 0);
      Bytes back(10000);
      EXPECT_EQ(cl->pread(fd, MutByteSpan(back.data(), back.size()), 0), back.size());
      EXPECT_EQ(back, data);
      cl->close(fd);
    }));
  for (auto& j : jobs) j.get();
  EXPECT_EQ(server_->mcat().object_count(), kSessions);
}

TEST_F(SrbTest, DisconnectThenCallsFail) {
  auto c = make_client();
  c->disconnect();
  EXPECT_THROW(c->stat("/x"), SrbError);
  c->disconnect();  // idempotent
}

TEST_F(SrbTest, ServerStopClosesSessions) {
  auto c = make_client();
  server_->stop();
  EXPECT_ANY_THROW({
    const auto fd = c->open("/x", kWrite | kCreate);
    (void)fd;
  });
}

// --- ObjectStore direct ----------------------------------------------------------

TEST(ObjectStore, PreadShortAtEof) {
  ObjectStore store;
  store.create(1);
  const Bytes data = to_bytes("abc");
  store.pwrite(1, ByteSpan(data.data(), data.size()), 0);
  Bytes buf(10);
  EXPECT_EQ(store.pread(1, MutByteSpan(buf.data(), buf.size()), 0), 3u);
  EXPECT_EQ(store.pread(1, MutByteSpan(buf.data(), buf.size()), 5), 0u);
}

TEST(ObjectStore, MissingObjectThrows) {
  ObjectStore store;
  Bytes buf(1);
  EXPECT_THROW(store.pread(7, MutByteSpan(buf.data(), buf.size()), 0),
               std::out_of_range);
}

TEST(ObjectStore, TotalBytesAndRemove) {
  ObjectStore store;
  store.create(1);
  store.create(2);
  const Bytes data(100, 'x');
  store.pwrite(1, ByteSpan(data.data(), data.size()), 0);
  store.pwrite(2, ByteSpan(data.data(), data.size()), 50);
  EXPECT_EQ(store.total_bytes(), 250u);
  store.remove(1);
  EXPECT_EQ(store.total_bytes(), 150u);
  EXPECT_FALSE(store.exists(1));
}

TEST(ObjectStore, CreateIsIdempotent) {
  ObjectStore store;
  store.create(1);
  const Bytes data = to_bytes("keep");
  store.pwrite(1, ByteSpan(data.data(), data.size()), 0);
  store.create(1);  // must not clobber
  EXPECT_EQ(store.size(1), 4u);
}

// --- at-rest integrity -------------------------------------------------------

TEST(ObjectStore, CorruptionDetectedOnRead) {
  ObjectStore store;
  store.create(1);
  Bytes data(200000);
  Rng rng(1);
  for (auto& b : data) b = static_cast<char>(rng.next());
  store.pwrite(1, ByteSpan(data.data(), data.size()), 0);

  ASSERT_TRUE(store.corrupt(1, 150000));  // checksum block 36
  Bytes back(data.size());
  // A read covering the rotten block throws; one confined to clean blocks
  // still succeeds (per-block sums localize the damage).
  EXPECT_THROW(store.pread(1, MutByteSpan(back.data(), back.size()), 0),
               IntegrityError);
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), 60000), 0), 60000u);
  // Rewriting the bad block's bytes re-hashes it: reads recover.
  store.pwrite(1, ByteSpan(data.data() + 131072, 65536), 131072);
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0),
            data.size());
  EXPECT_EQ(back, data);
}

TEST(ObjectStore, RotIsConfinedToItsFourKiBBlock) {
  constexpr std::uint64_t kBlock = 4096;
  ObjectStore store;
  store.create(1);
  Bytes data(1u << 20);
  Rng rng(7);
  for (auto& b : data) b = static_cast<char>(rng.next());
  store.pwrite(1, ByteSpan(data.data(), data.size()), 0);

  // Block 77 sits mid-object, in the 64 KiB region [256 KiB, 320 KiB).
  const std::uint64_t bad = 77;
  const std::uint64_t region = 256u * 1024;
  ASSERT_TRUE(store.corrupt(1, bad * kBlock + 1234));

  // Same 64 KiB region, different 4 KiB blocks: still readable.
  Bytes back(data.size());
  const std::size_t before = static_cast<std::size_t>(bad * kBlock - region);
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), before), region), before);
  EXPECT_TRUE(std::equal(back.begin(), back.begin() + before,
                         data.begin() + static_cast<std::ptrdiff_t>(region)));

  // A read that covers the byte names block 77 and may be retried.
  try {
    store.pread(1, MutByteSpan(back.data(), 2 * kBlock), (bad - 1) * kBlock);
    FAIL() << "expected IntegrityError";
  } catch (const IntegrityError& e) {
    EXPECT_TRUE(e.retryable());
    EXPECT_FALSE(e.quarantined());
    EXPECT_NE(std::string(e.what()).find("block 77"), std::string::npos)
        << e.what();
  }

  ScrubReport rep = store.scrub();
  EXPECT_EQ(rep.blocks, data.size() / kBlock);
  EXPECT_EQ(rep.mismatched, 1u);
  EXPECT_EQ(rep.quarantined, 1u);

  // Rewriting just that 4 KiB block heals the object.
  store.pwrite(1, ByteSpan(data.data() + bad * kBlock, kBlock), bad * kBlock);
  rep = store.scrub();
  EXPECT_EQ(rep.mismatched, 0u);
  EXPECT_EQ(rep.healed, 1u);
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0),
            data.size());
  EXPECT_EQ(back, data);
}

TEST(ObjectStore, UnalignedWritesKeepBothBlocksFresh) {
  ObjectStore store;
  store.create(1);
  // Three full 4 KiB blocks and a last block holding 100 bytes.
  Bytes model(3 * 4096 + 100);
  Rng rng(11);
  for (auto& b : model) b = static_cast<char>(rng.next());
  store.pwrite(1, ByteSpan(model.data(), model.size()), 0);

  // [6000, 10096) ends inside block 2 after starting inside block 1.
  Bytes patch(4096);
  for (auto& b : patch) b = static_cast<char>(rng.next());
  store.pwrite(1, ByteSpan(patch.data(), patch.size()), 6000);
  std::copy(patch.begin(), patch.end(), model.begin() + 6000);

  Bytes back(model.size());
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0),
            model.size());
  EXPECT_EQ(back, model);
  const ScrubReport rep = store.scrub();
  EXPECT_EQ(rep.blocks, 4u);
  EXPECT_EQ(rep.mismatched, 0u);
}

TEST(ObjectStore, ListWriteRehashesSharedAndGapBlocks) {
  // One pwritev: two extents share block 0, and the last extent lands past
  // EOF, so [5,000, 9,000) is zero-filled across blocks 1 and 2. Every
  // block it touched must carry a fresh sum, though each is hashed once.
  ObjectStore store;
  store.create(1);
  Rng rng(21);
  Bytes model = rng.bytes(5000);
  store.pwrite(1, ByteSpan(model.data(), model.size()), 0);
  const ExtentList extents = {{100, 50}, {200, 50}, {9000, 100}};
  const Bytes data = rng.bytes(200);
  EXPECT_EQ(store.pwritev(1, extents, ByteSpan(data.data(), data.size())),
            9100u - 5000u);
  model.resize(9100, '\0');
  std::size_t consumed = 0;
  for (const Extent& x : extents) {
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(consumed), x.len,
                model.begin() + static_cast<std::ptrdiff_t>(x.offset));
    consumed += x.len;
  }
  const ScrubReport rep = store.scrub();
  EXPECT_EQ(rep.blocks, 3u);
  EXPECT_EQ(rep.mismatched, 0u);
  Bytes back(model.size());
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0),
            model.size());
  EXPECT_EQ(back, model);
}

TEST(ObjectStore, ListReadStopsAtEofAndVerifiesEveryTouchedBlock) {
  ObjectStore store;
  store.create(1);
  Rng rng(22);
  const Bytes model = rng.bytes(10000);  // blocks 0-1 full, block 2 partial
  store.pwrite(1, ByteSpan(model.data(), model.size()), 0);

  // The extent EOF cuts is short and the one past EOF is empty: 10 + 10 B.
  const ExtentList tail = {{10, 10}, {9990, 20}, {12000, 5}};
  Bytes out(35);
  EXPECT_EQ(store.preadv(1, tail, MutByteSpan(out.data(), out.size())), 20u);
  EXPECT_TRUE(std::equal(out.begin(), out.begin() + 10, model.begin() + 10));
  EXPECT_TRUE(std::equal(out.begin() + 10, out.begin() + 20, model.begin() + 9990));

  // Rot in block 2: a list that touches it only through its last extent
  // still fails, and one that stays in blocks 0 and 1 still reads.
  ASSERT_TRUE(store.corrupt(1, 8200));
  const ExtentList clean = {{0, 8}, {4100, 8}};
  EXPECT_EQ(store.preadv(1, clean, MutByteSpan(out.data(), 16)), 16u);
  const ExtentList touches = {{0, 8}, {4100, 8}, {8195, 10}};
  EXPECT_THROW(store.preadv(1, touches, MutByteSpan(out.data(), 26)),
               IntegrityError);
}

TEST(ObjectStore, TruncateAndGapWritesKeepSumsFresh) {
  ObjectStore store;
  store.create(1);
  Bytes data(300000, 'q');
  store.pwrite(1, ByteSpan(data.data(), data.size()), 0);
  // Shrink to a mid-block boundary, then re-grow via a sparse write: the
  // zero-extension gap and the partial tail block must both be re-hashed.
  store.truncate(1, 100000);
  store.pwrite(1, ByteSpan(data.data(), 10), 250000);
  Bytes back(250010);
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0),
            back.size());
  for (std::size_t i = 100000; i < 250000; ++i)
    ASSERT_EQ(back[i], 0) << "gap byte " << i;
  store.truncate(1, 0);
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0), 0u);
}

TEST(ObjectStore, ScrubQuarantinesAndHeals) {
  ObjectStore store;
  store.create(1);
  store.create(2);
  Bytes data(100000, 'z');
  store.pwrite(1, ByteSpan(data.data(), data.size()), 0);
  store.pwrite(2, ByteSpan(data.data(), data.size()), 0);

  ASSERT_TRUE(store.corrupt(2, 5));
  ScrubReport rep = store.scrub();
  EXPECT_EQ(rep.objects, 2u);
  EXPECT_EQ(rep.mismatched, 1u);
  EXPECT_EQ(rep.quarantined, 1u);
  EXPECT_EQ(rep.healed, 0u);
  EXPECT_TRUE(store.is_quarantined(2));
  EXPECT_FALSE(store.is_quarantined(1));

  // Reads of the quarantined object fail non-retryably; the clean one works.
  Bytes back(16);
  try {
    store.pread(2, MutByteSpan(back.data(), back.size()), 0);
    FAIL() << "expected IntegrityError";
  } catch (const IntegrityError& e) {
    EXPECT_TRUE(e.quarantined());
    EXPECT_FALSE(e.retryable());
    EXPECT_EQ(e.domain(), remio::ErrorDomain::kIntegrity);
  }
  EXPECT_EQ(store.pread(1, MutByteSpan(back.data(), back.size()), 0), 16u);

  // Writes remain allowed (the repair path); a clean re-scrub heals.
  store.pwrite(2, ByteSpan(data.data(), 65536), 0);
  rep = store.scrub();
  EXPECT_EQ(rep.mismatched, 0u);
  EXPECT_EQ(rep.healed, 1u);
  EXPECT_FALSE(store.is_quarantined(2));
  EXPECT_EQ(store.pread(2, MutByteSpan(back.data(), back.size()), 0), 16u);
}

TEST(ObjectStore, WholeBlockSumsComeFromTheSentBytes) {
  // A write's whole-block sums are taken from the bytes the sender meant,
  // before the store copies them in. So a bit the copy damages no longer
  // gets a fresh, matching sum: the next read and the next scrub see it.
  constexpr std::size_t kBlock = 4096;
  ObjectStore store;
  store.create(1);
  Rng rng(31);
  // [4000, 4000 + 3 * 4096 + 200): a partial head block, whole blocks 1-3
  // and a partial tail block.
  const Bytes intended = rng.bytes(3 * kBlock + 200);
  std::vector<std::uint32_t> whole;
  const std::uint32_t crc = ObjectStore::hash_blocks(
      ByteSpan(intended.data(), intended.size()), 4000, 0, whole);
  ASSERT_EQ(crc, crc32c(ByteSpan(intended.data(), intended.size())));
  ASSERT_EQ(whole.size(), 3u);
  Bytes damaged = intended;
  damaged[kBlock + 500] ^= 0x10;  // object byte 8596: whole block 2
  store.pwrite(1, ByteSpan(damaged.data(), damaged.size()), 4000, whole);

  Bytes back(damaged.size() + 4000);
  try {
    store.pread(1, MutByteSpan(back.data(), back.size()), 0);
    FAIL() << "a byte damaged after its sum was taken went undetected";
  } catch (const IntegrityError& e) {
    EXPECT_TRUE(e.retryable());
    EXPECT_FALSE(e.quarantined());
    EXPECT_NE(std::string(e.what()).find("block 2"), std::string::npos)
        << e.what();
  }
  const ScrubReport rep = store.scrub();
  EXPECT_EQ(rep.blocks, 5u);
  EXPECT_EQ(rep.mismatched, 1u);
}

TEST(ObjectStore, ComposedReadCrcMatchesTheBytesRead) {
  // The CRC a read returns is folded from the verified block sums; it must
  // equal hashing what was read, at every alignment, for list reads whose
  // extents share blocks, and for reads EOF cuts short.
  ObjectStore store;
  store.create(1);
  Rng rng(32);
  const Bytes model = rng.bytes(10000);  // blocks 0-1 whole, block 2 short
  store.pwrite(1, ByteSpan(model.data(), model.size()), 0);
  Bytes out(9000);
  for (const std::uint64_t at : {0u, 1u, 4095u, 4096u, 4097u, 9999u, 12000u}) {
    for (const std::size_t len : {1u, 4095u, 4096u, 8193u}) {
      std::uint32_t crc = 1;
      const std::size_t n =
          store.pread(1, MutByteSpan(out.data(), len), at, &crc);
      ASSERT_EQ(crc, crc32c(ByteSpan(out.data(), n)))
          << "offset " << at << " length " << len;
    }
  }
  const ExtentList shared = {{10, 100}, {200, 3000}, {3300, 5000}, {9990, 100}};
  std::uint32_t crc = 1;
  const std::size_t n =
      store.preadv(1, shared, MutByteSpan(out.data(), 8200), &crc);
  EXPECT_EQ(n, 100u + 3000u + 5000u + 10u);
  EXPECT_EQ(crc, crc32c(ByteSpan(out.data(), n)));
}

// --- wire checksums: request, grant and the off switch -----------------------

TEST_F(SrbTest, WireChecksumsNegotiatedByDefault) {
  auto c = make_client();
  EXPECT_TRUE(c->wire_checksums());
  const auto fd = c->open("/crc/on", kRead | kWrite | kCreate);
  const Bytes data = to_bytes("covered by crc32c trailers");
  EXPECT_EQ(c->pwrite(fd, ByteSpan(data.data(), data.size()), 0), data.size());
  Bytes back(data.size());
  EXPECT_EQ(c->pread(fd, MutByteSpan(back.data(), back.size()), 0), data.size());
  EXPECT_EQ(back, data);
  EXPECT_EQ(c->crc_failures(), 0u);
  c->close(fd);
}

TEST_F(SrbTest, OldClientAgainstNewServerInterops) {
  // wire_checksums=false makes the client bit-identical to a pre-integrity
  // one: no flags at connect, so the server must not ack and the whole
  // session must run the unchecked protocol.
  auto old_c = std::make_unique<SrbClient>(fabric_, "node0", "orion", 5544,
                                           simnet::ConnectOptions{}, "old-client",
                                           "", /*wire_checksums=*/false);
  EXPECT_FALSE(old_c->wire_checksums());
  const auto fd = old_c->open("/crc/old", kRead | kWrite | kCreate);
  const Bytes data = to_bytes("plain frames");
  EXPECT_EQ(old_c->pwrite(fd, ByteSpan(data.data(), data.size()), 0),
            data.size());
  Bytes back(data.size());
  EXPECT_EQ(old_c->pread(fd, MutByteSpan(back.data(), back.size()), 0),
            data.size());
  EXPECT_EQ(back, data);
  old_c->close(fd);
}

TEST_F(SrbTest, ComposedReplyTrailersVerifyAtEveryAlignment) {
  // A checksummed read's trailer is composed from the store's verified
  // block sums, not from hashing the reply. Every alignment of offset and
  // length against the 4 KiB blocks, reads EOF cuts short, and a list read
  // whose extents share blocks must verify at the client and return the
  // stored bytes; the unchecksummed session reads the same bytes.
  auto c = make_client();
  auto plain = std::make_unique<SrbClient>(
      fabric_, "node0", "orion", 5544, simnet::ConnectOptions{}, "plain", "",
      /*wire_checksums=*/false);
  const auto fd = c->open("/crc/compose", kRead | kWrite | kCreate);
  const auto pfd = plain->open("/crc/compose", kRead);
  Rng rng(33);
  const Bytes model = rng.bytes(10000);  // blocks 0-1 whole, block 2 short
  ASSERT_EQ(c->pwrite(fd, ByteSpan(model.data(), model.size()), 0),
            model.size());
  Bytes back(8193);
  for (const std::uint64_t at : {0u, 1u, 4095u, 4096u, 4097u, 9000u, 10000u}) {
    for (const std::size_t len : {1u, 4095u, 4096u, 8193u}) {
      const std::size_t want = static_cast<std::size_t>(std::min<std::uint64_t>(
          len, at < model.size() ? model.size() - at : 0));
      for (SrbClient* cl : {c.get(), plain.get()}) {
        const std::size_t n = cl->pread(cl == c.get() ? fd : pfd,
                                        MutByteSpan(back.data(), len), at);
        ASSERT_EQ(n, want) << "offset " << at << " length " << len;
        ASSERT_TRUE(std::equal(back.begin(),
                               back.begin() + static_cast<std::ptrdiff_t>(n),
                               model.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min<std::uint64_t>(
                                                       at, model.size()))))
            << "offset " << at << " length " << len;
      }
    }
  }
  // Extents 1-3 share block 0, extent 3 covers block 1 whole, and EOF cuts
  // the last one to 10 bytes.
  const ExtentList shared = {{10, 100}, {200, 3000}, {3300, 5000}, {9990, 100}};
  Bytes packed(8200);
  ASSERT_EQ(c->preadv(fd, shared, MutByteSpan(packed.data(), packed.size())),
            8110u);
  std::size_t at = 0;
  for (const Extent& x : shared) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(x.len, model.size() - x.offset));
    ASSERT_TRUE(std::equal(
        packed.begin() + static_cast<std::ptrdiff_t>(at),
        packed.begin() + static_cast<std::ptrdiff_t>(at + n),
        model.begin() + static_cast<std::ptrdiff_t>(x.offset)));
    at += n;
  }
  EXPECT_EQ(c->crc_failures(), 0u);
  plain->close(pfd);
  c->close(fd);
}

TEST_F(SrbTest, MissingChecksumGrantFailsTheDialRetryably) {
  // The broker grants every feature a client asks for, so a login reply
  // without the grant can only have been damaged in flight (the login
  // exchange carries no checksum). The dial must fail retryably instead of
  // running the session unprotected. The peer here answers kConnect with a
  // bare banner: first with no flags word, then with the bit clear.
  auto acceptor = fabric_.listen("orion", 5599);
  std::thread peer([&acceptor] {
    for (int round = 0; round < 2; ++round) {
      auto sock = acceptor->accept();
      if (!sock) return;
      FrameBuffer request;
      if (!recv_frame(**sock, request)) return;
      Bytes body;
      ByteWriter w(body);
      w.str("remio-srb 3.2.1-sim");
      if (round == 1) w.u32(0);
      send_reply(**sock, 0, {body}, /*crc=*/false);
    }
  });
  for (int round = 0; round < 2; ++round) {
    try {
      SrbClient c(fabric_, "node0", "orion", 5599);
      ADD_FAILURE() << "round " << round << ": expected the dial to fail";
    } catch (const remio::StatusError& e) {
      EXPECT_TRUE(e.retryable()) << e.what();
      EXPECT_EQ(e.domain(), remio::ErrorDomain::kTransport) << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "round " << round << ": " << e.what();
    }
  }
  acceptor->close();
  peer.join();
}

TEST_F(SrbTest, ReadRepliesThatDisagreeWithTheRequestThrowProtocolInPhase) {
  // A peer that answers each kObjRead from a script, every reply with a
  // valid CRC. The client lands read payloads straight in the caller's
  // buffer: a blob longer than asked for must never be copied past it, and
  // a reply whose lengths disagree must not read as a silent EOF. Each bad
  // frame is drained whole, so the next read on the same session succeeds.
  const auto blob = [](std::uint32_t len_field, std::size_t bytes, char fill) {
    Bytes b;
    ByteWriter(b).u32(len_field);
    b.resize(4 + bytes, fill);
    return b;
  };
  const Bytes good(16, 'g');
  std::vector<Bytes> script;  // kOk reply bodies, one per kObjRead
  for (int verb = 0; verb < 2; ++verb) {
    script.push_back(blob(32, 32, 'x'));  // twice the 16 B asked for
    script.push_back(blob(16, 16, 'g'));
    script.push_back({});                 // no blob length at all
    script.push_back(blob(16, 8, 'x'));   // length field past the frame's end
    script.push_back(blob(16, 16, 'g'));
  }
  auto acceptor = fabric_.listen("orion", 5598);
  std::thread peer([&] {
    try {
      auto sock = acceptor->accept();
      if (!sock) return;
      FrameBuffer frame;
      std::size_t next = 0;
      bool crc = false;
      while (recv_frame(**sock, frame)) {
        if (crc && !strip_frame_crc(frame)) return;
        const auto op = static_cast<Op>(frame[0]);
        if (op == Op::kConnect) {
          Bytes body;
          ByteWriter w(body);
          w.str("scripted-peer");
          w.u32(kFeatureWireChecksums);
          send_reply(**sock, 0, {body}, /*crc=*/false);
          crc = true;
        } else if (op == Op::kObjRead && next < script.size()) {
          send_reply(**sock, 0, {script[next++]}, /*crc=*/true);
        } else {
          send_reply(**sock, 0, {}, /*crc=*/true);
          if (op == Op::kDisconnect) return;
        }
      }
    } catch (const simnet::NetError&) {
      // The client went away mid-frame; nothing left to serve.
    }
  });
  {
    SrbClient c(fabric_, "node0", "orion", 5598);
    ASSERT_TRUE(c.wire_checksums());
    Bytes out(16);  // exactly the request: an overrun is a heap overflow
    const std::function<std::size_t()> verbs[] = {
        [&] { return c.pread(3, MutByteSpan(out.data(), out.size()), 0); },
        [&] { return c.read(3, MutByteSpan(out.data(), out.size())); },
    };
    const auto expect_protocol = [](const std::function<std::size_t()>& verb) {
      try {
        const std::size_t n = verb();
        ADD_FAILURE() << "expected kProtocol, read " << n << " B";
      } catch (const SrbError& e) {
        EXPECT_EQ(e.status(), Status::kProtocol) << e.what();
        EXPECT_FALSE(e.retryable()) << e.what();
      }
    };
    for (const auto& verb : verbs) {
      expect_protocol(verb);
      EXPECT_EQ(verb(), 16u);
      EXPECT_EQ(out, good);
      expect_protocol(verb);
      expect_protocol(verb);
      EXPECT_EQ(verb(), 16u);
      EXPECT_EQ(out, good);
    }
    EXPECT_EQ(c.crc_failures(), 0u);
  }
  acceptor->close();
  peer.join();
}

TEST_F(SrbTest, WireOverheadIsExactlyFourBytesPerFrame) {
  // Pins the frame format: a CRC session moves exactly 4 extra bytes per
  // message in each direction (the trailer; plus the 4-byte flags field in
  // the connect exchange). Also proves a checksums-off session is
  // byte-identical to the pre-integrity protocol, whose costs these same
  // op sequences pinned before this feature existed.
  const auto run_ops = [&](SrbClient& c) {
    const auto fd = c.open("/crc/overhead", kRead | kWrite | kCreate);
    Bytes data(10000, 'k');
    c.pwrite(fd, ByteSpan(data.data(), data.size()), 0);
    Bytes back(10000);
    c.pread(fd, MutByteSpan(back.data(), back.size()), 0);
    c.close(fd);
    c.disconnect();
  };
  auto on = make_client();
  run_ops(*on);
  const std::uint64_t on_sent = on->bytes_sent();
  const std::uint64_t on_recv = on->bytes_received();
  const std::uint64_t rpcs = on->rpc_count();

  auto off = std::make_unique<SrbClient>(fabric_, "node0", "orion", 5544,
                                         simnet::ConnectOptions{}, "remio-client",
                                         "", /*wire_checksums=*/false);
  run_ops(*off);
  // Every frame (request and response) carries a 4-byte trailer except the
  // two connect frames, which instead carry the 4-byte flags/ack fields:
  // the delta is exactly 4 * rpc_count in each direction.
  EXPECT_EQ(on_sent - off->bytes_sent(), 4u * rpcs);
  EXPECT_EQ(on_recv - off->bytes_received(), 4u * rpcs);
  EXPECT_EQ(off->rpc_count(), rpcs);
}

// --- end-to-end corruption: in flight and at rest ---------------------------

TEST_F(SrbTest, InFlightCorruptionSurfacesAndSessionSurvives) {
  auto fault = std::make_shared<simnet::FaultInjector>();
  fabric_.set_fault_injector(fault);
  auto c = make_client();
  ASSERT_TRUE(c->wire_checksums());
  const auto fd = c->open("/crc/flight", kRead | kWrite | kCreate);
  Bytes data(20000, 'w');
  c->pwrite(fd, ByteSpan(data.data(), data.size()), 0);

  // Corrupt every send until further notice: whichever direction the flip
  // lands in, the op must fail with the retryable integrity status and the
  // wrong bytes must never be accepted.
  fault->set_corrupt_probability(1.0);
  Bytes back(20000);
  try {
    c->pread(fd, MutByteSpan(back.data(), back.size()), 0);
    FAIL() << "expected SrbError";
  } catch (const SrbError& e) {
    EXPECT_EQ(e.status(), Status::kChecksumMismatch);
    EXPECT_TRUE(e.retryable());
    EXPECT_EQ(e.domain(), remio::ErrorDomain::kIntegrity);
  }
  EXPECT_GE(fault->corruptions(), 1u);

  // Same socket, same session: once the line is clean the op just works.
  fault->set_corrupt_probability(0.0);
  EXPECT_EQ(c->pread(fd, MutByteSpan(back.data(), back.size()), 0),
            data.size());
  EXPECT_EQ(back, data);
  c->close(fd);
}

TEST_F(SrbTest, AtRestCorruptionSurfacesOverTheWire) {
  auto c = make_client();
  const auto fd = c->open("/crc/rest", kRead | kWrite | kCreate);
  Bytes data(100000, 'r');
  c->pwrite(fd, ByteSpan(data.data(), data.size()), 0);
  const auto st = c->stat("/crc/rest");
  ASSERT_TRUE(st.has_value());

  ASSERT_TRUE(server_->store().corrupt(st->object_id, 42));
  Bytes back(100000);
  try {
    c->pread(fd, MutByteSpan(back.data(), back.size()), 0);
    FAIL() << "expected SrbError";
  } catch (const SrbError& e) {
    EXPECT_EQ(e.status(), Status::kChecksumMismatch);
    EXPECT_TRUE(e.retryable());
  }
  // The session survived the server-side throw; other objects still serve.
  const auto fd2 = c->open("/crc/other", kRead | kWrite | kCreate);
  c->pwrite(fd2, ByteSpan(data.data(), 100), 0);
  EXPECT_EQ(c->pread(fd2, MutByteSpan(back.data(), 100), 0), 100u);
  c->close(fd2);
}

TEST_F(SrbTest, AdminScrubQuarantinesOverTheWire) {
  auto c = make_client();
  const auto fd = c->open("/crc/scrubme", kRead | kWrite | kCreate);
  Bytes data(70000, 's');
  c->pwrite(fd, ByteSpan(data.data(), data.size()), 0);
  const auto st = c->stat("/crc/scrubme");
  ASSERT_TRUE(st.has_value());

  SrbClient::ScrubResult rep = c->scrub();
  EXPECT_GE(rep.objects, 1u);
  EXPECT_EQ(rep.mismatched, 0u);

  ASSERT_TRUE(server_->store().corrupt(st->object_id, 65536));
  rep = c->scrub();
  EXPECT_EQ(rep.mismatched, 1u);
  EXPECT_EQ(rep.quarantined, 1u);

  // kQuarantined is terminal until repaired — and distinct from a plain
  // mismatch so supervisors don't burn retries on it.
  Bytes back(16);
  try {
    c->pread(fd, MutByteSpan(back.data(), back.size()), 0);
    FAIL() << "expected SrbError";
  } catch (const SrbError& e) {
    EXPECT_EQ(e.status(), Status::kQuarantined);
    EXPECT_FALSE(e.retryable());
  }

  // Repair by rewriting the damaged block, then scrub-heal.
  c->pwrite(fd, ByteSpan(data.data() + 65536, data.size() - 65536), 65536);
  rep = c->scrub();
  EXPECT_EQ(rep.healed, 1u);
  EXPECT_EQ(c->pread(fd, MutByteSpan(back.data(), back.size()), 0), 16u);
  c->close(fd);
}

}  // namespace
}  // namespace remio::srb
