// MPI-IO front-end tests over the ufs driver: explicit-offset and
// file-pointer I/O, seek semantics, the default async verbs of a driver
// with only synchronous ones (already complete on return, like ROMIO's
// fake verbs), request semantics, and error paths.
#include <gtest/gtest.h>

#include <filesystem>

#include "common/rng.hpp"
#include "mpiio/file.hpp"
#include "mpiio/ufs.hpp"

namespace remio::mpiio {
namespace {

class MpiioTest : public ::testing::Test {
 protected:
  MpiioTest() {
    root_ = std::filesystem::temp_directory_path() /
            ("remio_mpiio_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    driver_ = std::make_unique<UfsDriver>(root_.string());
  }
  ~MpiioTest() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  static int counter_;
  std::filesystem::path root_;
  std::unique_ptr<UfsDriver> driver_;
};

int MpiioTest::counter_ = 0;

TEST_F(MpiioTest, OpenMissingWithoutCreateFails) {
  EXPECT_THROW(File(*driver_, "/nope", kModeRead), IoError);
}

TEST_F(MpiioTest, WriteAtReadAt) {
  File f(*driver_, "/a", kModeRead | kModeWrite | kModeCreate);
  const Bytes data = to_bytes("0123456789");
  EXPECT_EQ(f.write_at(0, ByteSpan(data.data(), data.size())), 10u);
  Bytes mid(4);
  EXPECT_EQ(f.read_at(3, MutByteSpan(mid.data(), mid.size())), 4u);
  EXPECT_EQ(to_string(ByteSpan(mid.data(), mid.size())), "3456");
  EXPECT_EQ(f.size(), 10u);
  f.close();
}

TEST_F(MpiioTest, FilePointerAdvances) {
  File f(*driver_, "/fp", kModeRead | kModeWrite | kModeCreate);
  const Bytes a = to_bytes("aaa");
  const Bytes b = to_bytes("bbb");
  f.write(ByteSpan(a.data(), a.size()));
  f.write(ByteSpan(b.data(), b.size()));
  f.seek(0, SEEK_SET);
  Bytes all(6);
  EXPECT_EQ(f.read(MutByteSpan(all.data(), all.size())), 6u);
  EXPECT_EQ(to_string(ByteSpan(all.data(), all.size())), "aaabbb");
  f.close();
}

TEST_F(MpiioTest, SeekWhenceForms) {
  File f(*driver_, "/seek", kModeRead | kModeWrite | kModeCreate);
  const Bytes data = to_bytes("0123456789");
  f.write_at(0, ByteSpan(data.data(), data.size()));
  EXPECT_EQ(f.seek(4, SEEK_SET), 4u);
  EXPECT_EQ(f.seek(3, SEEK_CUR), 7u);
  EXPECT_EQ(f.seek(-2, SEEK_END), 8u);
  EXPECT_THROW(f.seek(-100, SEEK_SET), IoError);
  EXPECT_THROW(f.seek(0, 99), IoError);
  f.close();
}

TEST_F(MpiioTest, ShortReadAtEof) {
  File f(*driver_, "/short", kModeRead | kModeWrite | kModeCreate);
  const Bytes data = to_bytes("xy");
  f.write_at(0, ByteSpan(data.data(), data.size()));
  Bytes buf(10);
  EXPECT_EQ(f.read_at(0, MutByteSpan(buf.data(), buf.size())), 2u);
  EXPECT_EQ(f.read_at(5, MutByteSpan(buf.data(), buf.size())), 0u);
  f.close();
}

TEST_F(MpiioTest, TruncMode) {
  {
    File f(*driver_, "/t", kModeWrite | kModeCreate);
    const Bytes data = to_bytes("longcontent");
    f.write_at(0, ByteSpan(data.data(), data.size()));
    f.close();
  }
  File f(*driver_, "/t", kModeRead | kModeWrite | kModeTrunc);
  EXPECT_EQ(f.size(), 0u);
  f.close();
}

TEST_F(MpiioTest, AsyncWriteRead) {
  File f(*driver_, "/async", kModeRead | kModeWrite | kModeCreate);
  Rng rng(1);
  const Bytes data = rng.bytes(128 * 1024);
  IoRequest w = f.iwrite_at(0, ByteSpan(data.data(), data.size()));
  EXPECT_EQ(w.wait(), data.size());
  EXPECT_TRUE(w.test());

  Bytes back(data.size());
  IoRequest r = f.iread_at(0, MutByteSpan(back.data(), back.size()));
  EXPECT_EQ(r.wait(), data.size());
  EXPECT_EQ(back, data);
  f.close();
}

TEST_F(MpiioTest, AsyncFifoOrderOnOverlappingWrites) {
  // FIFO execution means the later write wins on overlapping ranges.
  File f(*driver_, "/fifo", kModeRead | kModeWrite | kModeCreate);
  const Bytes first(1024, 'a');
  const Bytes second(1024, 'b');
  IoRequest w1 = f.iwrite_at(0, ByteSpan(first.data(), first.size()));
  IoRequest w2 = f.iwrite_at(0, ByteSpan(second.data(), second.size()));
  w1.wait();
  w2.wait();
  Bytes back(1024);
  f.read_at(0, MutByteSpan(back.data(), back.size()));
  EXPECT_EQ(back, second);
  f.close();
}

TEST_F(MpiioTest, IwriteAdvancesSharedFilePointer) {
  File f(*driver_, "/ifp", kModeRead | kModeWrite | kModeCreate);
  const Bytes a = to_bytes("AAAA");
  const Bytes b = to_bytes("BBBB");
  IoRequest r1 = f.iwrite(ByteSpan(a.data(), a.size()));
  IoRequest r2 = f.iwrite(ByteSpan(b.data(), b.size()));
  wait_all(&r1, &r1 + 1);
  r2.wait();
  Bytes back(8);
  f.read_at(0, MutByteSpan(back.data(), back.size()));
  EXPECT_EQ(to_string(ByteSpan(back.data(), back.size())), "AAAABBBB");
  f.close();
}

TEST_F(MpiioTest, FlushDrainsQueuedWrites) {
  File f(*driver_, "/drain", kModeRead | kModeWrite | kModeCreate);
  const Bytes data(64 * 1024, 'z');
  std::vector<IoRequest> reqs;
  for (int i = 0; i < 8; ++i)
    reqs.push_back(f.iwrite_at(static_cast<std::uint64_t>(i) * data.size(),
                               ByteSpan(data.data(), data.size())));
  f.flush();
  for (auto& r : reqs) EXPECT_TRUE(r.test());
  EXPECT_EQ(f.size(), 8u * data.size());
  f.close();
}

TEST_F(MpiioTest, CloseWaitsForOutstandingIo) {
  Bytes data(256 * 1024, 'q');
  {
    File f(*driver_, "/closewait", kModeWrite | kModeCreate);
    f.iwrite_at(0, ByteSpan(data.data(), data.size()));
    f.close();  // must complete the queued write
  }
  File f(*driver_, "/closewait", kModeRead);
  EXPECT_EQ(f.size(), data.size());
  f.close();
}

// A driver with only synchronous verbs, all of which fail with a
// classified, retryable transport error.
class FailingHandle final : public adio::FileHandle {
 public:
  std::size_t read_at(std::uint64_t, MutByteSpan) override { throw failure(); }
  std::size_t write_at(std::uint64_t, ByteSpan) override { throw failure(); }
  std::uint64_t size() override { return 0; }

 private:
  static IoError failure() {
    return IoError({ErrorDomain::kTransport, 7, /*retryable=*/true, "send"},
                   "link down");
  }
};

TEST(AdioDefaultAsync, SyncFailureBelongsToTheCompletedRequest) {
  FailingHandle h;
  Bytes buf(16);
  const ExtentList xs{{0, 8}, {32, 8}};
  std::vector<IoRequest> reqs;
  EXPECT_NO_THROW(reqs.push_back(h.iread_at(0, MutByteSpan(buf.data(), 16))));
  EXPECT_NO_THROW(reqs.push_back(h.iwrite_at(0, ByteSpan(buf.data(), 16))));
  EXPECT_NO_THROW(reqs.push_back(h.ireadv(xs, MutByteSpan(buf.data(), 16))));
  EXPECT_NO_THROW(reqs.push_back(h.iwritev(xs, ByteSpan(buf.data(), 16))));
  ASSERT_EQ(reqs.size(), 4u);
  for (IoRequest& r : reqs) {
    EXPECT_TRUE(r.test());  // already complete: no I/O thread behind it
    const Status st = r.error();
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.domain(), ErrorDomain::kTransport);
    EXPECT_EQ(st.code(), 7);
    EXPECT_TRUE(st.retryable());
    EXPECT_EQ(st.message(), "link down");
    EXPECT_THROW(r.wait(), IoError);
  }
}

TEST(IoRequest, EmptyRequestBehaviour) {
  IoRequest r;
  EXPECT_FALSE(r.valid());
  EXPECT_TRUE(r.test());  // vacuously complete
  EXPECT_THROW(r.wait(), IoError);
}

TEST(IoRequest, WaitAllSums) {
  IoRequest a = IoRequest::make();
  IoRequest b = IoRequest::make();
  IoRequest::complete(a.state(), 10);
  IoRequest::complete(b.state(), 32);
  std::vector<IoRequest> reqs = {a, b};
  EXPECT_EQ(wait_all(reqs.begin(), reqs.end()), 42u);
}

TEST(IoRequest, ErrorRethrownOnWait) {
  IoRequest r = IoRequest::make();
  IoRequest::fail(r.state(), std::make_exception_ptr(IoError("boom")));
  EXPECT_TRUE(r.test());
  EXPECT_THROW(r.wait(), IoError);
}

TEST_F(MpiioTest, DriverRemoveAndExists) {
  {
    File f(*driver_, "/victim", kModeWrite | kModeCreate);
    f.close();
  }
  EXPECT_TRUE(driver_->exists("/victim"));
  driver_->remove("/victim");
  EXPECT_FALSE(driver_->exists("/victim"));
}

}  // namespace
}  // namespace remio::mpiio
