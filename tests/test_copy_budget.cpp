// Heap bytes allocated per application byte on the bulk data path: a
// warmed-up SrbClient against an in-process SrbServer on an unshaped fabric.
// This binary replaces the global operator new/delete to count every heap
// byte any thread allocates, so a scratch buffer reintroduced anywhere
// between the application and the store shows up as a budget overrun.
//
// The one allocation a transfer must make is the pipe chunk: the simulated
// wire owns its bytes in flight (simnet::Socket::send_all). Everything else
// (request heads, reply decode, the broker's frame and reply buffers) is
// reused, so a warmed-up transfer allocates its own size once, plus the
// frame headers and the small request/reply frames: at most 1.05 B per B.
// A SemplarFile hull read lands its hull in a buffer its thread reuses, so
// it is held to the same budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "common/extent.hpp"
#include "core/srbfs.hpp"
#include "simnet/fabric.hpp"
#include "srb/client.hpp"
#include "srb/server.hpp"

namespace {

std::atomic<std::uint64_t> g_heap_bytes{0};

void* counted_alloc(std::size_t n) {
  g_heap_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_heap_bytes.fetch_add(n, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace remio::srb {
namespace {

constexpr std::size_t kBulk = 512 * 1024;   // one bulk1m stripe
constexpr std::size_t kExtents = 64;        // list verbs: 64 x 8 KiB
constexpr std::size_t kExtentLen = 8 * 1024;
constexpr int kWarmup = 4;
constexpr int kMeasured = 16;
constexpr double kBudget = 1.05;  // the pipe chunk, plus headers

class CopyBudgetTest : public ::testing::Test {
 protected:
  CopyBudgetTest() {
    simnet::HostSpec server;
    server.name = "orion";
    fabric_.add_host(server);
    simnet::HostSpec client;
    client.name = "node0";
    fabric_.add_host(client);
    server_ = std::make_unique<SrbServer>(fabric_, ServerConfig{});
    server_->start();
    simnet::ConnectOptions opts;
    opts.tcp_window = 0;  // unshaped: no per-stream cap
    client_ = std::make_unique<SrbClient>(fabric_, "node0", "orion", 5544, opts);
    fd_ = client_->open("/budget", kRead | kWrite | kCreate);
    data_.resize(kBulk);
    for (std::size_t i = 0; i < data_.size(); ++i)
      data_[i] = static_cast<char>(i * 131 + 7);
    back_.resize(kBulk);
    // Every other 8 KiB block of the first 1 MiB: sorted, with holes.
    for (std::size_t i = 0; i < kExtents; ++i)
      extents_.push_back({2 * i * kExtentLen, kExtentLen});
  }

  ~CopyBudgetTest() override {
    client_.reset();
    server_->stop();
    fabric_.shutdown();
  }

  /// Heap bytes allocated per application byte over kMeasured calls of
  /// `op`, each moving `bytes`, after kWarmup calls that size every reused
  /// buffer.
  template <class Op>
  double heap_bytes_per_byte(const char* row, std::size_t bytes, Op op) {
    for (int i = 0; i < kWarmup; ++i) op();
    const std::uint64_t before = g_heap_bytes.load();
    for (int i = 0; i < kMeasured; ++i) op();
    const std::uint64_t spent = g_heap_bytes.load() - before;
    const double per_byte =
        static_cast<double>(spent) / (static_cast<double>(bytes) * kMeasured);
    std::printf("  %-20s %.4f heap B per application B\n", row, per_byte);
    return per_byte;
  }

  simnet::Fabric fabric_;
  std::unique_ptr<SrbServer> server_;
  std::unique_ptr<SrbClient> client_;
  std::int32_t fd_ = -1;
  Bytes data_;
  Bytes back_;
  ExtentList extents_;
};

TEST_F(CopyBudgetTest, PlainVerbsAllocateOnlyThePipeChunk) {
  const double write = heap_bytes_per_byte("pwrite 512 KiB", kBulk, [&] {
    ASSERT_EQ(client_->pwrite(fd_, ByteSpan(data_.data(), kBulk), 0), kBulk);
  });
  const double read = heap_bytes_per_byte("pread 512 KiB", kBulk, [&] {
    ASSERT_EQ(client_->pread(fd_, MutByteSpan(back_.data(), kBulk), 0), kBulk);
  });
  EXPECT_EQ(back_, data_);
  EXPECT_LE(write, kBudget);
  EXPECT_LE(read, kBudget);
}

TEST_F(CopyBudgetTest, ListVerbsAllocateOnlyThePipeChunk) {
  const std::size_t packed = kExtents * kExtentLen;
  const double write = heap_bytes_per_byte("pwritev 64 x 8 KiB", packed, [&] {
    ASSERT_EQ(client_->pwritev(fd_, extents_, ByteSpan(data_.data(), packed)),
              packed);
  });
  const double read = heap_bytes_per_byte("preadv 64 x 8 KiB", packed, [&] {
    ASSERT_EQ(client_->preadv(fd_, extents_, MutByteSpan(back_.data(), packed)),
              packed);
  });
  EXPECT_EQ(back_, data_);
  EXPECT_LE(write, kBudget);
  EXPECT_LE(read, kBudget);
}

TEST_F(CopyBudgetTest, HullReadvAllocatesOnlyThePipeChunk) {
  // 64 extents of 8 KiB - 16 B every 8 KiB: holes of 16 B per extent, so
  // SemplarFile::readv fetches the 512 KiB hull in one read and scatters it.
  semplar::Config cfg;
  cfg.client_host = "node0";
  cfg.conn.tcp_window = 0;
  semplar::SemplarFile f(fabric_, cfg, "/budget-hull",
                         mpiio::kModeRead | mpiio::kModeWrite |
                             mpiio::kModeCreate);
  ASSERT_EQ(f.write_at(0, ByteSpan(data_.data(), kBulk)), kBulk);
  ExtentList dense;
  for (std::size_t i = 0; i < kExtents; ++i)
    dense.push_back({i * kExtentLen, kExtentLen - 16});
  const std::size_t packed = kExtents * (kExtentLen - 16);
  const double read = heap_bytes_per_byte("hull readv 512 KiB", packed, [&] {
    ASSERT_EQ(f.readv(dense, MutByteSpan(back_.data(), packed)), packed);
  });
  for (std::size_t i = 0; i < kExtents; ++i)
    ASSERT_TRUE(std::equal(data_.begin() + static_cast<std::ptrdiff_t>(
                                               i * kExtentLen),
                           data_.begin() + static_cast<std::ptrdiff_t>(
                                               (i + 1) * kExtentLen - 16),
                           back_.begin() + static_cast<std::ptrdiff_t>(
                                               i * (kExtentLen - 16))))
        << "extent " << i;
  EXPECT_LE(read, kBudget);
}

}  // namespace
}  // namespace remio::srb
