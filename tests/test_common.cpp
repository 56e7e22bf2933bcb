// Unit tests for src/common: bytes codecs, RNG, stats, queue, table, options.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/checksum.hpp"
#include "common/fixed_function.hpp"
#include "common/options.hpp"
#include "common/queue.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace remio {
namespace {

// --- bytes -------------------------------------------------------------------

TEST(Bytes, WriterReaderRoundTrip) {
  Bytes buf;
  ByteWriter w(buf);
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-9000000000LL);
  w.str("hello");
  w.blob(to_bytes("world!"));

  ByteReader r(ByteSpan(buf.data(), buf.size()));
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -9000000000LL);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(to_string(r.blob()), "world!");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bytes, ReaderUnderflowSetsNotOk) {
  Bytes buf;
  ByteWriter w(buf);
  w.u16(7);
  ByteReader r(ByteSpan(buf.data(), buf.size()));
  EXPECT_EQ(r.u16(), 7);
  EXPECT_EQ(r.u32(), 0u);  // underflow
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u64(), 0u);  // stays failed
}

TEST(Bytes, ReaderHostileLengthPrefix) {
  // str length claims 1000 bytes but only 2 are present.
  Bytes buf;
  ByteWriter w(buf);
  w.u32(1000);
  w.raw(to_bytes("ab"));
  ByteReader r(ByteSpan(buf.data(), buf.size()));
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, Fnv1aKnownVector) {
  // FNV-1a("") is the offset basis; "a" is a standard vector.
  EXPECT_EQ(fnv1a(ByteSpan()), 14695981039346656037ULL);
  const Bytes a = to_bytes("a");
  EXPECT_EQ(fnv1a(ByteSpan(a.data(), a.size())), 12638187200555641996ULL);
}

TEST(Bytes, FnvDiffersOnContent) {
  const Bytes x = to_bytes("abc");
  const Bytes y = to_bytes("abd");
  EXPECT_NE(fnv1a(ByteSpan(x.data(), x.size())), fnv1a(ByteSpan(y.data(), y.size())));
}

// --- rng ----------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto v = r.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng r(9);
  bool seen[10] = {};
  for (int i = 0; i < 1000; ++i) seen[r.below(10)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

// --- stats ----------------------------------------------------------------------

TEST(Stats, OnlineMeanVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Stats, Percentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

// --- queue ----------------------------------------------------------------------

TEST(Queue, FifoOrder) {
  BoundedQueue<int> q;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.push(i));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.pop().value(), i);
}

TEST(Queue, CloseDrainsThenEmpty) {
  BoundedQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(Queue, BoundedBlocksProducerUntilConsumed) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  std::thread consumer([&] { EXPECT_EQ(q.pop().value(), 1); });
  EXPECT_TRUE(q.push(3));  // unblocks once the consumer pops
  consumer.join();
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
}

TEST(Queue, ConcurrentProducersConsumers) {
  BoundedQueue<int> q(64);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<long long> sum{0};
  std::atomic<int> count{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p)
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  for (int c = 0; c < 3; ++c)
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum += *v;
        ++count;
      }
    });
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  q.close();
  for (std::size_t i = kProducers; i < threads.size(); ++i) threads[i].join();

  const long long n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// --- fixed_function ---------------------------------------------------------

TEST(FixedFunction, InvokesAndReportsEngaged) {
  FixedFunction<int(int)> f([](int x) { return x + 1; });
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(41), 42);
  FixedFunction<int(int)> empty;
  EXPECT_FALSE(static_cast<bool>(empty));
}

TEST(FixedFunction, MoveTransfersStateAndSourceEmpties) {
  int calls = 0;
  FixedFunction<void()> a([&calls] { ++calls; });
  FixedFunction<void()> b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(calls, 1);
  FixedFunction<void()> c;
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

TEST(FixedFunction, MoveOnlyCapturesWork) {
  // std::function would reject this lambda (copyable requirement); owning
  // task buffers is the whole point of the engine's switch.
  auto buf = std::make_unique<int>(7);
  FixedFunction<int()> f([b = std::move(buf)] { return *b; });
  EXPECT_EQ(f(), 7);
}

TEST(FixedFunction, LargeCapturesSpillToHeapAndStillDestroy) {
  struct Big {
    std::shared_ptr<int> token;
    char pad[256];  // far over any inline budget
  };
  auto token = std::make_shared<int>(1);
  {
    Big big;
    big.token = token;
    FixedFunction<int()> f([big] { return *big.token; });
    EXPECT_EQ(f(), 1);
    FixedFunction<int()> g(std::move(f));
    EXPECT_EQ(g(), 1);
    // original + the local `big` + the capture inside g (the moved-out f
    // holds nothing: the heap callable was transplanted, not copied)
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);  // destroying g released the capture
}

TEST(FixedFunction, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(0);
  {
    FixedFunction<void()> f([token] { });
    EXPECT_EQ(token.use_count(), 2);
    f.reset();
    EXPECT_EQ(token.use_count(), 1);
    f.reset();  // idempotent
  }
  EXPECT_EQ(token.use_count(), 1);
}

// --- table ----------------------------------------------------------------------

TEST(Table, TextAndCsv) {
  Table t({"x", "value"});
  t.add_row({"1", Table::num(3.14159, 2)});
  t.add_row({"20", "b"});
  const std::string text = t.to_text();
  EXPECT_NE(text.find("x"), std::string::npos);
  EXPECT_NE(text.find("3.14"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "x,value\n1,3.14\n20,b\n");
}

// --- options ---------------------------------------------------------------------

TEST(Options, ParsesAllForms) {
  // Note: a bare "--flag" would swallow a following positional as its
  // value (documented grammar), so positionals come first here.
  const char* argv[] = {"prog",          "positional", "--a=1",
                        "--b",           "2",          "--list=1,2,3",
                        "--flag"};
  Options o = Options::parse(7, const_cast<char**>(argv));
  EXPECT_EQ(o.get_int("a", 0), 1);
  EXPECT_EQ(o.get_int("b", 0), 2);
  EXPECT_TRUE(o.get_bool("flag", false));
  EXPECT_FALSE(o.get_bool("missing", false));
  EXPECT_EQ(o.get("missing", "d"), "d");
  const auto list = o.get_int_list("list", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[2], 3);
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "positional");
}

TEST(Options, DoubleAndDefaults) {
  const char* argv[] = {"prog", "--scale=2.5"};
  Options o = Options::parse(2, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(o.get_double("scale", 1.0), 2.5);
  EXPECT_DOUBLE_EQ(o.get_double("other", 7.0), 7.0);
  const auto def = o.get_int_list("procs", {2, 4});
  EXPECT_EQ(def.size(), 2u);
}

// --- crc32c ------------------------------------------------------------------

TEST(Crc32c, KnownAnswers) {
  // The canonical CRC-32C check value (RFC 3720 / Castagnoli).
  const char* nine = "123456789";
  EXPECT_EQ(crc32c(ByteSpan(nine, 9)), 0xE3069283u);
  // Empty input maps to 0 under init ~0 / final-xor ~0.
  EXPECT_EQ(crc32c(ByteSpan()), 0u);
  // iSCSI test vector: 32 zero bytes.
  const Bytes zeros(32, 0);
  EXPECT_EQ(crc32c(ByteSpan(zeros.data(), zeros.size())), 0x8A9136AAu);
  // iSCSI test vector: 32 bytes of 0xFF.
  const Bytes ffs(32, static_cast<char>(0xFF));
  EXPECT_EQ(crc32c(ByteSpan(ffs.data(), ffs.size())), 0x62A8AB43u);
  // iSCSI test vector: bytes 0x00..0x1F ascending.
  Bytes asc(32);
  for (int i = 0; i < 32; ++i) asc[static_cast<std::size_t>(i)] = static_cast<char>(i);
  EXPECT_EQ(crc32c(ByteSpan(asc.data(), asc.size())), 0x46DD794Eu);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  Rng rng(0xc5c5c5c5u);
  Bytes data(100000);
  for (auto& b : data) b = static_cast<char>(rng.next());
  const std::uint32_t whole = crc32c(ByteSpan(data.data(), data.size()));

  // Streaming via the Crc32c class over arbitrary chunking.
  Crc32c inc;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.next() % 4097, data.size() - pos);
    inc.update(ByteSpan(data.data() + pos, n));
    pos += n;
  }
  EXPECT_EQ(inc.value(), whole);

  // Seed-chaining: crc(a||b) == crc(b, crc(a)).
  const std::size_t split = data.size() / 3;
  const std::uint32_t a = crc32c(ByteSpan(data.data(), split));
  EXPECT_EQ(crc32c(ByteSpan(data.data() + split, data.size() - split), a),
            whole);
}

TEST(Crc32c, DetectsEverySingleBitFlipInSmallBuffer) {
  // CRC32C guarantees detection of any single-bit error; exhaustive over a
  // small buffer as a sanity pin on the table generation.
  Bytes data = to_bytes("asynchronous remote I/O");
  const std::uint32_t good = crc32c(ByteSpan(data.data(), data.size()));
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<char>(1 << bit);
      EXPECT_NE(crc32c(ByteSpan(data.data(), data.size())), good);
      data[byte] ^= static_cast<char>(1 << bit);
    }
  }
  EXPECT_EQ(crc32c(ByteSpan(data.data(), data.size())), good);
}

TEST(Crc32c, AlignmentInsensitive) {
  // The sliced implementation has distinct head/body/tail paths; the result
  // must not depend on where the bytes sit relative to an 8-byte boundary.
  Bytes raw(4096);
  Rng rng(0xa11a11u);
  for (auto& b : raw) b = static_cast<char>(rng.next());
  const std::uint32_t ref = crc32c(ByteSpan(raw.data(), raw.size()));
  Bytes padded(raw.size() + 8);
  for (std::size_t shift = 1; shift < 8; ++shift) {
    std::copy(raw.begin(), raw.end(),
              padded.begin() + static_cast<std::ptrdiff_t>(shift));
    EXPECT_EQ(crc32c(ByteSpan(padded.data() + shift, raw.size())), ref);
  }
}

}  // namespace
}  // namespace remio
