// Tests for the simulated network: time scaling, token-bucket conformance,
// shaped sockets, per-connection window caps, shared bottlenecks, fabric
// routing and connection lifecycle.
#include <gtest/gtest.h>

#include <future>
#include <numeric>
#include <set>
#include <thread>

#include "common/rng.hpp"
#include "fabric_test.hpp"
#include "simnet/fabric.hpp"
#include "simnet/faults.hpp"
#include "simnet/timescale.hpp"
#include "simnet/token_bucket.hpp"

namespace remio::simnet {
namespace {

constexpr double kScale = 200.0;  // fast tests, ~coarse tolerances

TEST(TimeScale, SimClockAdvancesScaled) {
  ScopedTimeScale scale(kScale);
  const double t0 = sim_now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double dt = sim_now() - t0;
  EXPECT_GT(dt, 0.02 * kScale * 0.5);
  EXPECT_LT(dt, 0.02 * kScale * 4.0);
}

TEST(TimeScale, SleepSimMatchesClock) {
  ScopedTimeScale scale(kScale);
  const double t0 = sim_now();
  sleep_sim(2.0);  // 2 sim seconds = 10 ms wall
  const double dt = sim_now() - t0;
  EXPECT_GE(dt, 2.0 * 0.8);
  EXPECT_LT(dt, 2.0 * 3.0);
}

TEST(TimeScale, ContinuityAcrossScaleChange) {
  const double before = sim_now();
  ScopedTimeScale scale(kScale);
  const double after = sim_now();
  EXPECT_GE(after, before - 1e-6);  // never jumps backwards
}

TEST(TokenBucket, UnlimitedNeverBlocks) {
  ScopedTimeScale scale(kScale);
  TokenBucket tb(0.0);
  const double t0 = sim_now();
  tb.acquire(100u << 20);
  EXPECT_LT(sim_now() - t0, 1.0);
}

TEST(TokenBucket, RateConformance) {
  ScopedTimeScale scale(kScale);
  TokenBucket tb(1e6, 64 * 1024);  // 1 MB/sim-s
  // Drain the initial burst, then measure steady state.
  tb.acquire(64 * 1024);
  const double t0 = sim_now();
  const std::size_t chunk = 64 * 1024;
  const int chunks = 32;  // 2 MiB total -> ~2.1 sim-s
  for (int i = 0; i < chunks; ++i) tb.acquire(chunk);
  const double dt = sim_now() - t0;
  const double expected = static_cast<double>(chunk) * chunks / 1e6;
  // Wide envelope: the expected wall time here is ~10 ms and host
  // scheduling stalls of a few ms are routine on a loaded single core.
  EXPECT_GT(dt, expected * 0.5);
  EXPECT_LT(dt, expected * 3.0);
}

TEST(TokenBucket, SharedFairlyBetweenTwoConsumers) {
  ScopedTimeScale scale(50.0);  // ~40 ms wall: jitter-immune
  TokenBucket tb(1e6, 64 * 1024);
  tb.acquire(64 * 1024);  // drain burst
  auto consume = [&](std::size_t total) {
    const double t0 = sim_now();
    for (std::size_t got = 0; got < total; got += 32 * 1024) tb.acquire(32 * 1024);
    return sim_now() - t0;
  };
  auto f1 = std::async(std::launch::async, consume, std::size_t{1} << 20);
  auto f2 = std::async(std::launch::async, consume, std::size_t{1} << 20);
  const double d1 = f1.get();
  const double d2 = f2.get();
  // 2 MiB total through a 1 MB/s bucket: both finish near 2.1 sim-s.
  EXPECT_GT(std::min(d1, d2), 1.2);
  EXPECT_LT(std::max(d1, d2), 4.5);
}

TEST(TokenBucket, ConsumedAccounting) {
  ScopedTimeScale scale(kScale);
  TokenBucket tb(1e7);
  tb.acquire(1000);
  tb.acquire(234);
  EXPECT_EQ(tb.consumed(), 1234u);
}

TEST(TokenBucket, ContentionPenaltyNeedsTwoClasses) {
  ScopedTimeScale scale(50.0);  // ~10 ms wall per measured phase
  TokenBucket tb(1e6, 64 * 1024);
  tb.set_contention(0.25, /*window_sim=*/5.0);
  tb.acquire(64 * 1024, 1);  // drain burst; only class 1 active

  // Single class: full rate.
  double t0 = sim_now();
  for (int i = 0; i < 8; ++i) tb.acquire(64 * 1024, 1);
  const double single = sim_now() - t0;
  EXPECT_LT(single, 1.2);  // ~0.52 sim-s at 1 MB/s

  // Touch class 2: rate collapses to 0.25x while both are in-window.
  tb.acquire(1024, 2);
  t0 = sim_now();
  for (int i = 0; i < 8; ++i) tb.acquire(64 * 1024, 1);
  const double contended = sim_now() - t0;
  EXPECT_GT(contended, single * 2.0);
}

TEST(TokenBucket, ContentionExpiresAfterWindow) {
  ScopedTimeScale scale(kScale);
  TokenBucket tb(1e6, 64 * 1024);
  tb.set_contention(0.25, /*window_sim=*/0.2);
  tb.acquire(64 * 1024, 1);
  tb.acquire(1024, 2);   // second class appears...
  sleep_sim(1.0);        // ...and ages out of the window
  const double t0 = sim_now();
  for (int i = 0; i < 8; ++i) tb.acquire(64 * 1024, 1);
  EXPECT_LT(sim_now() - t0, 1.2);  // back to full rate
}

TEST(TokenBucket, OversizedAcquirePaysInstallments) {
  ScopedTimeScale scale(kScale);
  TokenBucket tb(1e6, 64 * 1024);  // burst far below the request
  tb.acquire(64 * 1024);           // drain initial credit
  const double t0 = sim_now();
  tb.acquire(512 * 1024);  // 8 bursts' worth
  const double dt = sim_now() - t0;
  // Must wait for ~the full amount at rate, not ride the burst.
  EXPECT_GT(dt, 0.25);
  EXPECT_LT(dt, 3.0);
}

TEST(TokenBucket, TryAcquirePartial) {
  ScopedTimeScale scale(kScale);
  TokenBucket tb(1e6, 64 * 1024);
  const std::uint64_t got = tb.try_acquire(1u << 20);
  EXPECT_LE(got, 64u * 1024u);
  EXPECT_GT(got, 0u);
}

// --- fabric + sockets ----------------------------------------------------------

TEST_F(FabricTest, ConnectRefusedWithoutListener) {
  EXPECT_THROW(fabric_.connect("client", "server", 9), NetError);
}

TEST_F(FabricTest, ConnectUnknownHostThrows) {
  EXPECT_THROW(fabric_.connect("nope", "server", 9), NetError);
  EXPECT_THROW(fabric_.connect("client", "nope", 9), NetError);
}

TEST_F(FabricTest, LatencyIsSummed) {
  EXPECT_DOUBLE_EQ(fabric_.latency("client", "server"), 0.1);
}

TEST_F(FabricTest, ConnectCostsOneRtt) {
  auto acceptor = fabric_.listen("server", 9);
  const double t0 = sim_now();
  auto sock = fabric_.connect("client", "server", 9);
  const double dt = sim_now() - t0;
  EXPECT_GE(dt, 0.2 * 0.8);  // RTT = 0.2 sim-s
  EXPECT_LT(dt, 0.2 * 3.0);
  acceptor->close();
}

TEST_F(FabricTest, DataRoundTrip) {
  auto acceptor = fabric_.listen("server", 9);
  auto echo = std::async(std::launch::async, [&] {
    auto server_sock = acceptor->accept();
    ASSERT_TRUE(server_sock.has_value());
    Bytes buf(5);
    ASSERT_TRUE((*server_sock)->recv_all(MutByteSpan(buf.data(), buf.size())));
    (*server_sock)->send_all(ByteSpan(buf.data(), buf.size()));
    (*server_sock)->close();
  });

  auto client = fabric_.connect("client", "server", 9);
  const Bytes msg = to_bytes("hello");
  client->send_all(ByteSpan(msg.data(), msg.size()));
  Bytes back(5);
  EXPECT_TRUE(client->recv_all(MutByteSpan(back.data(), back.size())));
  EXPECT_EQ(to_string(ByteSpan(back.data(), back.size())), "hello");
  echo.get();
}

TEST_F(FabricTest, OneWayLatencyAppliedToData) {
  auto acceptor = fabric_.listen("server", 9);
  auto client = fabric_.connect("client", "server", 9);
  auto server_sock = acceptor->accept();
  ASSERT_TRUE(server_sock.has_value());

  const double t0 = sim_now();
  const Bytes b = to_bytes("x");
  client->send_all(ByteSpan(b.data(), b.size()));
  Bytes got(1);
  ASSERT_TRUE((*server_sock)->recv_all(MutByteSpan(got.data(), got.size())));
  const double dt = sim_now() - t0;
  EXPECT_GE(dt, 0.1 * 0.7);  // one-way = 0.1 sim-s
  // Generous upper bound: at this scale 0.1 sim-s is only 0.5 ms of wall
  // time, so scheduling jitter can multiply it.
  EXPECT_LT(dt, 0.1 * 12.0);
}

TEST_F(FabricTest, WindowCapLimitsThroughput) {
  ScopedTimeScale fine_scale(100.0);  // ~32 ms wall transfer: jitter-immune
  auto acceptor = fabric_.listen("server", 9);
  ConnectOptions opts;
  opts.tcp_window = 64 * 1024;  // / RTT 0.2 -> 320 KB/sim-s
  auto client = fabric_.connect("client", "server", 9, opts);
  auto server_sock = acceptor->accept();
  ASSERT_TRUE(server_sock.has_value());

  auto reader = std::async(std::launch::async, [&] {
    Bytes sink(1 << 20);
    std::size_t total = 0;
    while (total < sink.size()) {
      const std::size_t n =
          (*server_sock)->recv_some(MutByteSpan(sink.data(), sink.size() - total));
      if (n == 0) break;
      total += n;
    }
    return total;
  });

  Bytes payload(1 << 20);  // 1 MiB at 320 KB/s ~ 3.2 sim-s
  const double t0 = sim_now();
  client->send_all(ByteSpan(payload.data(), payload.size()));
  client->shutdown_send();
  EXPECT_EQ(reader.get(), payload.size());
  const double dt = sim_now() - t0;
  EXPECT_GT(dt, 1.8);
  EXPECT_LT(dt, 9.0);
}

TEST_F(FabricTest, SharedPathResourceThrottlesBothStreams) {
  // Rebuild the client host with a shared 200 KB/s egress bucket.
  auto bottleneck = std::make_shared<TokenBucket>(200e3, 64 * 1024);
  HostSpec client;
  client.name = "client";
  client.latency_to_core = 0.05;
  client.egress = {bottleneck};
  fabric_.add_host(client);

  auto acceptor = fabric_.listen("server", 9);
  ConnectOptions opts;
  opts.tcp_window = 0;  // no per-stream cap: the shared bucket dominates

  auto c1 = fabric_.connect("client", "server", 9, opts);
  auto c2 = fabric_.connect("client", "server", 9, opts);
  auto s1 = acceptor->accept();
  auto s2 = acceptor->accept();

  auto pump = [&](Socket& tx, Socket& rx, std::size_t bytes) {
    auto reader = std::async(std::launch::async, [&rx, bytes] {
      Bytes sink(bytes);
      std::size_t total = 0;
      while (total < bytes) {
        const std::size_t n = rx.recv_some(MutByteSpan(sink.data(), bytes - total));
        if (n == 0) break;
        total += n;
      }
    });
    Bytes payload(bytes);
    tx.send_all(ByteSpan(payload.data(), payload.size()));
    tx.shutdown_send();
    reader.get();
  };

  const double t0 = sim_now();
  auto f1 = std::async(std::launch::async, [&] { pump(*c1, **s1, 256 * 1024); });
  auto f2 = std::async(std::launch::async, [&] { pump(*c2, **s2, 256 * 1024); });
  f1.get();
  f2.get();
  const double dt = sim_now() - t0;
  // 512 KiB through 200 KB/s shared: >= ~2 sim-s even with burst credit.
  EXPECT_GT(dt, 1.4);
}

TEST_F(FabricTest, EofAfterShutdown) {
  auto acceptor = fabric_.listen("server", 9);
  auto client = fabric_.connect("client", "server", 9);
  auto server_sock = acceptor->accept();
  const Bytes b = to_bytes("bye");
  client->send_all(ByteSpan(b.data(), b.size()));
  client->shutdown_send();
  Bytes got(3);
  EXPECT_TRUE((*server_sock)->recv_all(MutByteSpan(got.data(), got.size())));
  char extra;
  EXPECT_EQ((*server_sock)->recv_some(MutByteSpan(&extra, 1)), 0u);  // EOF
}

TEST_F(FabricTest, SendAfterPeerCloseThrows) {
  auto acceptor = fabric_.listen("server", 9);
  auto client = fabric_.connect("client", "server", 9);
  auto server_sock = acceptor->accept();
  (*server_sock)->close();
  const Bytes big(256 * 1024);
  EXPECT_THROW(
      {
        for (int i = 0; i < 64; ++i) client->send_all(ByteSpan(big.data(), big.size()));
      },
      NetError);
}

TEST_F(FabricTest, AcceptorCloseUnblocksAccept) {
  auto acceptor = fabric_.listen("server", 9);
  auto waiter = std::async(std::launch::async, [&] { return acceptor->accept(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  acceptor->close();
  EXPECT_FALSE(waiter.get().has_value());
}

TEST_F(FabricTest, ManyConcurrentConnections) {
  auto acceptor = fabric_.listen("server", 9);
  constexpr int kConns = 16;
  auto server_side = std::async(std::launch::async, [&] {
    std::vector<std::unique_ptr<Socket>> socks;
    for (int i = 0; i < kConns; ++i) {
      auto s = acceptor->accept();
      if (!s) break;
      socks.push_back(std::move(*s));
    }
    std::size_t total = 0;
    for (auto& s : socks) {
      Bytes b(8);
      if (s->recv_all(MutByteSpan(b.data(), b.size()))) total += b.size();
    }
    return total;
  });

  std::vector<std::future<void>> dialers;
  for (int i = 0; i < kConns; ++i)
    dialers.push_back(std::async(std::launch::async, [&] {
      auto c = fabric_.connect("client", "server", 9);
      const Bytes b(8, 'z');
      c->send_all(ByteSpan(b.data(), b.size()));
      c->shutdown_send();
      // Keep the socket alive until the payload is consumed.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }));
  for (auto& d : dialers) d.get();
  EXPECT_EQ(server_side.get(), static_cast<std::size_t>(kConns) * 8);
}

TEST_F(FabricTest, DataIntegrityUnderShaping) {
  auto acceptor = fabric_.listen("server", 9);
  ConnectOptions opts;
  opts.tcp_window = 128 * 1024;
  opts.quantum = 8 * 1024;
  auto client = fabric_.connect("client", "server", 9, opts);
  auto server_sock = acceptor->accept();

  Rng rng(99);
  const Bytes payload = rng.bytes(300 * 1024 + 37);
  auto reader = std::async(std::launch::async, [&]() -> Bytes {
    Bytes sink(payload.size());
    std::size_t total = 0;
    while (total < sink.size()) {
      const std::size_t n = (*server_sock)
                                ->recv_some(MutByteSpan(sink.data() + total,
                                                        sink.size() - total));
      if (n == 0) break;
      total += n;
    }
    sink.resize(total);
    return sink;
  });
  client->send_all(ByteSpan(payload.data(), payload.size()));
  client->shutdown_send();
  EXPECT_EQ(reader.get(), payload);
}

// --- gather sends ----------------------------------------------------------------

/// An unshaped connected pair with a 1 KiB quantum, so a few KiB span
/// several pipe chunks.
std::pair<std::unique_ptr<Socket>, std::unique_ptr<Socket>> small_quantum_pair() {
  ConnShaping shaping;
  shaping.quantum = 1024;
  return Socket::make_pair(shaping, "client", "server");
}

TEST(GatherSend, SpanningThreeQuantaDeliversTheConcatenation) {
  auto [tx, rx] = small_quantum_pair();
  Rng rng(7);
  // Piece boundaries fall inside and across quanta; one piece is empty.
  const std::vector<Bytes> parts = {rng.bytes(5), rng.bytes(1500), Bytes{},
                                    rng.bytes(1200), rng.bytes(300)};
  std::vector<ByteSpan> pieces;
  Bytes expected;
  for (const Bytes& p : parts) {
    pieces.emplace_back(p.data(), p.size());
    expected.insert(expected.end(), p.begin(), p.end());
  }
  ASSERT_GT(expected.size(), 2u * 1024);
  ASSERT_LE(expected.size(), 3u * 1024);
  tx->send_all(pieces);
  EXPECT_EQ(tx->bytes_sent(), expected.size());
  Bytes got(expected.size());
  ASSERT_TRUE(rx->recv_all(MutByteSpan(got.data(), got.size())));
  EXPECT_EQ(got, expected);
}

TEST(GatherSend, CorruptionFlipsOneDeliveredBitAndNoSenderPiece) {
  auto fault = std::make_shared<FaultInjector>();
  fault->set_corrupt_probability(1.0);
  auto [tx, rx] = small_quantum_pair();
  tx->set_fault(fault, "client", /*corrupt_only=*/true);
  Rng rng(11);
  const std::vector<Bytes> parts = {rng.bytes(4), rng.bytes(2000),
                                    rng.bytes(1000)};
  const std::vector<Bytes> originals = parts;
  std::vector<ByteSpan> pieces;
  Bytes sent;
  for (const Bytes& p : parts) {
    pieces.emplace_back(p.data(), p.size());
    sent.insert(sent.end(), p.begin(), p.end());
  }
  // Each send draws its own flip position: run enough to land flips in
  // every chunk of the three-quantum frame.
  std::set<std::size_t> chunks_hit;
  for (int round = 0; round < 32; ++round) {
    tx->send_all(pieces);
    Bytes got(sent.size());
    ASSERT_TRUE(rx->recv_all(MutByteSpan(got.data(), got.size())));
    int differing_bits = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const auto diff = static_cast<unsigned char>(got[i] ^ sent[i]);
      if (diff == 0) continue;
      EXPECT_GE(i, 4u) << "the length prefix was hit";
      differing_bits += __builtin_popcount(diff);
      chunks_hit.insert(i / 1024);
    }
    EXPECT_EQ(differing_bits, 1) << "round " << round;
    EXPECT_EQ(parts, originals) << "a sender piece was modified";
  }
  EXPECT_EQ(chunks_hit.size(), 3u);
  EXPECT_EQ(fault->corruptions(), 32u);
}

}  // namespace
}  // namespace remio::simnet
