// The fabric's wall-clock-ratio test: two window-limited streams against
// one. It compares two timed runs, so host load (and a sanitizer's slowdown)
// moves the ratio; it carries the `timing` label and runs in the timing
// lane, not under TSan.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "fabric_test.hpp"
#include "simnet/fabric.hpp"
#include "simnet/timescale.hpp"

namespace remio::simnet {
namespace {

TEST_F(FabricTest, TwoStreamsDoubleWindowLimitedThroughput) {
  auto acceptor = fabric_.listen("server", 9);
  ConnectOptions opts;
  opts.tcp_window = 64 * 1024;

  auto run_transfer = [&](int n_streams) {
    std::vector<std::unique_ptr<Socket>> clients;
    std::vector<std::unique_ptr<Socket>> servers;
    for (int i = 0; i < n_streams; ++i) {
      clients.push_back(fabric_.connect("client", "server", 9, opts));
      auto s = acceptor->accept();
      servers.push_back(std::move(*s));
    }
    const std::size_t per_stream = (1u << 20) / static_cast<unsigned>(n_streams);
    std::vector<std::future<void>> senders;
    std::vector<std::future<std::size_t>> readers;
    const double t0 = sim_now();
    for (int i = 0; i < n_streams; ++i) {
      senders.push_back(std::async(std::launch::async, [&, i] {
        Bytes payload(per_stream);
        clients[static_cast<std::size_t>(i)]->send_all(
            ByteSpan(payload.data(), payload.size()));
        clients[static_cast<std::size_t>(i)]->shutdown_send();
      }));
      readers.push_back(std::async(std::launch::async, [&, i] {
        Bytes sink(per_stream);
        std::size_t total = 0;
        while (total < per_stream) {
          const std::size_t n = servers[static_cast<std::size_t>(i)]->recv_some(
              MutByteSpan(sink.data(), per_stream - total));
          if (n == 0) break;
          total += n;
        }
        return total;
      }));
    }
    for (auto& s : senders) s.get();
    std::size_t total = 0;
    for (auto& r : readers) total += r.get();
    EXPECT_EQ(total, 1u << 20);
    return sim_now() - t0;
  };

  // Finer scale for this comparison: transfers last ~30 ms of wall time,
  // well above scheduler jitter.
  ScopedTimeScale fine_scale(100.0);
  const double one = run_transfer(1);
  const double two = run_transfer(2);
  // Same total bytes over twice the aggregate cap: ~2x faster.
  EXPECT_LT(two, one * 0.78);
  acceptor->close();
}

}  // namespace
}  // namespace remio::simnet
