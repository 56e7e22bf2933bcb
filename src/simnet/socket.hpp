// Shaped duplex byte-stream connection. Each direction is a Pipe: a bounded
// queue of chunks stamped with a simulated delivery time (propagation
// latency). A send charges, in order, the connection's own window-limited
// bucket (TCP throughput cap = window / RTT — the reason a second stream
// nearly doubles throughput in §7.2) and every shared resource on the path
// (node bus, NIC, uplink / NAT, server NIC).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "simnet/token_bucket.hpp"

namespace remio::simnet {

class FaultInjector;

/// Connection-level failure. Defaults to retryable (drops, resets, refused
/// dials are transient as far as a supervisor is concerned); configuration
/// errors such as an unknown host pass an explicit non-retryable info.
class NetError : public remio::StatusError {
 public:
  explicit NetError(const std::string& what,
                    remio::ErrorInfo info = {remio::ErrorDomain::kTransport, 0,
                                             /*retryable=*/true, {}})
      : StatusError(std::move(info), what) {}
};

namespace detail {

/// One direction of a connection.
class Pipe {
 public:
  explicit Pipe(std::size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// Blocks while the in-flight window is full. Throws NetError if the
  /// receiver has closed.
  void push(Bytes data, double deliver_sim);

  /// Blocks until data is available *and* delivered (per sim clock), the
  /// sender has closed (returns 0 = EOF), or the receiver side is closed.
  std::size_t pop(MutByteSpan out);

  void close_tx();  // sender will write no more (EOF after drain)
  void close_rx();  // receiver gone; unblock and fail senders

  std::size_t buffered() const;

 private:
  struct Chunk {
    Bytes data;
    double deliver_sim;
    std::size_t offset = 0;  // partially consumed front chunk
  };

  mutable std::mutex mu_;
  std::condition_variable cv_rx_;
  std::condition_variable cv_tx_;
  std::vector<Chunk> q_;  // FIFO via index
  std::size_t head_ = 0;
  std::size_t bytes_ = 0;
  std::size_t capacity_;
  bool tx_closed_ = false;
  bool rx_closed_ = false;
};

}  // namespace detail

/// Per-connection shaping parameters, fixed at connect time.
struct ConnShaping {
  double one_way_latency = 0.0;  // simulated seconds
  /// Per-direction throughput cap in bytes/sim-sec (0 = unlimited). For a
  /// TCP stream this is window / RTT.
  double stream_rate = 0.0;
  /// Burst tolerance of the per-stream cap; physically the TCP window (a
  /// sender can emit at most one cwnd before blocking on ACKs).
  double stream_burst = 0.0;
  /// Shared resources charged per chunk, client->server direction.
  std::vector<std::shared_ptr<TokenBucket>> fwd_path;
  /// Shared resources charged per chunk, server->client direction.
  std::vector<std::shared_ptr<TokenBucket>> rev_path;
  std::size_t quantum = 512 * 1024;       // shaping granularity
  std::size_t window_bytes = 4 << 20;     // in-flight buffering per direction
};

class Socket {
 public:
  ~Socket();
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Sends the concatenation of `pieces`, charging shaping resources per
  /// quantum. Each quantum is gathered straight from the pieces into its
  /// pipe chunk (the simulated wire), which is the one copy a send makes;
  /// in-flight corruption flips a bit of that chunk, never of a piece. One
  /// call is one fault draw. Throws NetError if the peer is gone.
  void send_all(std::span<const ByteSpan> pieces);
  void send_all(ByteSpan data) {
    send_all(std::span<const ByteSpan>(&data, 1));
  }

  /// Receives at least one byte (blocking); returns 0 on EOF.
  std::size_t recv_some(MutByteSpan out);

  /// Receives exactly out.size() bytes; returns false on premature EOF.
  bool recv_all(MutByteSpan out);

  /// Half-close for sending; peer sees EOF after draining.
  void shutdown_send();
  void close();

  /// Wires a fault-injection plan into this end of the connection (set by
  /// Fabric::connect when an injector is installed). The `tag` identifies
  /// the connection for targeted kills/bans. With `corrupt_only`, this end
  /// is only subject to bit flips — drops, kills and latency spikes stay
  /// client-side so the established failure semantics don't change; set on
  /// the server socket so *responses* can arrive corrupted too.
  void set_fault(std::shared_ptr<FaultInjector> fault, std::string tag,
                 bool corrupt_only = false);
  const std::string& fault_tag() const { return tag_; }

  std::uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_received() const {
    return bytes_received_.load(std::memory_order_relaxed);
  }
  const std::string& peer() const { return peer_; }

  /// Creates a connected pair (client, server). Applies no connect latency
  /// itself — Fabric::connect sleeps the RTT before calling this.
  static std::pair<std::unique_ptr<Socket>, std::unique_ptr<Socket>> make_pair(
      const ConnShaping& shaping, const std::string& client_name,
      const std::string& server_name);

 private:
  Socket() = default;

  std::shared_ptr<detail::Pipe> tx_;
  std::shared_ptr<detail::Pipe> rx_;
  std::shared_ptr<TokenBucket> stream_cap_;  // this direction's window cap
  std::vector<std::shared_ptr<TokenBucket>> path_;
  double latency_ = 0.0;
  std::size_t quantum_ = 512 * 1024;
  // Counters and the closed flag are atomic: close() may race a peer-side
  // thread parked in recv_some/send_all (e.g. SrbServer::stop force-closing
  // a session socket), and the byte accessors are read cross-thread.
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::string peer_;
  std::shared_ptr<FaultInjector> fault_;
  std::string tag_;
  bool fault_corrupt_only_ = false;
  std::atomic<bool> closed_{false};
};

}  // namespace remio::simnet
