#include "simnet/socket.hpp"

#include <algorithm>

#include "simnet/faults.hpp"
#include "simnet/timescale.hpp"

namespace remio::simnet {
namespace detail {

void Pipe::push(Bytes data, double deliver_sim) {
  std::unique_lock lk(mu_);
  cv_tx_.wait(lk, [&] { return rx_closed_ || bytes_ + data.size() <= capacity_; });
  if (rx_closed_) throw NetError("send on closed connection");
  bytes_ += data.size();
  q_.push_back(Chunk{std::move(data), deliver_sim});
  cv_rx_.notify_one();
}

std::size_t Pipe::pop(MutByteSpan out) {
  std::unique_lock lk(mu_);
  for (;;) {
    if (rx_closed_) throw NetError("recv on closed socket");
    if (head_ < q_.size()) {
      Chunk& front = q_[head_];
      const double now = sim_now();
      if (now + 1e-12 >= front.deliver_sim) break;
      cv_rx_.wait_until(lk, wall_deadline(front.deliver_sim));
      continue;
    }
    if (tx_closed_) return 0;  // EOF
    cv_rx_.wait(lk);
  }

  // Drain as many delivered chunks as fit in `out`.
  std::size_t copied = 0;
  const double now = sim_now();
  while (copied < out.size() && head_ < q_.size()) {
    Chunk& front = q_[head_];
    if (now + 1e-12 < front.deliver_sim) break;
    const std::size_t avail = front.data.size() - front.offset;
    const std::size_t n = std::min(avail, out.size() - copied);
    std::copy_n(front.data.data() + front.offset, n, out.data() + copied);
    copied += n;
    front.offset += n;
    bytes_ -= n;
    if (front.offset == front.data.size()) {
      front.data = Bytes();  // free the chunk now, not at the next compaction
      ++head_;
      if (head_ > 64 && head_ * 2 > q_.size()) {
        q_.erase(q_.begin(), q_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
      }
    }
  }
  cv_tx_.notify_all();
  return copied;
}

void Pipe::close_tx() {
  std::lock_guard lk(mu_);
  tx_closed_ = true;
  cv_rx_.notify_all();
}

void Pipe::close_rx() {
  std::lock_guard lk(mu_);
  rx_closed_ = true;
  cv_rx_.notify_all();
  cv_tx_.notify_all();
}

std::size_t Pipe::buffered() const {
  std::lock_guard lk(mu_);
  return bytes_;
}

}  // namespace detail

Socket::~Socket() { close(); }

void Socket::set_fault(std::shared_ptr<FaultInjector> fault, std::string tag,
                       bool corrupt_only) {
  fault_ = std::move(fault);
  tag_ = std::move(tag);
  fault_corrupt_only_ = corrupt_only;
}

void Socket::send_all(std::span<const ByteSpan> pieces) {
  if (closed_.load(std::memory_order_acquire))
    throw NetError("send on closed socket");
  std::size_t total = 0;
  for (const ByteSpan& p : pieces) total += p.size();
  std::size_t flip_at = total;  // frame byte to corrupt; total = none
  char flip_mask = 0;
  if (fault_ != nullptr) {
    if (!fault_corrupt_only_) {
      const double spike = fault_->latency_penalty();
      if (spike > 0) sleep_sim(spike);
      if (fault_->drop_send(tag_)) {
        close();
        throw NetError("injected connection drop (" + tag_ + ")",
                       {remio::ErrorDomain::kTransport, 0, /*retryable=*/true,
                        "send"});
      }
    }
    // In-flight corruption: flip one bit anywhere past the first 4 bytes.
    // A protocol send is one frame whose length prefix occupies exactly
    // those bytes, so (like real corruption slipping past TCP's 16-bit
    // checksum while the kernel preserves segmentation) the framing stays
    // in phase and only the content arrives wrong.
    std::uint64_t bit = 0;
    if (total > 4 && fault_->corrupt_send(tag_, (total - 4) * 8, bit)) {
      flip_at = 4 + static_cast<std::size_t>(bit / 8);
      flip_mask = static_cast<char>(1u << (bit % 8));
    }
  }
  std::size_t off = 0;
  std::size_t piece = 0;      // next piece to gather from
  std::size_t piece_off = 0;  // bytes of it already sent
  while (off < total) {
    const std::size_t n = std::min(quantum_, total - off);
    if (stream_cap_) stream_cap_->acquire(n);
    // Class 1 = WAN socket traffic; distinguishes it from interconnect
    // traffic (class 2) on buckets with a contention model (node I/O bus).
    for (const auto& res : path_) res->acquire(n, 1);
    Bytes chunk;
    chunk.reserve(n);
    while (chunk.size() < n) {
      const ByteSpan p = pieces[piece].subspan(piece_off);
      const std::size_t take = std::min(p.size(), n - chunk.size());
      chunk.insert(chunk.end(), p.begin(),
                   p.begin() + static_cast<std::ptrdiff_t>(take));
      piece_off += take;
      if (piece_off == pieces[piece].size()) {
        ++piece;
        piece_off = 0;
      }
    }
    if (flip_at >= off && flip_at < off + n) chunk[flip_at - off] ^= flip_mask;
    tx_->push(std::move(chunk), sim_now() + latency_);
    off += n;
    bytes_sent_.fetch_add(n, std::memory_order_relaxed);
  }
}

std::size_t Socket::recv_some(MutByteSpan out) {
  if (closed_.load(std::memory_order_acquire))
    throw NetError("recv on closed socket");
  if (out.empty()) return 0;
  const std::size_t n = rx_->pop(out);
  bytes_received_.fetch_add(n, std::memory_order_relaxed);
  return n;
}

bool Socket::recv_all(MutByteSpan out) {
  std::size_t got = 0;
  while (got < out.size()) {
    const std::size_t n = recv_some(out.subspan(got));
    if (n == 0) return false;
    got += n;
  }
  return true;
}

void Socket::shutdown_send() {
  if (tx_) tx_->close_tx();
}

void Socket::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  if (tx_) tx_->close_tx();
  if (rx_) rx_->close_rx();
}

std::pair<std::unique_ptr<Socket>, std::unique_ptr<Socket>> Socket::make_pair(
    const ConnShaping& shaping, const std::string& client_name,
    const std::string& server_name) {
  auto c2s = std::make_shared<detail::Pipe>(shaping.window_bytes);
  auto s2c = std::make_shared<detail::Pipe>(shaping.window_bytes);

  auto client = std::unique_ptr<Socket>(new Socket());
  auto server = std::unique_ptr<Socket>(new Socket());

  client->tx_ = c2s;
  client->rx_ = s2c;
  client->path_ = shaping.fwd_path;
  server->tx_ = s2c;
  server->rx_ = c2s;
  server->path_ = shaping.rev_path;

  for (Socket* s : {client.get(), server.get()}) {
    s->latency_ = shaping.one_way_latency;
    s->quantum_ = shaping.quantum;
    if (shaping.stream_rate > 0) {
      // Each direction gets its own cap, like a TCP stream's cwnd.
      s->stream_cap_ = std::make_shared<TokenBucket>(
          shaping.stream_rate, shaping.stream_burst, "stream-cap");
    }
  }
  client->peer_ = server_name;
  server->peer_ = client_name;
  return {std::move(client), std::move(server)};
}

}  // namespace remio::simnet
