#include "srb/protocol.hpp"

#include <array>
#include <stdexcept>

#include "common/checksum.hpp"

namespace remio::srb {

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kNotFound: return "not found";
    case Status::kExists: return "already exists";
    case Status::kBadFd: return "bad file descriptor";
    case Status::kIoError: return "I/O error";
    case Status::kProtocol: return "protocol error";
    case Status::kInvalid: return "invalid argument";
    case Status::kNoMcat: return "MCAT unavailable";
    case Status::kQuotaExceeded: return "tenant quota exceeded";
    case Status::kChecksumMismatch: return "checksum mismatch";
    case Status::kQuarantined: return "object quarantined";
  }
  return "unknown";
}

namespace {

/// Frame bodies have at most this many pieces (a read reply has two).
constexpr std::size_t kMaxBodyPieces = 4;

void send_framed(simnet::Socket& sock, ByteSpan head,
                 std::initializer_list<ByteSpan> body, bool crc,
                 std::optional<std::uint32_t> tail_crc = std::nullopt) {
  if (body.size() > kMaxBodyPieces)
    throw std::invalid_argument("send_framed: too many body pieces");
  if (tail_crc && body.size() == 0)
    throw std::invalid_argument("send_framed: tail CRC without a body");
  std::array<ByteSpan, kMaxBodyPieces + 2> pieces;
  std::size_t count = 0;
  std::size_t len = head.size() + (crc ? 4 : 0);
  for (const ByteSpan& b : body) len += b.size();
  char prefix[8];
  const auto len32 = static_cast<std::uint32_t>(len);
  std::memcpy(prefix, &len32, 4);
  std::memcpy(prefix + 4, head.data(), head.size());
  pieces[count++] = ByteSpan(prefix, 4 + head.size());
  Crc32c sum;
  if (crc) sum.update(head);
  for (const ByteSpan& b : body) {
    pieces[count++] = b;
    const bool known = tail_crc && &b == body.end() - 1;
    if (crc && !known) sum.update(b);
  }
  char trailer[4];
  if (crc) {
    const std::uint32_t v =
        tail_crc ? crc32c_combine(sum.value(), *tail_crc, body.end()[-1].size())
                 : sum.value();
    std::memcpy(trailer, &v, 4);
    pieces[count++] = ByteSpan(trailer, 4);
  }
  sock.send_all(std::span<const ByteSpan>(pieces.data(), count));
}

}  // namespace

void send_request(simnet::Socket& sock, std::uint8_t op,
                  std::initializer_list<ByteSpan> body, bool crc) {
  const char h = static_cast<char>(op);
  send_framed(sock, ByteSpan(&h, 1), body, crc);
}

void send_reply(simnet::Socket& sock, std::int32_t status,
                std::initializer_list<ByteSpan> body, bool crc,
                std::optional<std::uint32_t> tail_crc) {
  char h[4];
  std::memcpy(h, &status, 4);
  send_framed(sock, ByteSpan(h, 4), body, crc, tail_crc);
}

bool strip_frame_crc(FrameBuffer& frame) {
  if (frame.size() < 5) return false;  // head byte + trailer at minimum
  const std::size_t content = frame.size() - 4;
  std::uint32_t wire;
  std::memcpy(&wire, frame.data() + content, 4);
  if (crc32c(ByteSpan(frame.data(), content)) != wire) return false;
  frame.resize(content);
  return true;
}

bool recv_frame_len(simnet::Socket& sock, std::uint32_t& len) {
  char lenbuf[4];
  const std::size_t first = sock.recv_some(MutByteSpan(lenbuf, 4));
  if (first == 0) return false;  // clean EOF between frames
  if (first < 4 && !sock.recv_all(MutByteSpan(lenbuf + first, 4 - first)))
    throw simnet::NetError("truncated frame length");
  std::memcpy(&len, lenbuf, 4);
  if (len == 0 || len > kMaxMessage) throw simnet::NetError("bad frame length");
  return true;
}

bool recv_frame(simnet::Socket& sock, FrameBuffer& out) {
  std::uint32_t len;
  if (!recv_frame_len(sock, len)) return false;
  out.resize(len);
  if (!sock.recv_all(MutByteSpan(out.data(), out.size())))
    throw simnet::NetError("truncated frame body");
  return true;
}

}  // namespace remio::srb
