// Adversarial wire-protocol tests: the broker must survive malformed,
// hostile and truncated frames from raw sockets — sessions terminate
// cleanly, the server stays up, and well-behaved clients keep working.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "simnet/timescale.hpp"
#include "srb/client.hpp"
#include "srb/server.hpp"

namespace remio::srb {
namespace {

class ProtocolFuzzTest : public ::testing::Test {
 protected:
  ProtocolFuzzTest() : scale_(5000.0) {
    simnet::HostSpec server_host;
    server_host.name = "orion";
    fabric_.add_host(server_host);
    simnet::HostSpec node;
    node.name = "evil";
    fabric_.add_host(node);
    server_ = std::make_unique<SrbServer>(fabric_, ServerConfig{});
    server_->start();
  }

  std::unique_ptr<simnet::Socket> raw_connect() {
    return fabric_.connect("evil", "orion", 5544);
  }

  /// The canary: a well-behaved client round trip must still succeed.
  void expect_server_alive() {
    SrbClient client(fabric_, "evil", "orion", 5544);
    const auto fd = client.open("/alive", kRead | kWrite | kCreate);
    const Bytes data = to_bytes("ping");
    EXPECT_EQ(client.pwrite(fd, ByteSpan(data.data(), data.size()), 0), 4u);
    client.close(fd);
    client.unlink("/alive");
  }

  simnet::ScopedTimeScale scale_;
  simnet::Fabric fabric_;
  std::unique_ptr<SrbServer> server_;
};

TEST_F(ProtocolFuzzTest, ZeroLengthFrame) {
  auto sock = raw_connect();
  const char zeros[4] = {0, 0, 0, 0};  // len = 0 is illegal
  sock->send_all(ByteSpan(zeros, 4));
  char byte;
  EXPECT_EQ(sock->recv_some(MutByteSpan(&byte, 1)), 0u);  // session closed
  expect_server_alive();
}

TEST_F(ProtocolFuzzTest, OversizedLengthRejected) {
  auto sock = raw_connect();
  Bytes msg;
  ByteWriter w(msg);
  w.u32(0xffffffffu);  // 4 GiB claim
  sock->send_all(ByteSpan(msg.data(), msg.size()));
  char byte;
  EXPECT_EQ(sock->recv_some(MutByteSpan(&byte, 1)), 0u);
  expect_server_alive();
}

TEST_F(ProtocolFuzzTest, UnknownOpcode) {
  auto sock = raw_connect();
  Bytes msg;
  ByteWriter w(msg);
  w.u32(1);
  w.u8(0xee);  // no such op
  sock->send_all(ByteSpan(msg.data(), msg.size()));
  // The server replies with a protocol error, then closes.
  Bytes reply(16);
  (void)sock->recv_some(MutByteSpan(reply.data(), reply.size()));
  expect_server_alive();
}

TEST_F(ProtocolFuzzTest, TruncatedPayloads) {
  // Each op with an empty body: every handler must reject cleanly.
  for (const auto op : {Op::kObjOpen, Op::kObjClose, Op::kObjRead, Op::kObjWrite,
                        Op::kObjSeek, Op::kObjStat, Op::kObjUnlink, Op::kCollCreate,
                        Op::kCollList, Op::kSetAttr, Op::kGetAttr}) {
    auto sock = raw_connect();
    Bytes msg;
    ByteWriter w(msg);
    w.u32(1);
    w.u8(static_cast<std::uint8_t>(op));
    sock->send_all(ByteSpan(msg.data(), msg.size()));
    Bytes reply(64);
    (void)sock->recv_some(MutByteSpan(reply.data(), reply.size()));
  }
  expect_server_alive();
}

TEST_F(ProtocolFuzzTest, HostileStringLength) {
  // kObjOpen with a string length prefix far beyond the frame.
  auto sock = raw_connect();
  Bytes msg;
  ByteWriter w(msg);
  w.u32(1 + 4 + 2);
  w.u8(static_cast<std::uint8_t>(Op::kObjOpen));
  w.u32(0x7fffffff);  // claimed path length
  w.raw(to_bytes("ab"));
  sock->send_all(ByteSpan(msg.data(), msg.size()));
  Bytes reply(64);
  (void)sock->recv_some(MutByteSpan(reply.data(), reply.size()));
  expect_server_alive();
}

TEST_F(ProtocolFuzzTest, MidFrameDisconnect) {
  auto sock = raw_connect();
  Bytes msg;
  ByteWriter w(msg);
  w.u32(1000);  // promise 1000 bytes...
  w.u8(static_cast<std::uint8_t>(Op::kObjOpen));
  sock->send_all(ByteSpan(msg.data(), msg.size()));
  sock->close();  // ...deliver 1 and hang up
  expect_server_alive();
}

TEST_F(ProtocolFuzzTest, RandomGarbageStream) {
  Rng rng(1234);
  for (int round = 0; round < 20; ++round) {
    auto sock = raw_connect();
    const Bytes junk = rng.bytes(8 + rng.below(256));
    try {
      sock->send_all(ByteSpan(junk.data(), junk.size()));
      sock->shutdown_send();
      Bytes reply(64);
      while (sock->recv_some(MutByteSpan(reply.data(), reply.size())) > 0) {
      }
    } catch (const simnet::NetError&) {
      // Server may slam the connection mid-send; that's a valid outcome.
    }
  }
  expect_server_alive();
}

// ---------------------------------------------------------------------------
// List-I/O verb fuzz (kObjReadList / kObjWriteList). Every frame below is
// *fully framed* — the length prefix is honoured — so any inconsistency
// inside it is semantic: the server must answer kInvalid and KEEP the
// session (asserted by issuing a well-formed op on the same socket after).
// ---------------------------------------------------------------------------

class ListVerbFuzzTest : public ProtocolFuzzTest {
 protected:
  /// One framed request/response round trip on a raw socket.
  Status roundtrip(simnet::Socket& sock, Op op, const Bytes& body,
                   Bytes* resp_body = nullptr) {
    send_request(sock, static_cast<std::uint8_t>(op), {body}, /*crc=*/false);
    FrameBuffer frame;
    EXPECT_TRUE(recv_frame(sock, frame)) << "session dropped";
    ByteReader r(ByteSpan(frame.data(), frame.size()));
    const auto st = static_cast<Status>(r.i32());
    if (resp_body != nullptr) {
      const ByteSpan rest = r.rest();
      resp_body->assign(rest.begin(), rest.end());
    }
    return st;
  }

  /// Opens an object through raw frames; returns the session-local fd.
  std::int32_t raw_open(simnet::Socket& sock, const std::string& path) {
    Bytes body;
    ByteWriter w(body);
    w.str(path);
    w.u32(kRead | kWrite | kCreate);
    Bytes resp;
    EXPECT_EQ(roundtrip(sock, Op::kObjOpen, body, &resp), Status::kOk);
    ByteReader r(ByteSpan(resp.data(), resp.size()));
    return r.i32();
  }

  /// The same-session canary: a valid 1-extent write list must succeed.
  void expect_session_alive(simnet::Socket& sock, std::int32_t fd) {
    Bytes body;
    ByteWriter w(body);
    w.i32(fd);
    w.u32(1);
    w.u64(0);
    w.u32(4);
    w.raw(to_bytes("ping"));
    EXPECT_EQ(roundtrip(sock, Op::kObjWriteList, body), Status::kOk);
  }

  /// Encodes fd + count + the given (offset,len) pairs.
  static Bytes list_header(std::int32_t fd, std::uint32_t count,
                           const std::vector<std::pair<std::uint64_t,
                                                       std::uint32_t>>& ext) {
    Bytes body;
    ByteWriter w(body);
    w.i32(fd);
    w.u32(count);
    for (const auto& [off, len] : ext) {
      w.u64(off);
      w.u32(len);
    }
    return body;
  }
};

TEST_F(ListVerbFuzzTest, TruncatedExtentArrayRejectedKeepsSession) {
  // Claims 16 extents, delivers 2 — a complete frame with a short array.
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/trunc");
  for (const auto op : {Op::kObjReadList, Op::kObjWriteList}) {
    const Bytes body = list_header(fd, 16, {{0, 64}, {64, 64}});
    EXPECT_EQ(roundtrip(*sock, op, body), Status::kInvalid);
  }
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

TEST_F(ListVerbFuzzTest, CountAboveCapRejectedKeepsSession) {
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/cap");
  for (const auto op : {Op::kObjReadList, Op::kObjWriteList}) {
    for (const std::uint32_t count :
         {kMaxListExtents + 1, kMaxListExtents + 4096, 0xffffffffu}) {
      const Bytes body = list_header(fd, count, {{0, 8}});
      EXPECT_EQ(roundtrip(*sock, op, body), Status::kInvalid) << count;
    }
    // count == 0 is equally invalid.
    EXPECT_EQ(roundtrip(*sock, op, list_header(fd, 0, {})), Status::kInvalid);
  }
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

TEST_F(ListVerbFuzzTest, UnsortedExtentsRejectedKeepsSession) {
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/unsorted");
  for (const auto op : {Op::kObjReadList, Op::kObjWriteList}) {
    const Bytes body = list_header(fd, 2, {{4096, 64}, {0, 64}});
    EXPECT_EQ(roundtrip(*sock, op, body), Status::kInvalid);
  }
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

TEST_F(ListVerbFuzzTest, OverlappingExtentsRejectedKeepsSession) {
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/overlap");
  for (const auto op : {Op::kObjReadList, Op::kObjWriteList}) {
    // Sorted by offset but [0,100) overlaps [50,150).
    const Bytes body = list_header(fd, 2, {{0, 100}, {50, 100}});
    EXPECT_EQ(roundtrip(*sock, op, body), Status::kInvalid);
  }
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

TEST_F(ListVerbFuzzTest, ZeroLengthExtentRejectedKeepsSession) {
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/zero");
  for (const auto op : {Op::kObjReadList, Op::kObjWriteList}) {
    for (const auto& ext :
         std::vector<std::vector<std::pair<std::uint64_t, std::uint32_t>>>{
             {{0, 0}}, {{0, 64}, {64, 0}, {128, 64}}}) {
      const Bytes body =
          list_header(fd, static_cast<std::uint32_t>(ext.size()), ext);
      EXPECT_EQ(roundtrip(*sock, op, body), Status::kInvalid);
    }
  }
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

TEST_F(ListVerbFuzzTest, WrappingExtentRejectedKeepsSession) {
  // offset + len past 2^64 would wrap to a small end: the store would size
  // the object by the wrapped end and copy to offset, far outside it.
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/wrap");
  for (const auto op : {Op::kObjReadList, Op::kObjWriteList}) {
    Bytes body = list_header(fd, 1, {{UINT64_MAX - 10, 100}});
    if (op == Op::kObjWriteList) {
      const Bytes junk(100, 'w');
      ByteWriter(body).raw(ByteSpan(junk.data(), junk.size()));
    }
    EXPECT_EQ(roundtrip(*sock, op, body), Status::kInvalid);
  }
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

TEST_F(ListVerbFuzzTest, WriteListPayloadMismatchRejectedKeepsSession) {
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/mismatch");
  // Extents promise 128 bytes; deliver 5 (short) and 200 (long).
  for (const std::size_t payload : {std::size_t{5}, std::size_t{200}}) {
    Bytes body = list_header(fd, 2, {{0, 64}, {64, 64}});
    ByteWriter w(body);
    const Bytes junk(payload, 'x');
    w.raw(ByteSpan(junk.data(), junk.size()));
    EXPECT_EQ(roundtrip(*sock, Op::kObjWriteList, body), Status::kInvalid)
        << payload;
  }
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

TEST_F(ListVerbFuzzTest, ReadListSumAboveReplyCapRejectedKeepsSession) {
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/replycap");
  // 33 extents of 2 MiB = 66 MiB > kMaxMessage / 2.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ext;
  for (std::uint64_t i = 0; i < 33; ++i) ext.push_back({i << 21, 2u << 20});
  const Bytes body = list_header(fd, 33, ext);
  EXPECT_EQ(roundtrip(*sock, Op::kObjReadList, body), Status::kInvalid);
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

TEST_F(ListVerbFuzzTest, RandomizedListFrameFuzzNeverKillsSession) {
  // Random counts / extents / payload sizes, always fully framed: whatever
  // the semantic verdict, the session must answer every frame and survive.
  auto sock = raw_connect();
  const std::int32_t fd = raw_open(*sock, "/lv/random");
  Rng rng(20260807);
  for (int i = 0; i < 200; ++i) {
    const auto op = rng.chance(0.5) ? Op::kObjReadList : Op::kObjWriteList;
    const std::uint32_t count = static_cast<std::uint32_t>(rng.below(12));
    const std::uint32_t encoded =
        rng.chance(0.2) ? count + static_cast<std::uint32_t>(rng.below(5000))
                        : count;
    Bytes body;
    ByteWriter w(body);
    w.i32(rng.chance(0.9) ? fd : static_cast<std::int32_t>(rng.below(100)));
    w.u32(encoded);
    std::uint64_t off = rng.below(1 << 20);
    for (std::uint32_t e = 0; e < count; ++e) {
      // Mostly sorted-disjoint, sometimes hostile.
      if (rng.chance(0.15)) off = rng.below(1 << 20);
      const std::uint32_t len = static_cast<std::uint32_t>(rng.below(512));
      w.u64(off);
      w.u32(len);
      off += len;
    }
    if (op == Op::kObjWriteList) {
      const Bytes junk = rng.bytes(rng.below(4096));
      w.raw(ByteSpan(junk.data(), junk.size()));
    }
    (void)roundtrip(*sock, op, body);  // any status; session must answer
  }
  expect_session_alive(*sock, fd);
  expect_server_alive();
}

// ---------------------------------------------------------------------------
// Structure-aware corruption fuzz: single-bit flips aimed at each region of
// a checksummed frame — opcode, payload body, CRC trailer, and the length
// prefix. The contract under test: NO flipped frame is ever dispatched
// (wrong data must never land in the store); in-phase flips (anything the
// trailer covers) are answered kChecksumMismatch with the session intact,
// and length-prefix flips — which destroy framing itself — cost at most the
// session, never the server and never the data.
// ---------------------------------------------------------------------------

class CorruptionFuzzTest : public ProtocolFuzzTest {
 protected:
  /// kConnect with the checksum feature flag over raw frames; returns true
  /// when the server granted it (it must, by default).
  bool raw_connect_crc(simnet::Socket& sock) {
    Bytes body;
    ByteWriter w(body);
    w.str("corruption-fuzz");
    w.str("");  // no tenant
    w.u32(kFeatureWireChecksums);
    send_request(sock, static_cast<std::uint8_t>(Op::kConnect), {body},
                 /*crc=*/false);
    FrameBuffer frame;
    if (!recv_frame(sock, frame)) return false;
    ByteReader r(ByteSpan(frame.data(), frame.size()));
    if (static_cast<Status>(r.i32()) != Status::kOk) return false;
    (void)r.str();  // banner
    return r.remaining() >= 4 && (r.u32() & kFeatureWireChecksums) != 0;
  }

  /// Builds the exact bytes a checksummed request occupies on the wire.
  static Bytes build_crc_frame(Op op, const Bytes& body) {
    Bytes frame;
    ByteWriter w(frame);
    w.u32(static_cast<std::uint32_t>(1 + body.size() + 4));
    w.u8(static_cast<std::uint8_t>(op));
    w.raw(ByteSpan(body.data(), body.size()));
    w.u32(crc32c(ByteSpan(frame.data() + 4, frame.size() - 4)));
    return frame;
  }

  /// Sends a pristine checksummed request, verifies the response trailer,
  /// returns the status.
  Status crc_roundtrip(simnet::Socket& sock, Op op, const Bytes& body,
                       Bytes* resp_body = nullptr) {
    send_request(sock, static_cast<std::uint8_t>(op), {body}, /*crc=*/true);
    FrameBuffer frame;
    EXPECT_TRUE(recv_frame(sock, frame)) << "session dropped";
    EXPECT_TRUE(strip_frame_crc(frame)) << "response trailer corrupt";
    ByteReader r(ByteSpan(frame.data(), frame.size()));
    const auto st = static_cast<Status>(r.i32());
    if (resp_body != nullptr) {
      const ByteSpan rest = r.rest();
      resp_body->assign(rest.begin(), rest.end());
    }
    return st;
  }

  std::int32_t crc_open(simnet::Socket& sock, const std::string& path) {
    Bytes body;
    ByteWriter w(body);
    w.str(path);
    w.u32(kRead | kWrite | kCreate);
    Bytes resp;
    EXPECT_EQ(crc_roundtrip(sock, Op::kObjOpen, body, &resp), Status::kOk);
    ByteReader r(ByteSpan(resp.data(), resp.size()));
    return r.i32();
  }

  /// A kObjWrite request body: fd, offset, payload.
  static Bytes write_body(std::int32_t fd, std::uint64_t offset,
                          const Bytes& payload) {
    Bytes body;
    ByteWriter w(body);
    w.i32(fd);
    w.i64(static_cast<std::int64_t>(offset));
    w.blob(ByteSpan(payload.data(), payload.size()));
    return body;
  }
};

TEST_F(CorruptionFuzzTest, EveryInPhaseBitFlipDetectedInRhythm) {
  auto sock = raw_connect();
  ASSERT_TRUE(raw_connect_crc(*sock));
  const std::int32_t fd = crc_open(*sock, "/fuzz/flip");

  // Baseline content the mutations must never be able to change.
  const Bytes baseline(512, 'B');
  ASSERT_EQ(crc_roundtrip(*sock, Op::kObjWrite, write_body(fd, 0, baseline)),
            Status::kOk);

  const Bytes evil(512, 'E');
  const Bytes pristine = build_crc_frame(Op::kObjWrite, write_body(fd, 0, evil));
  Rng rng(0xf11bf11bu);
  int header_flips = 0, payload_flips = 0, trailer_flips = 0;
  for (int round = 0; round < 300; ++round) {
    // Aim deliberately: opcode byte, CRC trailer, or anywhere in the body.
    std::size_t byte;
    const int region = static_cast<int>(rng.below(3));
    if (region == 0) {
      byte = 4;  // opcode
      ++header_flips;
    } else if (region == 1) {
      byte = pristine.size() - 4 + rng.below(4);  // trailer
      ++trailer_flips;
    } else {
      byte = 5 + rng.below(pristine.size() - 5 - 4);  // body
      ++payload_flips;
    }
    Bytes mutated = pristine;
    mutated[byte] ^= static_cast<char>(1u << rng.below(8));

    sock->send_all(ByteSpan(mutated.data(), mutated.size()));
    FrameBuffer frame;
    ASSERT_TRUE(recv_frame(*sock, frame)) << "session died on round " << round;
    ASSERT_TRUE(strip_frame_crc(frame));
    ByteReader r(ByteSpan(frame.data(), frame.size()));
    // Every single-bit flip the trailer covers (and flips OF the trailer)
    // must be rejected as a checksum mismatch — by CRC's single-bit-error
    // guarantee there are no collisions to worry about.
    ASSERT_EQ(static_cast<Status>(r.i32()), Status::kChecksumMismatch)
        << "round " << round << " byte " << byte;
  }
  EXPECT_GT(header_flips, 0);
  EXPECT_GT(payload_flips, 0);
  EXPECT_GT(trailer_flips, 0);

  // In-rhythm recovery: the very same session still serves, and none of the
  // 300 corrupted writes leaked a byte into the store.
  Bytes body;
  ByteWriter w(body);
  w.i32(fd);
  w.i64(0);
  w.u32(512);
  Bytes resp;
  ASSERT_EQ(crc_roundtrip(*sock, Op::kObjRead, body, &resp), Status::kOk);
  ByteReader r(ByteSpan(resp.data(), resp.size()));
  const Bytes back = r.blob();
  EXPECT_EQ(back, baseline);
  expect_server_alive();
}

TEST_F(CorruptionFuzzTest, LengthPrefixFlipsNeverLandData) {
  // Flips in the 4-byte length prefix sit OUTSIDE the checksum (by design:
  // covering it would desync framing on every detection). Such a flip can
  // legitimately kill the session — but it must never produce a dispatched
  // frame, and the server must survive.
  const Bytes baseline(256, 'B');
  {
    auto setup = raw_connect();
    ASSERT_TRUE(raw_connect_crc(*setup));
    const std::int32_t fd = crc_open(*setup, "/fuzz/len");
    ASSERT_EQ(crc_roundtrip(*setup, Op::kObjWrite, write_body(fd, 0, baseline)),
              Status::kOk);
  }

  Rng rng(0x1e471e47u);
  for (int round = 0; round < 32; ++round) {
    auto sock = raw_connect();
    ASSERT_TRUE(raw_connect_crc(*sock));
    const std::int32_t fd = crc_open(*sock, "/fuzz/len");
    const Bytes evil(256, 'E');
    Bytes mutated = build_crc_frame(Op::kObjWrite, write_body(fd, 0, evil));
    mutated[rng.below(4)] ^= static_cast<char>(1u << rng.below(8));
    try {
      sock->send_all(ByteSpan(mutated.data(), mutated.size()));
      sock->shutdown_send();  // a bigger claimed length now reads as EOF
      Bytes drain(256);
      while (sock->recv_some(MutByteSpan(drain.data(), drain.size())) > 0) {
      }
    } catch (const simnet::NetError&) {
      // Server slammed the session: acceptable for a framing-level fault.
    }
  }

  // However the 32 sessions ended, the evil payload never landed.
  auto sock = raw_connect();
  ASSERT_TRUE(raw_connect_crc(*sock));
  const std::int32_t fd = crc_open(*sock, "/fuzz/len");
  Bytes body;
  ByteWriter w(body);
  w.i32(fd);
  w.i64(0);
  w.u32(256);
  Bytes resp;
  ASSERT_EQ(crc_roundtrip(*sock, Op::kObjRead, body, &resp), Status::kOk);
  ByteReader r(ByteSpan(resp.data(), resp.size()));
  EXPECT_EQ(r.blob(), baseline);
  expect_server_alive();
}

TEST_F(CorruptionFuzzTest, MultiBitRandomMutationsNeverLandData) {
  // Beyond the single-bit guarantee: arbitrary k-bit mutations of one frame
  // (k in 1..8). A pathological collision would be caught here as a silent
  // acceptance of wrong data, which the baseline read-back would expose.
  auto sock = raw_connect();
  ASSERT_TRUE(raw_connect_crc(*sock));
  const std::int32_t fd = crc_open(*sock, "/fuzz/multi");
  const Bytes baseline(384, 'B');
  ASSERT_EQ(crc_roundtrip(*sock, Op::kObjWrite, write_body(fd, 0, baseline)),
            Status::kOk);

  const Bytes evil(384, 'E');
  const Bytes pristine = build_crc_frame(Op::kObjWrite, write_body(fd, 0, evil));
  Rng rng(0x5eed5eedu);
  for (int round = 0; round < 200; ++round) {
    Bytes mutated = pristine;
    const std::size_t flips = 1 + rng.below(8);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t byte = 4 + rng.below(mutated.size() - 4);
      mutated[byte] ^= static_cast<char>(1u << rng.below(8));
    }
    sock->send_all(ByteSpan(mutated.data(), mutated.size()));
    FrameBuffer frame;
    ASSERT_TRUE(recv_frame(*sock, frame));
    ASSERT_TRUE(strip_frame_crc(frame));
    ByteReader r(ByteSpan(frame.data(), frame.size()));
    ASSERT_EQ(static_cast<Status>(r.i32()), Status::kChecksumMismatch)
        << "round " << round;
  }

  Bytes body;
  ByteWriter w(body);
  w.i32(fd);
  w.i64(0);
  w.u32(384);
  Bytes resp;
  ASSERT_EQ(crc_roundtrip(*sock, Op::kObjRead, body, &resp), Status::kOk);
  ByteReader r(ByteSpan(resp.data(), resp.size()));
  EXPECT_EQ(r.blob(), baseline);
  expect_server_alive();
}

// ---------------------------------------------------------------------------
// The broker checks a write frame in pieces cut where its payload meets the
// object's 4 KiB blocks, reading the cuts from the head before it is
// verified, and keeps each whole block's piece CRC as its at-rest sum. So
// flips are aimed at what decides the cuts ([op | fd | offset | blob length]
// or the extent list), at both sides of every cut, at the trailer and at
// seeded payload bits. Every flip must be answered kChecksumMismatch in
// rhythm, and neither the stored bytes nor scrub's counts may move.
// ---------------------------------------------------------------------------

class CutPathCorruptionTest : public CorruptionFuzzTest {
 protected:
  static constexpr std::uint64_t kBlock = 4096;

  /// Frame positions where the payload, which starts at `payload_at` and
  /// holds `extents` back to back, is cut: its start, each block boundary
  /// inside an extent, and each extent's end.
  static std::vector<std::size_t> cuts_of(std::size_t payload_at,
                                          const ExtentList& extents) {
    std::vector<std::size_t> cuts{payload_at};
    std::size_t pos = payload_at;
    for (const Extent& x : extents) {
      for (std::uint64_t b = (x.offset / kBlock + 1) * kBlock; b < x.end();
           b += kBlock)
        cuts.push_back(pos + static_cast<std::size_t>(b - x.offset));
      pos += static_cast<std::size_t>(x.len);
      cuts.push_back(pos);
    }
    return cuts;
  }

  /// The content bits to flip: every bit of the head before the payload
  /// and of the trailer, every bit within 16 bytes of a cut, and
  /// `random_bits` seeded payload bits.
  static std::set<std::size_t> aimed_bits(const Bytes& frame,
                                          std::size_t payload_at,
                                          const ExtentList& extents,
                                          std::uint64_t seed,
                                          std::size_t random_bits) {
    std::set<std::size_t> bits;
    const auto add_bytes = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = std::max<std::size_t>(lo, 4);
           i < std::min(hi, frame.size()); ++i)
        for (std::size_t k = 0; k < 8; ++k) bits.insert(i * 8 + k);
    };
    add_bytes(4, payload_at);
    add_bytes(frame.size() - 4, frame.size());
    for (const std::size_t c : cuts_of(payload_at, extents))
      add_bytes(c >= 16 ? c - 16 : 0, c + 16);
    Rng rng(seed);
    const std::size_t payload_bits = (frame.size() - 4 - payload_at) * 8;
    for (std::size_t i = 0; i < random_bits; ++i)
      bits.insert(payload_at * 8 + rng.below(payload_bits));
    return bits;
  }

  /// Sends `pristine` once per bit with that bit flipped; each must be
  /// answered kChecksumMismatch in rhythm. Returns the flips sent.
  std::size_t expect_flips_rejected(simnet::Socket& sock, const Bytes& pristine,
                                    const std::set<std::size_t>& bits) {
    Bytes mutated = pristine;
    for (const std::size_t bit : bits) {
      const char mask = static_cast<char>(1u << (bit % 8));
      mutated[bit / 8] ^= mask;
      sock.send_all(ByteSpan(mutated.data(), mutated.size()));
      mutated[bit / 8] ^= mask;
      FrameBuffer frame;
      EXPECT_TRUE(recv_frame(sock, frame)) << "session died at bit " << bit;
      EXPECT_TRUE(strip_frame_crc(frame));
      ByteReader r(ByteSpan(frame.data(), frame.size()));
      const auto st = static_cast<Status>(r.i32());
      EXPECT_EQ(st, Status::kChecksumMismatch) << "bit " << bit;
      if (st != Status::kChecksumMismatch) break;
    }
    return bits.size();
  }

  /// The object's bytes [0, n) through a checksummed read on `sock`.
  Bytes read_back(simnet::Socket& sock, std::int32_t fd, std::uint32_t n) {
    Bytes body;
    ByteWriter w(body);
    w.i32(fd);
    w.i64(0);
    w.u32(n);
    Bytes resp;
    EXPECT_EQ(crc_roundtrip(sock, Op::kObjRead, body, &resp), Status::kOk);
    ByteReader r(ByteSpan(resp.data(), resp.size()));
    return r.blob();
  }

  static void expect_same_scrub(const ScrubReport& a, const ScrubReport& b) {
    EXPECT_EQ(a.objects, b.objects);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.mismatched, 0u);
    EXPECT_EQ(b.mismatched, 0u);
    EXPECT_EQ(b.quarantined, 0u);
    EXPECT_EQ(b.healed, 0u);
  }
};

TEST_F(CutPathCorruptionTest, WriteFrameFlipsAtEveryCutAreRejected) {
  auto sock = raw_connect();
  ASSERT_TRUE(raw_connect_crc(*sock));
  const std::int32_t fd = crc_open(*sock, "/fuzz/cut-write");
  // [4000, 4000 + 3 * 4 KiB + 200): a partial head block, whole blocks 1-3
  // and a partial tail block.
  const ExtentList where = {{4000, 3 * kBlock + 200}};
  const Bytes baseline(static_cast<std::size_t>(where[0].len), 'B');
  ASSERT_EQ(crc_roundtrip(*sock, Op::kObjWrite,
                          write_body(fd, where[0].offset, baseline)),
            Status::kOk);
  const auto size = static_cast<std::uint32_t>(where[0].end());
  const Bytes before = read_back(*sock, fd, size);
  const ScrubReport scrub_before = server_->store().scrub();

  Rng rng(0xc07c07u);
  const Bytes evil = rng.bytes(baseline.size());
  const Bytes pristine =
      build_crc_frame(Op::kObjWrite, write_body(fd, where[0].offset, evil));
  // [len:4][op:1][fd:4][offset:8][blob length:4], then the payload.
  const std::size_t sent = expect_flips_rejected(
      *sock, pristine, aimed_bits(pristine, 21, where, 0xb175u, 600));
  EXPECT_GT(sent, 136u + 32u + 500u);

  EXPECT_EQ(read_back(*sock, fd, size), before);
  expect_same_scrub(scrub_before, server_->store().scrub());
  expect_server_alive();
}

TEST_F(CutPathCorruptionTest, WriteListFlipsAtEveryCutAreRejected) {
  auto sock = raw_connect();
  ASSERT_TRUE(raw_connect_crc(*sock));
  const std::int32_t fd = crc_open(*sock, "/fuzz/cut-list");
  // Extents 1 and 2 share block 1, extents 2 and 3 share block 3, and
  // extent 2 covers block 2 whole.
  const ExtentList where = {{4000, 300}, {4400, 8000}, {12500, 3000}};
  const auto list_body = [&](const Bytes& payload) {
    Bytes body;
    ByteWriter w(body);
    w.i32(fd);
    w.u32(static_cast<std::uint32_t>(where.size()));
    for (const Extent& x : where) {
      w.u64(x.offset);
      w.u32(static_cast<std::uint32_t>(x.len));
    }
    w.raw(ByteSpan(payload.data(), payload.size()));
    return body;
  };
  const Bytes baseline(11300, 'B');
  ASSERT_EQ(crc_roundtrip(*sock, Op::kObjWriteList, list_body(baseline)),
            Status::kOk);
  const auto size = static_cast<std::uint32_t>(where.back().end());
  const Bytes before = read_back(*sock, fd, size);
  const ScrubReport scrub_before = server_->store().scrub();

  Rng rng(0x115c07u);
  const Bytes evil = rng.bytes(baseline.size());
  const Bytes pristine = build_crc_frame(Op::kObjWriteList, list_body(evil));
  // [len:4][op:1][fd:4][count:4][3 x (offset:8 len:4)], then the payload.
  const std::size_t sent = expect_flips_rejected(
      *sock, pristine, aimed_bits(pristine, 49, where, 0x1157u, 600));
  EXPECT_GT(sent, 360u + 32u + 500u);

  EXPECT_EQ(read_back(*sock, fd, size), before);
  expect_same_scrub(scrub_before, server_->store().scrub());
  expect_server_alive();
}

// ---------------------------------------------------------------------------
// The reply-side sibling. A scripted broker answers a 4 KiB pread and a
// 3-extent preadv with one bit of [status | blob length or lens | payload |
// trailer] flipped, every such bit in turn. The client lands read payloads
// straight in the caller's buffer and checks the CRC after, so every flip
// must surface as a retryable kChecksumMismatch, counted once, and the same
// client's next read must return the right bytes.
// ---------------------------------------------------------------------------

class ReplyCorruptionTest : public ProtocolFuzzTest {
 protected:
  /// The exact wire bytes of a checksummed reply with this content.
  static Bytes crc_frame(const Bytes& content) {
    Bytes frame;
    ByteWriter w(frame);
    w.u32(static_cast<std::uint32_t>(content.size() + 4));
    w.raw(ByteSpan(content.data(), content.size()));
    w.u32(crc32c(ByteSpan(content.data(), content.size())));
    return frame;
  }
};

TEST_F(ReplyCorruptionTest, EveryReplyBitFlipThrowsRetryablyAndNextReadSucceeds) {
  Rng rng(0x4e91f11bu);
  const Bytes data = rng.bytes(4096);
  Bytes read_content;
  {
    ByteWriter w(read_content);
    w.i32(0);
    w.blob(ByteSpan(data.data(), data.size()));
  }
  const ExtentList extents = {{0, 100}, {1000, 200}, {5000, 300}};
  const Bytes list_data = rng.bytes(600);
  Bytes list_content;
  {
    ByteWriter w(list_content);
    w.i32(0);
    w.u32(3);
    for (const Extent& x : extents) w.u32(static_cast<std::uint32_t>(x.len));
    w.raw(ByteSpan(list_data.data(), list_data.size()));
  }
  const Bytes read_frame = crc_frame(read_content);
  const Bytes list_frame = crc_frame(list_content);

  std::atomic<std::int64_t> flip{-1};  // content bit the next read reply flips
  auto acceptor = fabric_.listen("orion", 5601);
  std::thread peer([&] {
    try {
      auto sock = acceptor->accept();
      if (!sock) return;
      FrameBuffer frame;
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
        } else if (op == Op::kObjRead || op == Op::kObjReadList) {
          Bytes wire = op == Op::kObjRead ? read_frame : list_frame;
          const std::int64_t bit = flip.load();
          if (bit >= 0)
            wire[4 + static_cast<std::size_t>(bit / 8)] ^=
                static_cast<char>(1u << (bit % 8));
          (*sock)->send_all(ByteSpan(wire.data(), wire.size()));
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
    SrbClient c(fabric_, "evil", "orion", 5601);
    ASSERT_TRUE(c.wire_checksums());
    Bytes out(data.size());
    Bytes packed(list_data.size());
    std::uint64_t failures = 0;
    for (const bool list : {false, true}) {
      const Bytes& pristine = list ? list_frame : read_frame;
      const auto bits = static_cast<std::int64_t>((pristine.size() - 4) * 8);
      for (std::int64_t b = 0; b < bits; ++b) {
        flip.store(b);
        try {
          if (list)
            c.preadv(3, extents, MutByteSpan(packed.data(), packed.size()));
          else
            c.pread(3, MutByteSpan(out.data(), out.size()), 0);
          FAIL() << (list ? "preadv" : "pread") << ": flip of bit " << b
                 << " went undetected";
        } catch (const SrbError& e) {
          ASSERT_EQ(e.status(), Status::kChecksumMismatch)
              << (list ? "preadv" : "pread") << " bit " << b << ": " << e.what();
          ASSERT_TRUE(e.retryable());
        }
        ASSERT_EQ(c.crc_failures(), ++failures);
        flip.store(-1);
        ASSERT_EQ(c.pread(3, MutByteSpan(out.data(), out.size()), 0), data.size());
        ASSERT_EQ(out, data) << "after the flip of bit " << b;
      }
    }
    EXPECT_EQ(failures, (read_frame.size() - 4 + list_frame.size() - 4) * 8);
    EXPECT_EQ(c.preadv(3, extents, MutByteSpan(packed.data(), packed.size())),
              list_data.size());
    EXPECT_EQ(packed, list_data);
  }
  acceptor->close();
  peer.join();
}

TEST_F(ProtocolFuzzTest, ReadLengthAboveCapRejected) {
  // A read request asking for more than the server's per-message cap.
  SrbClient client(fabric_, "evil", "orion", 5544);
  const auto fd = client.open("/cap", kRead | kWrite | kCreate);
  auto sock = raw_connect();  // separate raw session with its own connect
  Bytes msg;
  ByteWriter w(msg);
  w.u32(1 + 4 + 8 + 4);
  w.u8(static_cast<std::uint8_t>(Op::kObjRead));
  w.i32(fd);  // fd from another session: either bad-fd or proto error is fine
  w.i64(0);
  w.u32(kMaxMessage);  // over the cap
  sock->send_all(ByteSpan(msg.data(), msg.size()));
  Bytes reply(64);
  (void)sock->recv_some(MutByteSpan(reply.data(), reply.size()));
  client.close(fd);
  expect_server_alive();
}

}  // namespace
}  // namespace remio::srb
