#include "srb/client.hpp"

#include <algorithm>

namespace remio::srb {

namespace {

/// The client name doubles as the connection's fault-injection tag so one
/// SEMPLAR stream can be killed or banned by name (simnet/faults.hpp).
simnet::ConnectOptions with_tag(simnet::ConnectOptions opts,
                                const std::string& client_name) {
  if (opts.tag.empty()) opts.tag = client_name;
  return opts;
}

/// Classifies a non-OK broker status into the shared error taxonomy. Most
/// are semantic (the broker answered; replaying changes nothing), but the
/// integrity statuses carry their own domain: a checksum mismatch is
/// retryable — the op is idempotent and a re-send/re-read usually comes
/// back clean — while a quarantined object stays failed until repaired.
SrbError status_error(Status st, const std::string& what) {
  if (st == Status::kChecksumMismatch)
    return SrbError(st,
                    {remio::ErrorDomain::kIntegrity,
                     static_cast<std::int32_t>(st), /*retryable=*/true, "rpc"},
                    what);
  if (st == Status::kQuarantined)
    return SrbError(st,
                    {remio::ErrorDomain::kIntegrity,
                     static_cast<std::int32_t>(st), /*retryable=*/false, "rpc"},
                    what);
  return SrbError(st, what);
}

}  // namespace

SrbClient::SrbClient(simnet::Fabric& fabric, const std::string& from_host,
                     const std::string& server_host, int port,
                     const simnet::ConnectOptions& opts,
                     const std::string& client_name, const std::string& tenant,
                     bool wire_checksums)
    : sock_(fabric.connect(from_host, server_host, port,
                           with_tag(opts, client_name))) {
  connected_ = true;
  Bytes payload;
  ByteWriter w(payload);
  w.str(client_name);
  w.str(tenant);
  // Feature flags are appended only when a feature is wanted, so a
  // checksums-off session carries no flags word at all.
  if (wire_checksums) w.u32(kFeatureWireChecksums);
  const Bytes resp = rpc_ok(Op::kConnect, payload, "connect");
  ByteReader r(ByteSpan(resp.data(), resp.size()));
  banner_ = r.str();
  // The broker grants every feature asked for, so a missing grant can only
  // mean the (unchecksummed) login exchange was damaged in flight: report
  // a transient dial failure rather than run the session unprotected.
  if (wire_checksums &&
      (r.remaining() < 4 || (r.u32() & kFeatureWireChecksums) == 0))
    throw simnet::NetError(
        "connect: wire checksums not granted",
        {remio::ErrorDomain::kTransport, 0, /*retryable=*/true, "connect"});
  crc_ = wire_checksums;
}

SrbClient::~SrbClient() {
  try {
    disconnect();
  } catch (...) {
    // Destructor must not throw; the socket teardown below is unconditional.
  }
  sock_->close();
}

Status SrbClient::rpc(Op op, const Bytes& payload, Bytes& response) {
  std::lock_guard lk(mu_);
  if (!connected_)
    throw SrbError(Status::kIoError,
                   {remio::ErrorDomain::kTransport,
                    static_cast<std::int32_t>(Status::kIoError),
                    /*retryable=*/false, "rpc"},
                   "client disconnected");
  rpc_count_.fetch_add(1, std::memory_order_relaxed);
  const ByteSpan body(payload.data(), payload.size());
  if (crc_)
    send_frame_crc(*sock_, static_cast<std::uint8_t>(op), body);
  else
    send_frame(*sock_, static_cast<std::uint8_t>(op), body);
  Bytes frame;
  if (!recv_frame(*sock_, frame))
    // Mid-stream EOF: the broker died or restarted. Transient — a
    // supervisor can reconnect and replay the op.
    throw SrbError(Status::kIoError,
                   {remio::ErrorDomain::kTransport,
                    static_cast<std::int32_t>(Status::kIoError),
                    /*retryable=*/true, "rpc"},
                   "server closed connection");
  if (crc_ && !strip_frame_crc(frame)) {
    // The response arrived corrupted. The framing held (the length prefix
    // is uncovered by design), so the stream is still in phase: the next
    // rpc() simply re-issues the idempotent op. Retryable integrity error.
    crc_failures_.fetch_add(1, std::memory_order_relaxed);
    throw SrbError(Status::kChecksumMismatch,
                   {remio::ErrorDomain::kIntegrity,
                    static_cast<std::int32_t>(Status::kChecksumMismatch),
                    /*retryable=*/true, "rpc"},
                   "response frame checksum mismatch");
  }
  ByteReader r(ByteSpan(frame.data(), frame.size()));
  const auto status = static_cast<Status>(r.i32());
  if (!r.ok())
    throw SrbError(Status::kProtocol,
                   {remio::ErrorDomain::kProtocol,
                    static_cast<std::int32_t>(Status::kProtocol),
                    /*retryable=*/false, "rpc"},
                   "malformed response");
  const ByteSpan rest = r.rest();
  response.assign(rest.begin(), rest.end());
  return status;
}

Bytes SrbClient::rpc_ok(Op op, const Bytes& payload, const char* what) {
  Bytes response;
  const Status st = rpc(op, payload, response);
  if (st != Status::kOk)
    throw status_error(st, std::string(what) + ": " + status_name(st));
  return response;
}

std::int32_t SrbClient::open(const std::string& path, std::uint32_t flags) {
  Bytes payload;
  ByteWriter w(payload);
  w.str(path);
  w.u32(flags);
  const Bytes resp = rpc_ok(Op::kObjOpen, payload, "open");
  ByteReader r(ByteSpan(resp.data(), resp.size()));
  return r.i32();
}

void SrbClient::close(std::int32_t fd) {
  Bytes payload;
  ByteWriter w(payload);
  w.i32(fd);
  rpc_ok(Op::kObjClose, payload, "close");
}

std::size_t SrbClient::pread(std::int32_t fd, MutByteSpan out, std::uint64_t offset) {
  std::size_t total = 0;
  while (total < out.size()) {
    const std::size_t want = std::min(out.size() - total, kMaxIoChunk);
    Bytes payload;
    ByteWriter w(payload);
    w.i32(fd);
    w.i64(static_cast<std::int64_t>(offset + total));
    w.u32(static_cast<std::uint32_t>(want));
    const Bytes resp = rpc_ok(Op::kObjRead, payload, "read");
    ByteReader r(ByteSpan(resp.data(), resp.size()));
    const Bytes data = r.blob();
    std::copy(data.begin(), data.end(), out.begin() + static_cast<std::ptrdiff_t>(total));
    total += data.size();
    if (data.size() < want) break;  // EOF
  }
  return total;
}

std::size_t SrbClient::pwrite(std::int32_t fd, ByteSpan data, std::uint64_t offset) {
  std::size_t total = 0;
  while (total < data.size()) {
    const std::size_t n = std::min(data.size() - total, kMaxIoChunk);
    Bytes payload;
    ByteWriter w(payload);
    w.i32(fd);
    w.i64(static_cast<std::int64_t>(offset + total));
    w.blob(data.subspan(total, n));
    rpc_ok(Op::kObjWrite, payload, "write");
    total += n;
  }
  return total;
}

std::size_t SrbClient::preadv(std::int32_t fd, const ExtentList& extents,
                              MutByteSpan out) {
  if (extents.empty()) return 0;
  Bytes payload;
  ByteWriter w(payload);
  w.i32(fd);
  w.u32(static_cast<std::uint32_t>(extents.size()));
  for (const Extent& x : extents) {
    w.u64(x.offset);
    w.u32(static_cast<std::uint32_t>(x.len));
  }
  const Bytes resp = rpc_ok(Op::kObjReadList, payload, "readv");
  ByteReader r(ByteSpan(resp.data(), resp.size()));
  const std::uint32_t count = r.u32();
  if (count != extents.size())
    throw SrbError(Status::kProtocol,
                   {remio::ErrorDomain::kProtocol,
                    static_cast<std::int32_t>(Status::kProtocol),
                    /*retryable=*/false, "readv"},
                   "readv: extent count mismatch in response");
  std::vector<std::uint32_t> actual(count);
  for (std::uint32_t i = 0; i < count; ++i) actual[i] = r.u32();
  // Scatter each extent's actual bytes to its packed position; stop at the
  // first short extent (sorted list: everything later is past EOF too).
  std::size_t total = 0;
  std::size_t packed = 0;
  const ByteSpan data = r.rest();
  std::size_t consumed = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!r.ok() || actual[i] > extents[i].len ||
        consumed + actual[i] > data.size())
      throw SrbError(Status::kProtocol,
                     {remio::ErrorDomain::kProtocol,
                      static_cast<std::int32_t>(Status::kProtocol),
                      /*retryable=*/false, "readv"},
                     "readv: malformed response body");
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(consumed),
              data.begin() + static_cast<std::ptrdiff_t>(consumed + actual[i]),
              out.begin() + static_cast<std::ptrdiff_t>(packed));
    consumed += actual[i];
    total += actual[i];
    packed += extents[i].len;
    if (actual[i] < extents[i].len) break;
  }
  return total;
}

std::size_t SrbClient::pwritev(std::int32_t fd, const ExtentList& extents,
                               ByteSpan data) {
  if (extents.empty()) return 0;
  Bytes payload;
  ByteWriter w(payload);
  w.i32(fd);
  w.u32(static_cast<std::uint32_t>(extents.size()));
  for (const Extent& x : extents) {
    w.u64(x.offset);
    w.u32(static_cast<std::uint32_t>(x.len));
  }
  w.raw(data);
  const Bytes resp = rpc_ok(Op::kObjWriteList, payload, "writev");
  ByteReader r(ByteSpan(resp.data(), resp.size()));
  return static_cast<std::size_t>(r.u64());
}

std::size_t SrbClient::read(std::int32_t fd, MutByteSpan out) {
  std::size_t total = 0;
  while (total < out.size()) {
    const std::size_t want = std::min(out.size() - total, kMaxIoChunk);
    Bytes payload;
    ByteWriter w(payload);
    w.i32(fd);
    w.i64(-1);
    w.u32(static_cast<std::uint32_t>(want));
    const Bytes resp = rpc_ok(Op::kObjRead, payload, "read");
    ByteReader r(ByteSpan(resp.data(), resp.size()));
    const Bytes data = r.blob();
    std::copy(data.begin(), data.end(), out.begin() + static_cast<std::ptrdiff_t>(total));
    total += data.size();
    if (data.size() < want) break;
  }
  return total;
}

std::size_t SrbClient::write(std::int32_t fd, ByteSpan data) {
  std::size_t total = 0;
  while (total < data.size()) {
    const std::size_t n = std::min(data.size() - total, kMaxIoChunk);
    Bytes payload;
    ByteWriter w(payload);
    w.i32(fd);
    w.i64(-1);
    w.blob(data.subspan(total, n));
    rpc_ok(Op::kObjWrite, payload, "write");
    total += n;
  }
  return total;
}

std::int64_t SrbClient::seek(std::int32_t fd, std::int64_t offset, Whence whence) {
  Bytes payload;
  ByteWriter w(payload);
  w.i32(fd);
  w.i64(offset);
  w.u8(static_cast<std::uint8_t>(whence));
  const Bytes resp = rpc_ok(Op::kObjSeek, payload, "seek");
  ByteReader r(ByteSpan(resp.data(), resp.size()));
  return r.i64();
}

std::optional<ObjStat> SrbClient::stat(const std::string& path) {
  Bytes payload;
  ByteWriter w(payload);
  w.str(path);
  Bytes resp;
  const Status st = rpc(Op::kObjStat, payload, resp);
  if (st == Status::kNotFound) return std::nullopt;
  if (st != Status::kOk)
    throw status_error(st, std::string("stat: ") + status_name(st));
  ByteReader r(ByteSpan(resp.data(), resp.size()));
  ObjStat out;
  out.size = r.u64();
  out.object_id = r.u64();
  out.resource = r.str();
  return out;
}

void SrbClient::unlink(const std::string& path) {
  Bytes payload;
  ByteWriter w(payload);
  w.str(path);
  rpc_ok(Op::kObjUnlink, payload, "unlink");
}

void SrbClient::make_collection(const std::string& path) {
  Bytes payload;
  ByteWriter w(payload);
  w.str(path);
  rpc_ok(Op::kCollCreate, payload, "mkcoll");
}

std::vector<std::string> SrbClient::list(const std::string& collection) {
  Bytes payload;
  ByteWriter w(payload);
  w.str(collection);
  const Bytes resp = rpc_ok(Op::kCollList, payload, "list");
  ByteReader r(ByteSpan(resp.data(), resp.size()));
  const std::uint32_t count = r.u32();
  std::vector<std::string> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.push_back(r.str());
  return out;
}

void SrbClient::set_attr(const std::string& path, const std::string& key,
                         const std::string& value) {
  Bytes payload;
  ByteWriter w(payload);
  w.str(path);
  w.str(key);
  w.str(value);
  rpc_ok(Op::kSetAttr, payload, "set_attr");
}

std::optional<std::string> SrbClient::get_attr(const std::string& path,
                                               const std::string& key) {
  Bytes payload;
  ByteWriter w(payload);
  w.str(path);
  w.str(key);
  Bytes resp;
  const Status st = rpc(Op::kGetAttr, payload, resp);
  if (st == Status::kNotFound) return std::nullopt;
  if (st != Status::kOk)
    throw status_error(st, std::string("get_attr: ") + status_name(st));
  ByteReader r(ByteSpan(resp.data(), resp.size()));
  return r.str();
}

SrbClient::ScrubResult SrbClient::scrub() {
  const Bytes resp = rpc_ok(Op::kAdminScrub, {}, "scrub");
  ByteReader r(ByteSpan(resp.data(), resp.size()));
  ScrubResult out;
  out.objects = r.u64();
  out.blocks = r.u64();
  out.mismatched = r.u64();
  out.quarantined = r.u64();
  out.healed = r.u64();
  return out;
}

void SrbClient::disconnect() {
  {
    std::lock_guard lk(mu_);
    if (!connected_) return;
  }
  Bytes resp;
  try {
    rpc(Op::kDisconnect, {}, resp);
  } catch (...) {
    // Server may already be gone; disconnect is best-effort.
  }
  std::lock_guard lk(mu_);
  connected_ = false;
}

}  // namespace remio::srb
