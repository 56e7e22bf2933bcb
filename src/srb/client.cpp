#include "srb/client.hpp"

#include <algorithm>
#include <cstring>

#include "common/checksum.hpp"

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

/// A reply the broker could not have sent: not retryable, since replaying
/// the op against the same peer gets the same answer.
SrbError protocol_error(const char* where, const std::string& what) {
  return SrbError(Status::kProtocol,
                  {remio::ErrorDomain::kProtocol,
                   static_cast<std::int32_t>(Status::kProtocol),
                   /*retryable=*/false, where},
                  what);
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
  std::lock_guard lk(mu_);
  ByteWriter w = begin_request();
  w.str(client_name);
  w.str(tenant);
  // Feature flags are appended only when a feature is wanted, so a
  // checksums-off session carries no flags word at all.
  if (wire_checksums) w.u32(kFeatureWireChecksums);
  ByteReader r = call_ok(Op::kConnect, "connect").head;
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

ByteWriter SrbClient::begin_request() {
  tx_.clear();
  return ByteWriter(tx_);
}

SrbClient::Reply SrbClient::call(Op op, ByteSpan body, std::size_t head,
                                 MutByteSpan land) {
  if (!connected_)
    throw SrbError(Status::kIoError,
                   {remio::ErrorDomain::kTransport,
                    static_cast<std::int32_t>(Status::kIoError),
                    /*retryable=*/false, "rpc"},
                   "client disconnected");
  rpc_count_.fetch_add(1, std::memory_order_relaxed);
  send_request(*sock_, static_cast<std::uint8_t>(op), {tx_, body}, crc_);
  std::uint32_t len = 0;
  if (!recv_frame_len(*sock_, len))
    // Mid-stream EOF: the broker died or restarted. Transient — a
    // supervisor can reconnect and replay the op.
    throw SrbError(Status::kIoError,
                   {remio::ErrorDomain::kTransport,
                    static_cast<std::int32_t>(Status::kIoError),
                    /*retryable=*/true, "rpc"},
                   "server closed connection");
  // The frame content is [head][payload] and then the trailer. The head is
  // decoded in rx_, the payload lands in `land`, and whatever of it does
  // not fit follows the head in rx_, so the whole frame is always consumed.
  const std::size_t trailer = crc_ ? std::min<std::size_t>(4, len) : 0;
  const std::size_t content = len - trailer;
  const std::size_t head_n = std::min(head, content);
  const std::size_t payload = content - head_n;
  const std::size_t landed = std::min(payload, land.size());
  rx_.resize(len - landed);
  if (!sock_->recv_all(MutByteSpan(rx_.data(), head_n)) ||
      !sock_->recv_all(land.first(landed)) ||
      !sock_->recv_all(MutByteSpan(rx_.data() + head_n, rx_.size() - head_n)))
    throw simnet::NetError("truncated frame body");
  if (crc_) {
    std::uint32_t sum = crc32c(ByteSpan(rx_.data(), head_n));
    sum = crc32c(land.first(landed), sum);
    sum = crc32c(ByteSpan(rx_.data() + head_n, payload - landed), sum);
    std::uint32_t wire = 0;
    std::memcpy(&wire, rx_.data() + rx_.size() - trailer, trailer);
    if (len < 5 || sum != wire) {
      // The reply arrived corrupted. The framing held (the length prefix
      // is uncovered by design), so the stream is still in phase: the next
      // call simply re-issues the idempotent op. Retryable integrity error.
      crc_failures_.fetch_add(1, std::memory_order_relaxed);
      throw SrbError(Status::kChecksumMismatch,
                     {remio::ErrorDomain::kIntegrity,
                      static_cast<std::int32_t>(Status::kChecksumMismatch),
                      /*retryable=*/true, "rpc"},
                     "response frame checksum mismatch");
    }
  }
  ByteReader r(ByteSpan(rx_.data(), head_n));
  const auto status = static_cast<Status>(r.i32());
  if (!r.ok()) throw protocol_error("rpc", "malformed response");
  return {status, r, payload};
}

SrbClient::Reply SrbClient::call_ok(Op op, const char* what, ByteSpan body,
                                    std::size_t head, MutByteSpan land) {
  Reply rep = call(op, body, head, land);
  if (rep.status != Status::kOk)
    throw status_error(rep.status,
                       std::string(what) + ": " + status_name(rep.status));
  return rep;
}

std::int32_t SrbClient::open(const std::string& path, std::uint32_t flags) {
  std::lock_guard lk(mu_);
  ByteWriter w = begin_request();
  w.str(path);
  w.u32(flags);
  return call_ok(Op::kObjOpen, "open").head.i32();
}

void SrbClient::close(std::int32_t fd) {
  std::lock_guard lk(mu_);
  begin_request().i32(fd);
  call_ok(Op::kObjClose, "close");
}

std::size_t SrbClient::read_chunks(std::int32_t fd, MutByteSpan out,
                                   std::int64_t offset) {
  std::lock_guard lk(mu_);
  std::size_t total = 0;
  while (total < out.size()) {
    const std::size_t want = std::min(out.size() - total, kMaxIoChunk);
    ByteWriter w = begin_request();
    w.i32(fd);
    w.i64(offset < 0 ? -1 : offset + static_cast<std::int64_t>(total));
    w.u32(static_cast<std::uint32_t>(want));
    // Reply: status, then the blob's u32 length, then its bytes.
    Reply rep = call_ok(Op::kObjRead, "read", {}, 8, out.subspan(total, want));
    const std::uint32_t n = rep.head.u32();
    if (!rep.head.ok() || n != rep.payload || n > want)
      throw protocol_error("read",
                           "read: reply length disagrees with the request");
    total += n;
    if (n < want) break;  // EOF
  }
  return total;
}

std::size_t SrbClient::write_chunks(std::int32_t fd, ByteSpan data,
                                    std::int64_t offset) {
  std::lock_guard lk(mu_);
  std::size_t total = 0;
  while (total < data.size()) {
    const std::size_t n = std::min(data.size() - total, kMaxIoChunk);
    ByteWriter w = begin_request();
    w.i32(fd);
    w.i64(offset < 0 ? -1 : offset + static_cast<std::int64_t>(total));
    w.u32(static_cast<std::uint32_t>(n));  // blob length; the bytes follow
    call_ok(Op::kObjWrite, "write", data.subspan(total, n));
    total += n;
  }
  return total;
}

std::size_t SrbClient::pread(std::int32_t fd, MutByteSpan out,
                             std::uint64_t offset) {
  return read_chunks(fd, out, static_cast<std::int64_t>(offset));
}

std::size_t SrbClient::pwrite(std::int32_t fd, ByteSpan data,
                              std::uint64_t offset) {
  return write_chunks(fd, data, static_cast<std::int64_t>(offset));
}

std::size_t SrbClient::read(std::int32_t fd, MutByteSpan out) {
  return read_chunks(fd, out, -1);
}

std::size_t SrbClient::write(std::int32_t fd, ByteSpan data) {
  return write_chunks(fd, data, -1);
}

namespace {

void put_extents(ByteWriter& w, std::int32_t fd, const ExtentList& extents) {
  w.i32(fd);
  w.u32(static_cast<std::uint32_t>(extents.size()));
  for (const Extent& x : extents) {
    w.u64(x.offset);
    w.u32(static_cast<std::uint32_t>(x.len));
  }
}

}  // namespace

std::size_t SrbClient::preadv(std::int32_t fd, const ExtentList& extents,
                              MutByteSpan out) {
  if (extents.empty()) return 0;
  std::lock_guard lk(mu_);
  ByteWriter w = begin_request();
  put_extents(w, fd, extents);
  // Reply: status, count, count actual lengths, then the data, which is
  // already packed in `out`'s order (only the extent EOF cuts is short).
  const std::size_t count = extents.size();
  Reply rep = call_ok(Op::kObjReadList, "readv", {}, 8 + 4 * count, out);
  if (rep.head.u32() != count)
    throw protocol_error("readv", "readv: extent count mismatch in response");
  std::size_t total = 0;
  bool cut = false;  // an earlier extent came back short
  for (const Extent& x : extents) {
    const std::uint32_t n = rep.head.u32();
    if (n > x.len || (cut && n > 0))
      throw protocol_error("readv", "readv: malformed response body");
    cut = n < x.len;
    total += n;
  }
  if (!rep.head.ok() || total != rep.payload || total > out.size())
    throw protocol_error("readv", "readv: malformed response body");
  return total;
}

std::size_t SrbClient::pwritev(std::int32_t fd, const ExtentList& extents,
                               ByteSpan data) {
  if (extents.empty()) return 0;
  std::lock_guard lk(mu_);
  ByteWriter w = begin_request();
  put_extents(w, fd, extents);
  return static_cast<std::size_t>(
      call_ok(Op::kObjWriteList, "writev", data).head.u64());
}

std::int64_t SrbClient::seek(std::int32_t fd, std::int64_t offset, Whence whence) {
  std::lock_guard lk(mu_);
  ByteWriter w = begin_request();
  w.i32(fd);
  w.i64(offset);
  w.u8(static_cast<std::uint8_t>(whence));
  return call_ok(Op::kObjSeek, "seek").head.i64();
}

std::optional<ObjStat> SrbClient::stat(const std::string& path) {
  std::lock_guard lk(mu_);
  begin_request().str(path);
  Reply rep = call(Op::kObjStat);
  if (rep.status == Status::kNotFound) return std::nullopt;
  if (rep.status != Status::kOk)
    throw status_error(rep.status,
                       std::string("stat: ") + status_name(rep.status));
  ObjStat out;
  out.size = rep.head.u64();
  out.object_id = rep.head.u64();
  out.resource = rep.head.str();
  return out;
}

void SrbClient::unlink(const std::string& path) {
  std::lock_guard lk(mu_);
  begin_request().str(path);
  call_ok(Op::kObjUnlink, "unlink");
}

void SrbClient::make_collection(const std::string& path) {
  std::lock_guard lk(mu_);
  begin_request().str(path);
  call_ok(Op::kCollCreate, "mkcoll");
}

std::vector<std::string> SrbClient::list(const std::string& collection) {
  std::lock_guard lk(mu_);
  begin_request().str(collection);
  ByteReader r = call_ok(Op::kCollList, "list").head;
  const std::uint32_t count = r.u32();
  std::vector<std::string> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) out.push_back(r.str());
  return out;
}

void SrbClient::set_attr(const std::string& path, const std::string& key,
                         const std::string& value) {
  std::lock_guard lk(mu_);
  ByteWriter w = begin_request();
  w.str(path);
  w.str(key);
  w.str(value);
  call_ok(Op::kSetAttr, "set_attr");
}

std::optional<std::string> SrbClient::get_attr(const std::string& path,
                                               const std::string& key) {
  std::lock_guard lk(mu_);
  ByteWriter w = begin_request();
  w.str(path);
  w.str(key);
  Reply rep = call(Op::kGetAttr);
  if (rep.status == Status::kNotFound) return std::nullopt;
  if (rep.status != Status::kOk)
    throw status_error(rep.status,
                       std::string("get_attr: ") + status_name(rep.status));
  return rep.head.str();
}

SrbClient::ScrubResult SrbClient::scrub() {
  std::lock_guard lk(mu_);
  begin_request();
  ByteReader r = call_ok(Op::kAdminScrub, "scrub").head;
  ScrubResult out;
  out.objects = r.u64();
  out.blocks = r.u64();
  out.mismatched = r.u64();
  out.quarantined = r.u64();
  out.healed = r.u64();
  return out;
}

void SrbClient::disconnect() {
  std::lock_guard lk(mu_);
  if (!connected_) return;
  try {
    begin_request();
    call(Op::kDisconnect);
  } catch (...) {
    // Server may already be gone; disconnect is best-effort.
  }
  connected_ = false;
}

}  // namespace remio::srb
