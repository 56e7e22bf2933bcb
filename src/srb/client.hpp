// Synchronous SRB client — the POSIX-equivalent blocking API (§3.1). This
// is deliberately *synchronous only*, exactly like the real SRB: the
// asynchronous capability lives one layer up in SEMPLAR (src/core), built
// with dedicated I/O threads over these blocking calls (§4.3).
//
// A client owns one TCP stream to the broker. SEMPLAR opens one client per
// stream, so each I/O thread drives its own connection.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/extent.hpp"
#include "simnet/fabric.hpp"
#include "srb/protocol.hpp"

namespace remio::srb {

/// SRB failure carrying both the wire-level srb::Status and the shared
/// remio::ErrorInfo taxonomy (domain / retryable — see common/error.hpp).
/// The two-argument constructor classifies broker responses: the broker
/// answered, so the failure is semantic and not retryable. Transport-level
/// throw sites pass an explicit ErrorInfo instead.
class SrbError : public remio::StatusError {
 public:
  SrbError(Status status, const std::string& what)
      : StatusError({remio::ErrorDomain::kBroker,
                     static_cast<std::int32_t>(status),
                     /*retryable=*/false,
                     {}},
                    what),
        status_(status) {}
  SrbError(Status status, remio::ErrorInfo info, const std::string& what)
      : StatusError(std::move(info), what), status_(status) {}
  Status status() const { return status_; }

 private:
  Status status_;
};

struct ObjStat {
  std::uint64_t size = 0;
  std::uint64_t object_id = 0;
  std::string resource;
};

class SrbClient {
 public:
  /// Dials the broker and performs the Connect handshake (one extra RTT,
  /// like the real SRB login). Throws on failure. A non-empty `tenant`
  /// logs in under that tenant identity: when the broker runs in
  /// multi-tenant mode the session is confined to /tenants/<tenant> and
  /// subject to its quotas; a single-tenant broker ignores it.
  /// `wire_checksums` requests per-frame CRC32C protection at connect; a
  /// login whose reply does not grant it throws a retryable transport
  /// NetError (the login exchange itself is unchecksummed, so only damage
  /// in flight can drop the grant).
  SrbClient(simnet::Fabric& fabric, const std::string& from_host,
            const std::string& server_host, int port,
            const simnet::ConnectOptions& opts = {},
            const std::string& client_name = "remio-client",
            const std::string& tenant = "", bool wire_checksums = true);
  ~SrbClient();

  SrbClient(const SrbClient&) = delete;
  SrbClient& operator=(const SrbClient&) = delete;

  /// Opens (optionally creating/truncating) a data object; returns a
  /// server-side descriptor. Throws SrbError on failure.
  std::int32_t open(const std::string& path, std::uint32_t flags);
  void close(std::int32_t fd);

  /// pread/pwrite (explicit offset, does not move the file pointer).
  ///
  /// Every read verb (pread, preadv, read) lands the reply's payload
  /// straight in `out` and verifies the frame's CRC afterwards, so when it
  /// throws, `out` holds unspecified bytes: a caller counts nothing in it as
  /// read unless the call returned. A reply whose payload is longer than
  /// requested, or disagrees with its own length fields, is drained (the
  /// stream stays in phase) and throws kProtocol.
  std::size_t pread(std::int32_t fd, MutByteSpan out, std::uint64_t offset);
  std::size_t pwrite(std::int32_t fd, ByteSpan data, std::uint64_t offset);

  /// List I/O: the whole extent list travels in ONE protocol message (one
  /// round-trip), so the caller must pre-batch against kMaxListExtents and
  /// kMaxMessage/2 total bytes. Extents must be sorted and non-overlapping;
  /// `out`/`data` are packed buffers (extent contents in list order). A read
  /// returns total bytes and stops at the first short extent.
  std::size_t preadv(std::int32_t fd, const ExtentList& extents, MutByteSpan out);
  std::size_t pwritev(std::int32_t fd, const ExtentList& extents, ByteSpan data);

  /// read/write at the (server-side) individual file pointer.
  std::size_t read(std::int32_t fd, MutByteSpan out);
  std::size_t write(std::int32_t fd, ByteSpan data);
  std::int64_t seek(std::int32_t fd, std::int64_t offset, Whence whence);

  std::optional<ObjStat> stat(const std::string& path);
  void unlink(const std::string& path);
  void make_collection(const std::string& path);
  std::vector<std::string> list(const std::string& collection);
  void set_attr(const std::string& path, const std::string& key,
                const std::string& value);
  std::optional<std::string> get_attr(const std::string& path,
                                      const std::string& key);

  /// Admin: broker-wide at-rest checksum scrub (kAdminScrub). Quarantines
  /// objects with mismatched blocks, heals rewritten ones; see
  /// ObjectStore::scrub.
  struct ScrubResult {
    std::uint64_t objects = 0;
    std::uint64_t blocks = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t quarantined = 0;
    std::uint64_t healed = 0;
  };
  ScrubResult scrub();

  /// Orderly disconnect; further calls fail. Idempotent.
  void disconnect();

  const std::string& server_banner() const { return banner_; }
  std::uint64_t bytes_sent() const { return sock_->bytes_sent(); }
  std::uint64_t bytes_received() const { return sock_->bytes_received(); }
  /// Protocol round-trips issued so far (each is one request/response pair
  /// on the wire); lets tests verify e.g. that one list-I/O message
  /// really carried N extents.
  std::uint64_t rpc_count() const {
    return rpc_count_.load(std::memory_order_relaxed);
  }
  /// True when the session runs per-frame CRC32C (as requested at connect).
  bool wire_checksums() const { return crc_; }
  /// Corrupted response frames this client detected itself (each one also
  /// surfaced as a retryable kIntegrity error).
  std::uint64_t crc_failures() const {
    return crc_failures_.load(std::memory_order_relaxed);
  }

  /// Writes larger than this are split into multiple protocol messages.
  static constexpr std::size_t kMaxIoChunk = 8u << 20;

 private:
  /// A decoded reply: its status, a reader over the rest of the fixed head
  /// (a view of rx_, valid while mu_ stays held) and the length of the
  /// payload that followed the head.
  struct Reply {
    Status status;
    ByteReader head;
    std::size_t payload;
  };

  /// Clears tx_ and returns a writer for the next request's head. Caller
  /// holds mu_.
  ByteWriter begin_request();
  /// One request/reply exchange; caller holds mu_. Sends [op][tx_][body] as
  /// one frame. Receives the reply's first `head` content bytes (status
  /// included) into rx_ and the payload after them into `land`; a payload
  /// longer than `land` is drained into rx_. Then verifies the CRC.
  Reply call(Op op, ByteSpan body = {}, std::size_t head = SIZE_MAX,
             MutByteSpan land = {});
  /// call() that throws SrbError unless the status is kOk.
  Reply call_ok(Op op, const char* what, ByteSpan body = {},
                std::size_t head = SIZE_MAX, MutByteSpan land = {});
  /// pread (offset >= 0) and read (offset < 0: the file pointer).
  std::size_t read_chunks(std::int32_t fd, MutByteSpan out,
                          std::int64_t offset);
  /// pwrite (offset >= 0) and write (offset < 0: the file pointer).
  std::size_t write_chunks(std::int32_t fd, ByteSpan data,
                           std::int64_t offset);

  std::unique_ptr<simnet::Socket> sock_;
  std::mutex mu_;  // serializes request/response pairs; guards tx_ and rx_
  Bytes tx_;        // the request head being encoded
  FrameBuffer rx_;  // the reply being decoded, minus any landed payload
  std::string banner_;
  std::atomic<std::uint64_t> rpc_count_{0};
  std::atomic<std::uint64_t> crc_failures_{0};
  bool connected_ = false;
  bool crc_ = false;  // negotiated at connect; frames after it are covered
};

}  // namespace remio::srb
