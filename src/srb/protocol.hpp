// SRB wire protocol: length-framed request/response messages over a simnet
// socket. The verbs mirror the POSIX-equivalent synchronous API the real SRB
// exports (§3.1) — open/read/write/seek/close plus catalog operations.
//
//   request  := len:u32 opcode:u8 payload
//   response := len:u32 status:i32 payload
//
// len counts the bytes after the length field itself.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>

#include "common/bytes.hpp"
#include "simnet/socket.hpp"

namespace remio::srb {

enum class Op : std::uint8_t {
  kConnect = 1,
  kDisconnect = 2,
  kObjOpen = 3,
  kObjClose = 4,
  kObjRead = 5,
  kObjWrite = 6,
  kObjSeek = 7,
  kObjStat = 8,
  kObjUnlink = 9,
  kCollCreate = 10,
  kCollList = 11,
  kSetAttr = 12,
  kGetAttr = 13,
  // List I/O (noncontiguous access, Thakur et al.): one round-trip carries
  // many (offset, len) extents.
  //   kObjReadList request  := fd:i32 count:u32 count*(offset:u64 len:u32)
  //   kObjReadList response := count:u32 count*actual_len:u32 data...
  //   kObjWriteList request := fd:i32 count:u32 count*(offset:u64 len:u32)
  //                            data...   (concatenated, sum(len) bytes)
  //   kObjWriteList response:= total:u64
  // Extents must be sorted by offset, non-overlapping, and nonzero-length;
  // the server answers kInvalid (keeping the session) otherwise.
  kObjReadList = 14,
  kObjWriteList = 15,
  // Admin: walk every stored object's block checksums (ObjectStore::scrub).
  //   kAdminScrub request  := (empty)
  //   kAdminScrub response := objects:u64 blocks:u64 mismatched:u64
  //                           quarantined:u64 healed:u64
  kAdminScrub = 16,
};

enum class Status : std::int32_t {
  kOk = 0,
  kNotFound = -1,
  kExists = -2,
  kBadFd = -3,
  kIoError = -4,
  kProtocol = -5,
  kInvalid = -6,
  kNoMcat = -7,
  /// A per-tenant quota (objects, bytes, or inflight requests) would be
  /// exceeded. Semantic, session-preserving: the client can shed load or
  /// free space and retry.
  kQuotaExceeded = -8,
  /// A checksum failed: a frame arrived corrupted (in-flight bit flip) or a
  /// stored block no longer matches its at-rest CRC. Session-preserving and
  /// RETRYABLE — the request/response rhythm is intact, so the client can
  /// simply re-issue the idempotent, offset-addressed op.
  kChecksumMismatch = -9,
  /// The object failed a scrub and is quarantined: reads are refused until
  /// the data is rewritten and a re-scrub validates it. NOT retryable —
  /// replaying the read cannot succeed.
  kQuarantined = -10,
};

const char* status_name(Status s);

/// Open flags (bitmask).
enum OpenFlags : std::uint32_t {
  kRead = 1u << 0,
  kWrite = 1u << 1,
  kCreate = 1u << 2,
  kTrunc = 1u << 3,
};

/// Seek whence, matching POSIX semantics.
enum class Whence : std::uint8_t { kSet = 0, kCur = 1, kEnd = 2 };

/// Feature bits, requested at kConnect: the client appends a flags:u32 as
/// an optional trailing request field (omitted entirely when it wants no
/// features); the broker grants every known feature asked for and echoes
/// the grant as a trailing response field, only when the client sent one.
/// A client that asked for a feature and finds no grant treats the login
/// as damaged in flight (SrbClient throws a retryable NetError).
enum FeatureFlags : std::uint32_t {
  /// Every post-connect frame carries a CRC32C trailer (see send_request).
  kFeatureWireChecksums = 1u << 0,
};

/// Hard cap on a single message; protects the server from hostile lengths.
constexpr std::uint32_t kMaxMessage = 128u << 20;

/// Hard cap on the extent count in one list-I/O message (the per-extent
/// header alone is 12 bytes; this bounds server-side allocation before any
/// data is read).
constexpr std::uint32_t kMaxListExtents = 4096;

/// Wire bytes a list read spends per extent beyond its payload: the 12-byte
/// (offset:u64 len:u32) request descriptor plus the 4-byte actual_len:u32
/// in the reply. A read whose holes cost no more than this per extent is
/// cheaper as one contiguous fetch of the extents' hull.
constexpr std::uint64_t kListReadBytesPerExtent = 16;

/// Sends one request frame, [len][op:u8][body...], or with `crc` the
/// checksummed form [len][op:u8][body...][crc32c] (kFeatureWireChecksums
/// sessions), where len counts the trailer and the CRC32C covers
/// [op|body...], chained over the pieces. The length prefix itself stays
/// uncovered: it is what keeps the two ends in phase, and the fault model
/// (like TCP segmentation) preserves it, so a corrupted frame is still a
/// *complete* frame and the receiver can answer kChecksumMismatch in rhythm.
/// The frame goes out as one Socket::send_all whose pieces are the prefix,
/// each body piece and the trailer: a body is never concatenated first.
void send_request(simnet::Socket& sock, std::uint8_t op,
                  std::initializer_list<ByteSpan> body, bool crc);
/// The reply frame, [len][status:i32][body...] (+[crc32c]), sent the same
/// way. `tail_crc`, when given, is the CRC32C of the last body piece, which
/// the caller already holds: the trailer combines it with the CRC of what
/// precedes it (crc32c_combine) instead of hashing that piece.
void send_reply(simnet::Socket& sock, std::int32_t status,
                std::initializer_list<ByteSpan> body, bool crc,
                std::optional<std::uint32_t> tail_crc = std::nullopt);

/// Verifies and strips the CRC32C trailer of a received frame in place.
/// Returns false on mismatch (or a frame too short to carry the trailer);
/// the caller decides the reaction. The broker session does the same check
/// in pieces, sharing its pass over a write's payload with the store
/// (SrbServer's check_frame), and SrbClient checks replies as they land.
bool strip_frame_crc(FrameBuffer& frame);

/// Receives a frame's length prefix; returns false on clean EOF before a
/// frame. Throws simnet::NetError on a truncated or out-of-range length.
bool recv_frame_len(simnet::Socket& sock, std::uint32_t& len);

/// Receives one framed message into `out` (whose growth never zero-fills);
/// returns false on clean EOF before a frame. Throws simnet::NetError on
/// mid-frame EOF or oversized frames.
bool recv_frame(simnet::Socket& sock, FrameBuffer& out);

}  // namespace remio::srb
