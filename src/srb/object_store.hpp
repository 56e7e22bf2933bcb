// Physical object store behind the broker: sparse in-memory byte objects
// with token-bucket shaped "disk" service rates. Reads are served faster
// than writes (cache vs. commit), which is what skews the paper's Fig. 8
// read gains above the write gains.
//
// At-rest integrity: every object carries one CRC32C per kChecksumBlock
// bytes, set on the blocks a pwrite/truncate touches and verified on the
// blocks a pread covers. A write may bring the sums of the blocks it covers
// whole, taken from the bytes before they were copied in, so damage done by
// the copy fails the next read; other blocks are hashed from what landed. A
// read may return the CRC of the bytes it copied, composed from the sums it
// just verified. A mismatch throws IntegrityError (the server
// maps it to kChecksumMismatch, keeping the session); scrub() walks every
// block, quarantines objects that fail, and heals quarantined objects that
// verify clean again (after being rewritten). Reads of a quarantined
// object throw the quarantined flavour (wire status kQuarantined,
// non-retryable); writes stay allowed — they are the repair path.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/extent.hpp"
#include "simnet/token_bucket.hpp"
#include "srb/mcat.hpp"

namespace remio::srb {

struct StoreConfig {
  /// Bytes per simulated second; 0 = unshaped.
  double disk_read_rate = 0.0;
  double disk_write_rate = 0.0;
};

/// A stored block no longer matches its CRC (or the object is quarantined).
class IntegrityError : public remio::StatusError {
 public:
  IntegrityError(ObjectId id, const std::string& what, bool quarantined)
      : StatusError({remio::ErrorDomain::kIntegrity, 0,
                     /*retryable=*/!quarantined, "pread"},
                    what),
        object_(id),
        quarantined_(quarantined) {}
  ObjectId object() const { return object_; }
  bool quarantined() const { return quarantined_; }

 private:
  ObjectId object_;
  bool quarantined_;
};

struct ScrubReport {
  std::uint64_t objects = 0;      // objects walked
  std::uint64_t blocks = 0;       // blocks verified
  std::uint64_t mismatched = 0;   // blocks whose CRC failed
  std::uint64_t quarantined = 0;  // objects newly quarantined this pass
  std::uint64_t healed = 0;       // previously-quarantined objects now clean
};

class ObjectStore {
 public:
  /// At-rest checksum granularity: the 4 KiB I/O unit, so a 4 KiB op
  /// hashes 4 KiB. One 4 B sum per 4 KiB keeps the per-object overhead at
  /// 1/1024 of the payload.
  static constexpr std::uint64_t kChecksumBlock = 4u * 1024;

  explicit ObjectStore(const StoreConfig& cfg = {});

  /// Ensures the object exists (created empty on first touch).
  void create(ObjectId id);
  /// Removes the object; returns the bytes it held (0 if absent) so the
  /// caller can settle tenant byte accounting exactly.
  std::uint64_t remove(ObjectId id);
  bool exists(ObjectId id) const;

  /// pread semantics: reads up to out.size() bytes at `offset`; returns the
  /// count actually read (short at EOF, 0 past EOF). Verifies the CRC of
  /// every block the read covers first; throws IntegrityError on mismatch
  /// or when the object is quarantined. With `crc`, also stores the CRC32C
  /// of the bytes read there (see preadv).
  std::size_t pread(ObjectId id, MutByteSpan out, std::uint64_t offset,
                    std::uint32_t* crc = nullptr);

  /// List read: packs each extent's bytes into `out` in list order and
  /// returns the total. Extents are sorted and non-overlapping and `out`
  /// holds their total length; the read stops at the first short extent
  /// (the one EOF cuts), so extent i got min(len_i, bytes left of the
  /// total). One object lock, and each touched checksum block is verified
  /// once however many extents it holds. Throws like pread. With `crc`,
  /// also stores the CRC32C of the packed bytes there, composed from the
  /// verified sums of the whole blocks read; only partial blocks are hashed
  /// again.
  std::size_t preadv(ObjectId id, std::span<const Extent> extents,
                     MutByteSpan out, std::uint32_t* crc = nullptr);

  /// pwrite semantics: writes all of `data` at `offset`, zero-extending any
  /// gap. Concurrent writers to disjoint ranges are safe. Returns the
  /// object's growth in bytes (0 for a pure overwrite), computed under the
  /// per-object mutex, so per-tenant footprints can be settled exactly.
  /// `whole`, when not empty, holds the CRC32C of every block the write
  /// covers whole, in order (hash_blocks computes them): those blocks keep
  /// these sums instead of being hashed after the copy.
  std::uint64_t pwrite(ObjectId id, ByteSpan data, std::uint64_t offset,
                       std::span<const std::uint32_t> whole = {});

  /// List write: extent i takes the next len_i bytes of `data` (sorted,
  /// non-overlapping extents summing to data.size()). Returns the growth
  /// like pwrite. One object lock, and each touched checksum block gets
  /// its sum once. `whole` as for pwrite, over the extents in order.
  std::uint64_t pwritev(ObjectId id, std::span<const Extent> extents,
                        ByteSpan data,
                        std::span<const std::uint32_t> whole = {});

  /// Hashes `bytes`, bound for object offset `at`, onto the running CRC
  /// `crc` and returns crc32c(bytes, crc). The bytes are cut at
  /// kChecksumBlock boundaries: each piece that is a whole block is hashed
  /// alone, its CRC appended to `whole` (what pwrite/pwritev take) and
  /// folded in by one table step; partial pieces are hashed onto the
  /// running CRC. So a frame check and the at-rest sums share one pass.
  static std::uint32_t hash_blocks(ByteSpan bytes, std::uint64_t at,
                                   std::uint32_t crc,
                                   std::vector<std::uint32_t>& whole);

  /// Returns the signed size delta (new - old), exact under the object mutex.
  std::int64_t truncate(ObjectId id, std::uint64_t size);
  std::uint64_t size(ObjectId id) const;

  std::uint64_t total_bytes() const;

  // --- integrity ------------------------------------------------------------
  /// Bit-rot injection: flips one bit of the stored byte at `offset`
  /// WITHOUT updating the block CRC (the whole point). Returns false when
  /// the object is absent or the offset past EOF. Test/chaos hook; wired to
  /// simnet::FaultInjector::rot by the harness.
  bool corrupt(ObjectId id, std::uint64_t offset);

  /// Verifies every block of every object. Objects with a mismatch are
  /// quarantined; quarantined objects that verify clean again (their bad
  /// range was rewritten) are healed.
  ScrubReport scrub();

  bool is_quarantined(ObjectId id) const;

 private:
  struct Object {
    mutable std::mutex mu;
    Bytes data;
    /// CRC32C per kChecksumBlock chunk of `data`.
    std::vector<std::uint32_t> sums;
    bool quarantined = false;
  };

  std::shared_ptr<Object> find(ObjectId id) const;
  /// Sets sums for the blocks covering [begin, end) from block `next` on,
  /// and moves `next` past them, so a sorted run of ranges sums each block
  /// once. With `given`, a block `landed` covers whole takes the front of
  /// *given (which advances) while any are left; every other block is
  /// hashed. Caller holds the object mutex.
  void rehash_range(Object& obj, std::uint64_t begin, std::uint64_t end,
                    std::uint64_t& next, const Extent& landed = {},
                    std::span<const std::uint32_t>* given = nullptr) const;
  /// Verifies the blocks covering [begin, end) from block `next` on, moving
  /// `next` like rehash_range; returns the index of the first bad block or
  /// -1. Caller holds the object mutex.
  std::int64_t verify_range(const Object& obj, std::uint64_t begin,
                            std::uint64_t end, std::uint64_t& next) const;

  mutable std::mutex mu_;
  std::map<ObjectId, std::shared_ptr<Object>> objects_;
  simnet::TokenBucket disk_read_;
  simnet::TokenBucket disk_write_;
};

}  // namespace remio::srb
