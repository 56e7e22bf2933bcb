// Physical object store behind the broker: sparse in-memory byte objects
// with token-bucket shaped "disk" service rates. Reads are served faster
// than writes (cache vs. commit), which is what skews the paper's Fig. 8
// read gains above the write gains.
//
// At-rest integrity: every object carries one CRC32C per kChecksumBlock
// bytes, recomputed on the blocks a pwrite/truncate touches and verified on
// the blocks a pread covers. A mismatch throws IntegrityError (the server
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
  /// or when the object is quarantined.
  std::size_t pread(ObjectId id, MutByteSpan out, std::uint64_t offset);

  /// List read: packs each extent's bytes into `out` in list order and
  /// returns the total. Extents are sorted and non-overlapping and `out`
  /// holds their total length; the read stops at the first short extent
  /// (the one EOF cuts), so extent i got min(len_i, bytes left of the
  /// total). One object lock, and each touched checksum block is verified
  /// once however many extents it holds. Throws like pread.
  std::size_t preadv(ObjectId id, std::span<const Extent> extents,
                     MutByteSpan out);

  /// pwrite semantics: writes all of `data` at `offset`, zero-extending any
  /// gap. Concurrent writers to disjoint ranges are safe. Returns the
  /// object's growth in bytes (0 for a pure overwrite), computed under the
  /// per-object mutex, so per-tenant footprints can be settled exactly.
  std::uint64_t pwrite(ObjectId id, ByteSpan data, std::uint64_t offset);

  /// List write: extent i takes the next len_i bytes of `data` (sorted,
  /// non-overlapping extents summing to data.size()). Returns the growth
  /// like pwrite. One object lock, and each touched checksum block is
  /// rehashed once.
  std::uint64_t pwritev(ObjectId id, std::span<const Extent> extents,
                        ByteSpan data);

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
  /// Recomputes sums for the blocks covering [begin, end) from block
  /// `next` on, and moves `next` past them, so a sorted run of ranges
  /// hashes each block once. Caller holds the object mutex.
  void rehash_range(Object& obj, std::uint64_t begin, std::uint64_t end,
                    std::uint64_t& next) const;
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
