#include "srb/object_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/checksum.hpp"

namespace remio::srb {

ObjectStore::ObjectStore(const StoreConfig& cfg)
    : disk_read_(cfg.disk_read_rate, 0.0, "disk-read"),
      disk_write_(cfg.disk_write_rate, 0.0, "disk-write") {}

void ObjectStore::create(ObjectId id) {
  std::lock_guard lk(mu_);
  if (objects_.count(id) == 0) objects_[id] = std::make_shared<Object>();
}

std::uint64_t ObjectStore::remove(ObjectId id) {
  std::shared_ptr<Object> victim;
  {
    std::lock_guard lk(mu_);
    const auto it = objects_.find(id);
    if (it == objects_.end()) return 0;
    victim = std::move(it->second);
    objects_.erase(it);
  }
  std::lock_guard olk(victim->mu);
  return victim->data.size();
}

bool ObjectStore::exists(ObjectId id) const {
  std::lock_guard lk(mu_);
  return objects_.count(id) != 0;
}

std::shared_ptr<ObjectStore::Object> ObjectStore::find(ObjectId id) const {
  std::lock_guard lk(mu_);
  const auto it = objects_.find(id);
  if (it == objects_.end()) throw std::out_of_range("no such object");
  return it->second;
}

namespace {

constexpr std::uint64_t kBlock = ObjectStore::kChecksumBlock;
static_assert(kBlock == 4096, "crc32c_combine_4k folds exactly one block");

/// The one block walker. Hands visit(b, lo, hi) every kChecksumBlock block
/// [lo, hi) of an object of `size` bytes (the last block may be short) that
/// overlaps [begin, end), from block `next` on, in order, until visit
/// returns false. `next` ends one past the last block visited, so a sorted
/// run of ranges visits each block once.
template <class Visit>
void walk_blocks(std::uint64_t size, std::uint64_t begin, std::uint64_t end,
                 std::uint64_t& next, Visit visit) {
  end = std::min(end, size);
  if (begin >= end) return;
  for (std::uint64_t b = std::max(begin / kBlock, next); b * kBlock < end;
       ++b) {
    const std::uint64_t lo = b * kBlock;
    next = b + 1;
    if (!visit(b, lo, std::min(lo + kBlock, size))) return;
  }
}

std::uint32_t block_crc(const Bytes& data, std::uint64_t lo,
                        std::uint64_t hi) {
  return crc32c(
      ByteSpan(data.data() + lo, static_cast<std::size_t>(hi - lo)));
}

/// Folds `bytes`, which sit at object offset `at`, onto the running CRC
/// `crc`, cut at block boundaries: a piece that is a whole block is folded
/// in by one table step from whole(b, piece), a partial edge piece is
/// hashed onto the running CRC. The result is crc32c(bytes, crc) whenever
/// whole() returns each whole piece's CRC.
template <class Whole>
std::uint32_t fold_blocks(ByteSpan bytes, std::uint64_t at, std::uint32_t crc,
                          Whole whole) {
  const std::uint64_t end = at + bytes.size();
  std::uint64_t next = 0;
  walk_blocks(end, at, end, next,
              [&](std::uint64_t b, std::uint64_t lo, std::uint64_t hi) {
                const std::uint64_t from = std::max(lo, at);
                const ByteSpan piece =
                    bytes.subspan(static_cast<std::size_t>(from - at),
                                  static_cast<std::size_t>(hi - from));
                crc = piece.size() == kBlock
                          ? crc32c_combine_4k(crc, whole(b, piece))
                          : crc32c(piece, crc);
                return true;
              });
  return crc;
}

/// Blocks that [offset, end) covers whole.
std::uint64_t whole_blocks(const Extent& x) {
  const std::uint64_t first = (x.offset + kBlock - 1) / kBlock;
  const std::uint64_t last = x.end() / kBlock;
  return last > first ? last - first : 0;
}

}  // namespace

std::uint32_t ObjectStore::hash_blocks(ByteSpan bytes, std::uint64_t at,
                                       std::uint32_t crc,
                                       std::vector<std::uint32_t>& whole) {
  return fold_blocks(bytes, at, crc, [&](std::uint64_t, ByteSpan piece) {
    whole.push_back(crc32c(piece));
    return whole.back();
  });
}

void ObjectStore::rehash_range(Object& obj, std::uint64_t begin,
                               std::uint64_t end, std::uint64_t& next,
                               const Extent& landed,
                               std::span<const std::uint32_t>* given) const {
  obj.sums.resize(
      static_cast<std::size_t>((obj.data.size() + kBlock - 1) / kBlock));
  walk_blocks(obj.data.size(), begin, end, next,
              [&](std::uint64_t b, std::uint64_t lo, std::uint64_t hi) {
                std::uint32_t& sum = obj.sums[static_cast<std::size_t>(b)];
                if (given != nullptr && !given->empty() &&
                    lo >= landed.offset && lo + kBlock <= landed.end()) {
                  sum = given->front();
                  *given = given->subspan(1);
                } else {
                  sum = block_crc(obj.data, lo, hi);
                }
                return true;
              });
}

std::int64_t ObjectStore::verify_range(const Object& obj, std::uint64_t begin,
                                       std::uint64_t end,
                                       std::uint64_t& next) const {
  std::int64_t bad = -1;
  walk_blocks(obj.data.size(), begin, end, next,
              [&](std::uint64_t b, std::uint64_t lo, std::uint64_t hi) {
                if (block_crc(obj.data, lo, hi) ==
                    obj.sums[static_cast<std::size_t>(b)])
                  return true;
                bad = static_cast<std::int64_t>(b);
                return false;
              });
  return bad;
}

std::size_t ObjectStore::pread(ObjectId id, MutByteSpan out,
                               std::uint64_t offset, std::uint32_t* crc) {
  const Extent x{offset, out.size()};
  return preadv(id, std::span<const Extent>(&x, 1), out, crc);
}

std::size_t ObjectStore::preadv(ObjectId id, std::span<const Extent> extents,
                                MutByteSpan out, std::uint32_t* crc) {
  auto obj = find(id);
  std::size_t total = 0;
  std::uint32_t sum = 0;
  {
    std::lock_guard lk(obj->mu);
    if (obj->quarantined)
      throw IntegrityError(id, "object " + std::to_string(id) +
                                   " is quarantined pending repair",
                           /*quarantined=*/true);
    const std::uint64_t size = obj->data.size();
    std::uint64_t next = 0;  // first block not yet verified
    for (const Extent& x : extents) {
      if (x.offset >= size) break;
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(x.len, size - x.offset));
      const std::int64_t bad = verify_range(*obj, x.offset, x.offset + n, next);
      if (bad >= 0)
        throw IntegrityError(
            id,
            "at-rest checksum mismatch in object " + std::to_string(id) +
                " block " + std::to_string(bad),
            /*quarantined=*/false);
      const ByteSpan bytes(obj->data.data() + x.offset, n);
      std::copy_n(bytes.data(), n, out.data() + total);
      // Every block this extent touches just verified against its sum, so
      // a whole block's sum is the CRC of its bytes: fold it in, and hash
      // only the partial edges.
      if (crc != nullptr)
        sum = fold_blocks(bytes, x.offset, sum,
                          [&](std::uint64_t b, ByteSpan) {
                            return obj->sums[static_cast<std::size_t>(b)];
                          });
      total += n;
      if (n < x.len) break;
    }
  }
  if (crc != nullptr) *crc = sum;
  disk_read_.acquire(total);  // charge outside the object lock
  return total;
}

std::uint64_t ObjectStore::pwrite(ObjectId id, ByteSpan data,
                                  std::uint64_t offset,
                                  std::span<const std::uint32_t> whole) {
  const Extent x{offset, data.size()};
  return pwritev(id, std::span<const Extent>(&x, 1), data, whole);
}

std::uint64_t ObjectStore::pwritev(ObjectId id, std::span<const Extent> extents,
                                   ByteSpan data,
                                   std::span<const std::uint32_t> whole) {
  if (!whole.empty()) {
    std::uint64_t expected = 0;
    for (const Extent& x : extents) expected += whole_blocks(x);
    if (whole.size() != expected)
      throw std::invalid_argument("pwritev: one sum per whole block expected");
  }
  auto obj = find(id);
  std::uint64_t growth = 0;
  {
    std::lock_guard lk(obj->mu);
    const std::uint64_t old_size = obj->data.size();
    std::uint64_t end = old_size;
    for (const Extent& x : extents) end = std::max(end, x.end());
    if (end > old_size) {
      growth = end - old_size;
      obj->data.resize(end, '\0');
    }
    std::size_t consumed = 0;
    for (const Extent& x : extents) {
      std::copy_n(data.data() + consumed, x.len, obj->data.data() + x.offset);
      consumed += x.len;
    }
    // Sums after every extent landed: two extents may share a block. The
    // zero-extension gap in front of an extent, [old size, offset), gets
    // fresh bytes too, so its blocks need new sums along with the extent.
    // A block an extent covers whole keeps the sum the caller took of the
    // bytes it sent, so a byte this copy damages fails the next read.
    std::uint64_t next = 0;
    std::uint64_t prev_end = 0;
    for (const Extent& x : extents) {
      const std::uint64_t touch =
          std::min(x.offset, std::max(old_size, prev_end));
      rehash_range(*obj, touch, x.end(), next, x, &whole);
      prev_end = x.end();
    }
  }
  disk_write_.acquire(data.size());
  return growth;
}

std::int64_t ObjectStore::truncate(ObjectId id, std::uint64_t size) {
  auto obj = find(id);
  std::lock_guard lk(obj->mu);
  const std::uint64_t old = obj->data.size();
  const std::int64_t delta =
      static_cast<std::int64_t>(size) - static_cast<std::int64_t>(old);
  obj->data.resize(size, '\0');
  // Shrink: the (new) last block changed shape. Grow: the zero tail is new.
  std::uint64_t next = 0;
  rehash_range(*obj, std::min(old, size) > 0 ? std::min(old, size) - 1 : 0,
               size, next);
  return delta;
}

std::uint64_t ObjectStore::size(ObjectId id) const {
  auto obj = find(id);
  std::lock_guard lk(obj->mu);
  return obj->data.size();
}

std::uint64_t ObjectStore::total_bytes() const {
  std::lock_guard lk(mu_);
  std::uint64_t total = 0;
  for (const auto& [id, obj] : objects_) {
    std::lock_guard olk(obj->mu);
    total += obj->data.size();
  }
  return total;
}

bool ObjectStore::corrupt(ObjectId id, std::uint64_t offset) {
  std::shared_ptr<Object> obj;
  try {
    obj = find(id);
  } catch (const std::out_of_range&) {
    return false;
  }
  std::lock_guard lk(obj->mu);
  if (offset >= obj->data.size()) return false;
  obj->data[static_cast<std::size_t>(offset)] ^= 0x01;
  return true;
}

ScrubReport ObjectStore::scrub() {
  ScrubReport rep;
  // Snapshot the object set, then verify per object under its own mutex so
  // live sessions keep making progress on untouched objects.
  std::vector<std::shared_ptr<Object>> snapshot;
  {
    std::lock_guard lk(mu_);
    snapshot.reserve(objects_.size());
    for (const auto& [id, obj] : objects_) snapshot.push_back(obj);
  }
  for (const auto& obj : snapshot) {
    std::lock_guard lk(obj->mu);
    ++rep.objects;
    rep.blocks += (obj->data.size() + kBlock - 1) / kBlock;
    std::uint64_t mismatched = 0;
    std::uint64_t next = 0;
    walk_blocks(obj->data.size(), 0, obj->data.size(), next,
                [&](std::uint64_t b, std::uint64_t lo, std::uint64_t hi) {
                  if (block_crc(obj->data, lo, hi) !=
                      obj->sums[static_cast<std::size_t>(b)])
                    ++mismatched;
                  return true;
                });
    rep.mismatched += mismatched;
    if (mismatched > 0) {
      if (!obj->quarantined) {
        obj->quarantined = true;
        ++rep.quarantined;
      }
    } else if (obj->quarantined) {
      obj->quarantined = false;
      ++rep.healed;
    }
  }
  return rep;
}

bool ObjectStore::is_quarantined(ObjectId id) const {
  auto obj = find(id);
  std::lock_guard lk(obj->mu);
  return obj->quarantined;
}

}  // namespace remio::srb
