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

/// Hands visit(block, crc) the CRC of every kChecksumBlock block that
/// overlaps [begin, end) of `data`, from block `next` on, in order, until
/// visit returns false. `next` ends one past the last block visited.
template <class Visit>
void walk_blocks(const Bytes& data, std::uint64_t begin, std::uint64_t end,
                 std::uint64_t& next, Visit visit) {
  const std::uint64_t bs = ObjectStore::kChecksumBlock;
  end = std::min<std::uint64_t>(end, data.size());
  if (begin >= end) return;
  for (std::uint64_t b = std::max(begin / bs, next); b * bs < end; ++b) {
    const std::uint64_t lo = b * bs;
    const std::uint64_t hi = std::min<std::uint64_t>(lo + bs, data.size());
    next = b + 1;
    if (!visit(b, crc32c(ByteSpan(data.data() + lo,
                                  static_cast<std::size_t>(hi - lo)))))
      return;
  }
}

}  // namespace

void ObjectStore::rehash_range(Object& obj, std::uint64_t begin,
                               std::uint64_t end, std::uint64_t& next) const {
  const std::uint64_t bs = kChecksumBlock;
  obj.sums.resize(static_cast<std::size_t>((obj.data.size() + bs - 1) / bs));
  walk_blocks(obj.data, begin, end, next,
              [&](std::uint64_t b, std::uint32_t crc) {
                obj.sums[static_cast<std::size_t>(b)] = crc;
                return true;
              });
}

std::int64_t ObjectStore::verify_range(const Object& obj, std::uint64_t begin,
                                       std::uint64_t end,
                                       std::uint64_t& next) const {
  std::int64_t bad = -1;
  walk_blocks(obj.data, begin, end, next,
              [&](std::uint64_t b, std::uint32_t crc) {
                if (crc == obj.sums[static_cast<std::size_t>(b)]) return true;
                bad = static_cast<std::int64_t>(b);
                return false;
              });
  return bad;
}

std::size_t ObjectStore::pread(ObjectId id, MutByteSpan out,
                               std::uint64_t offset) {
  const Extent x{offset, out.size()};
  return preadv(id, std::span<const Extent>(&x, 1), out);
}

std::size_t ObjectStore::preadv(ObjectId id, std::span<const Extent> extents,
                                MutByteSpan out) {
  auto obj = find(id);
  std::size_t total = 0;
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
      std::copy_n(obj->data.data() + x.offset, n, out.data() + total);
      total += n;
      if (n < x.len) break;
    }
  }
  disk_read_.acquire(total);  // charge outside the object lock
  return total;
}

std::uint64_t ObjectStore::pwrite(ObjectId id, ByteSpan data,
                                  std::uint64_t offset) {
  const Extent x{offset, data.size()};
  return pwritev(id, std::span<const Extent>(&x, 1), data);
}

std::uint64_t ObjectStore::pwritev(ObjectId id, std::span<const Extent> extents,
                                   ByteSpan data) {
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
    // Hash after every extent landed: two extents may share a block. The
    // zero-extension gap in front of an extent, [old size, offset), gets
    // fresh bytes too, so its blocks need new sums along with the extent.
    std::uint64_t next = 0;
    std::uint64_t prev_end = 0;
    for (const Extent& x : extents) {
      const std::uint64_t touch =
          std::min(x.offset, std::max(old_size, prev_end));
      rehash_range(*obj, touch, x.end(), next);
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
    const std::uint64_t bs = kChecksumBlock;
    rep.blocks += (obj->data.size() + bs - 1) / bs;
    std::uint64_t mismatched = 0;
    std::uint64_t next = 0;
    walk_blocks(obj->data, 0, obj->data.size(), next,
                [&](std::uint64_t b, std::uint32_t crc) {
                  if (crc != obj->sums[static_cast<std::size_t>(b)])
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
