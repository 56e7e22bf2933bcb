// Shared vocabulary for noncontiguous byte ranges. Every layer that talks
// about (offset, len) pairs — the writeback coalescer's flush runs, the
// collective-write offset math, the mpiio vectored verbs, and the list-I/O
// wire format — uses this one type instead of reinventing the pair.
#pragma once

#include <cstdint>
#include <vector>

namespace remio {

/// Half-open byte range [offset, offset + len) in a file.
struct Extent {
  std::uint64_t offset = 0;
  std::uint64_t len = 0;

  std::uint64_t end() const { return offset + len; }
  bool empty() const { return len == 0; }

  friend bool operator==(const Extent&, const Extent&) = default;
};

/// Ordered list of extents. The optimized transfer paths (hull reads, list
/// I/O) require the list to be sorted by offset with no overlaps; use
/// `is_sorted_disjoint` to validate and `normalized` to canonicalize.
using ExtentList = std::vector<Extent>;

/// Sum of extent lengths (the packed-buffer size for a vectored transfer).
std::uint64_t total_bytes(const ExtentList& xs);

/// True iff every extent is nonempty, offsets strictly increase, and no two
/// extents overlap. Abutting extents (a.end() == b.offset) are allowed: they
/// are valid wire input even though `normalized` would merge them.
bool is_sorted_disjoint(const ExtentList& xs);

/// Canonical form: drop empty extents, sort by offset, merge overlapping and
/// abutting neighbours. The result satisfies `is_sorted_disjoint` and has no
/// abutting pairs.
ExtentList normalized(ExtentList xs);

/// Smallest single extent covering the whole list ({0,0} for an empty list).
/// Input must be sorted (first/last extents bound the hull).
Extent hull(const ExtentList& xs);

/// The portions of sorted-disjoint list `xs` that fall inside `window`,
/// clipped to it. Offsets remain absolute (file) offsets.
ExtentList intersect(const ExtentList& xs, Extent window);

/// Layout of rank-ordered contiguous chunks: chunk r starts where chunk r-1
/// ends, beginning at `base`. Used by the collective-write exchange to place
/// each rank's contribution. sizes[r] == 0 yields an empty extent at the
/// running offset (kept so indices align with ranks).
ExtentList concat_layout(std::uint64_t base, const std::vector<std::uint64_t>& sizes);

}  // namespace remio
