// CRC32C (Castagnoli, polynomial 0x1EDC6F41): the integrity primitive for
// every byte hand-off in the stack — SRB wire frames, the broker's at-rest
// block checksums, cache verify-on-fill, and the compressed-frame trailer.
//
// Two implementations behind one function:
//   * slice-by-8 software path — eight 256-entry tables, processing 8 bytes
//     per iteration with no data-dependent branches;
//   * hardware path — SSE4.2 crc32 on x86-64 (selected at runtime via
//     cpuid, compiled with a per-function target attribute so the library
//     needs no global -msse4.2), or the ARMv8 CRC extension when the
//     compiler was targeted at it.
//
// On x86-64 the hardware path is a three-lane kernel. The instruction takes
// three cycles but a new one can start every cycle, so inputs of 768 B or
// more hash three adjacent segments in independent chains (8 KiB segments
// while at least 24 KiB remain, then 256 B) and fold them with two
// compile-time shift tables; shorter inputs and the last < 768 B run one
// chain.
//
// The CRC is the standard reflected variant (init 0xFFFFFFFF, final XOR),
// matching iSCSI / ext4 / RFC 3720: crc32c("123456789") == 0xE3069283.
//
// crc32c_combine joins two CRCs into the CRC of the concatenation without
// the bytes, so a sum computed once (an at-rest block's, a write piece's)
// can stand in for rehashing those bytes inside a longer CRC.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace remio {

/// One-shot CRC32C of `data`. `seed` chains calls: passing a previous
/// result continues the CRC as if the buffers were concatenated.
std::uint32_t crc32c(ByteSpan data, std::uint32_t seed = 0);

/// CRC32C of A‖B from a = crc32c(A), b = crc32c(B) and len_b = |B|, without
/// touching the bytes (zlib's crc32_combine): a is multiplied by
/// x^(8·len_b) mod P, one product per set bit of len_b, and b is added.
/// The cost follows the set bits of len_b, not its size.
std::uint32_t crc32c_combine(std::uint32_t a, std::uint32_t b,
                             std::uint64_t len_b);

/// crc32c_combine(a, b, 4096) as one step through a compile-time table:
/// folds one 4 KiB block's CRC onto a running one in a few nanoseconds.
std::uint32_t crc32c_combine_4k(std::uint32_t a, std::uint32_t b);

/// Incremental CRC32C over a sequence of spans (used to checksum a frame
/// head + body without concatenating them).
class Crc32c {
 public:
  void update(ByteSpan data);
  std::uint32_t value() const { return crc_; }

 private:
  std::uint32_t crc_ = 0;
};

/// True when the running CPU's CRC32 instruction is being used (bench
/// reports label their rows with this).
bool crc32c_hw_available();

}  // namespace remio
