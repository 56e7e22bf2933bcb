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
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace remio {

/// One-shot CRC32C of `data`. `seed` chains calls: passing a previous
/// result continues the CRC as if the buffers were concatenated.
std::uint32_t crc32c(ByteSpan data, std::uint32_t seed = 0);

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
