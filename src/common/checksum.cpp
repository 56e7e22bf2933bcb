#include "common/checksum.hpp"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define REMIO_CRC32C_X86 1
#endif
#if defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define REMIO_CRC32C_ARM 1
#include <arm_acle.h>
#endif

namespace remio {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41 reflected

/// Slice-by-8 tables: table[0] is the classic byte-at-a-time table; table[k]
/// advances a byte that sits k positions deeper in the 8-byte word.
struct Tables {
  std::uint32_t t[8][256];
};

constexpr Tables make_tables() {
  Tables tb{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ kPoly : c >> 1;
    tb.t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i)
    for (int k = 1; k < 8; ++k)
      tb.t[k][i] = (tb.t[k - 1][i] >> 8) ^ tb.t[0][tb.t[k - 1][i] & 0xFFu];
  return tb;
}

// constinit-style static: generated once at compile time, lives in .rodata.
constexpr Tables kTables = make_tables();

std::uint32_t crc_sw(const unsigned char* p, std::size_t n, std::uint32_t crc) {
  crc = ~crc;
  // Head: align to 8 bytes so the slicing loop loads aligned words.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFFu];
    --n;
  }
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    w ^= crc;  // little-endian: the CRC folds into the low 4 bytes
    crc = kTables.t[7][w & 0xFF] ^ kTables.t[6][(w >> 8) & 0xFF] ^
          kTables.t[5][(w >> 16) & 0xFF] ^ kTables.t[4][(w >> 24) & 0xFF] ^
          kTables.t[3][(w >> 32) & 0xFF] ^ kTables.t[2][(w >> 40) & 0xFF] ^
          kTables.t[1][(w >> 48) & 0xFF] ^ kTables.t[0][(w >> 56) & 0xFF];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFFu];
    --n;
  }
  return ~crc;
}

// Shifting a CRC: crc(A||B) = shift(crc(A), |B|) ^ crc(B), where shift()
// multiplies by x^(8|B|) mod P. The pre- and post-conditioning cancel, so
// the identity holds for the finished CRC values as well as for raw
// registers. The three-lane kernel and crc32c_combine both rest on it.

/// a * b mod P over GF(2), both in the reflected (bit 31 = x^0) order.
/// Stops once no lower bit of a is left (zlib's multmodp).
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t p = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    b = (b & 1u) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

/// x^(8 * 2^k) mod P for k = 0..63: one factor per bit of a byte count.
struct PowerTable {
  std::uint32_t x8n[64];
};

constexpr PowerTable make_powers() {
  PowerTable pt{};
  std::uint32_t sq = 1u << 23;  // x^8
  for (int k = 0; k < 64; ++k) {
    pt.x8n[k] = sq;
    sq = multmodp(sq, sq);
  }
  return pt;
}

constexpr PowerTable kPowers = make_powers();

/// x^(8 * bytes) mod P. The running product goes first: multmodp stops
/// after one step while it is still x^0.
constexpr std::uint32_t x8nmodp(std::uint64_t bytes) {
  std::uint32_t xn = 1u << 31;  // x^0
  for (int k = 0; bytes != 0; bytes >>= 1, ++k)
    if (bytes & 1u) xn = multmodp(xn, kPowers.x8n[k]);
  return xn;
}

/// Byte-wise tables for multiplying a CRC register by x^(8 * bytes) mod P,
/// i.e. for appending `bytes` zero bytes to it.
struct ShiftTable {
  std::uint32_t t[4][256];
};

constexpr ShiftTable make_shift(std::size_t bytes) {
  const std::uint32_t xn = x8nmodp(bytes);
  ShiftTable st{};
  for (std::uint32_t i = 0; i < 256; ++i)
    for (int k = 0; k < 4; ++k) st.t[k][i] = multmodp(xn, i << (8 * k));
  return st;
}

inline std::uint64_t shift(const ShiftTable& st, std::uint64_t crc) {
  return st.t[0][crc & 0xFF] ^ st.t[1][(crc >> 8) & 0xFF] ^
         st.t[2][(crc >> 16) & 0xFF] ^ st.t[3][(crc >> 24) & 0xFF];
}

constexpr ShiftTable kShift4K = make_shift(4096);

#if defined(REMIO_CRC32C_X86)
// Three-lane kernel (Mark Adler's crc32c.c method). `crc32` has a 3-cycle
// latency but a throughput of one per cycle, so one dependent chain runs at
// a third of the instruction's throughput. Hashing three adjacent segments in
// independent chains keeps the unit busy; the lanes are then folded with
// crc(A||B) = shift(crc(A), |B|) ^ crc0(B), where crc0 starts from a zero
// register.

constexpr std::size_t kLongSeg = 8192;  // while >= 3 * 8 KiB remain
constexpr std::size_t kShortSeg = 256;  // then while >= 768 B remain

constexpr ShiftTable kShiftLong = make_shift(kLongSeg);
constexpr ShiftTable kShiftShort = make_shift(kShortSeg);

inline std::uint64_t load64(const unsigned char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

/// Consumes whole 3 * seg runs from [p, p + n) into the running register c0.
__attribute__((target("sse4.2"))) std::uint64_t crc_hw_lanes(
    const unsigned char*& p, std::size_t& n, std::uint64_t c0, std::size_t seg,
    const ShiftTable& st) {
  while (n >= 3 * seg) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < seg; i += 8) {
      c0 = __builtin_ia32_crc32di(c0, load64(p + i));
      c1 = __builtin_ia32_crc32di(c1, load64(p + seg + i));
      c2 = __builtin_ia32_crc32di(c2, load64(p + 2 * seg + i));
    }
    c0 = shift(st, c0) ^ c1;
    c0 = shift(st, c0) ^ c2;
    p += 3 * seg;
    n -= 3 * seg;
  }
  return c0;
}

__attribute__((target("sse4.2"))) std::uint32_t crc_hw(const unsigned char* p,
                                                       std::size_t n,
                                                       std::uint32_t crc) {
  crc = ~crc;
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = __builtin_ia32_crc32qi(crc, *p++);
    --n;
  }
  std::uint64_t c64 = crc;
  c64 = crc_hw_lanes(p, n, c64, kLongSeg, kShiftLong);
  c64 = crc_hw_lanes(p, n, c64, kShortSeg, kShiftShort);
  while (n >= 8) {
    c64 = __builtin_ia32_crc32di(c64, load64(p));
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(c64);
  while (n > 0) {
    crc = __builtin_ia32_crc32qi(crc, *p++);
    --n;
  }
  return ~crc;
}

bool detect_hw() { return __builtin_cpu_supports("sse4.2") != 0; }
#elif defined(REMIO_CRC32C_ARM)
std::uint32_t crc_hw(const unsigned char* p, std::size_t n, std::uint32_t crc) {
  crc = ~crc;
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = __crc32cb(crc, *p++);
    --n;
  }
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    crc = __crc32cd(crc, w);
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = __crc32cb(crc, *p++);
    --n;
  }
  return ~crc;
}

bool detect_hw() { return true; }  // __ARM_FEATURE_CRC32 implies support
#else
std::uint32_t crc_hw(const unsigned char* p, std::size_t n, std::uint32_t crc) {
  return crc_sw(p, n, crc);
}
bool detect_hw() { return false; }
#endif

using CrcFn = std::uint32_t (*)(const unsigned char*, std::size_t,
                                std::uint32_t);

/// Resolved once; every later call is an indirect call through a constant.
const CrcFn kImpl = detect_hw() ? &crc_hw : &crc_sw;
const bool kHw = detect_hw();

}  // namespace

std::uint32_t crc32c(ByteSpan data, std::uint32_t seed) {
  return kImpl(reinterpret_cast<const unsigned char*>(data.data()), data.size(),
               seed);
}

std::uint32_t crc32c_combine(std::uint32_t a, std::uint32_t b,
                             std::uint64_t len_b) {
  return multmodp(x8nmodp(len_b), a) ^ b;
}

std::uint32_t crc32c_combine_4k(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::uint32_t>(shift(kShift4K, a)) ^ b;
}

void Crc32c::update(ByteSpan data) { crc_ = crc32c(data, crc_); }

bool crc32c_hw_available() { return kHw; }

}  // namespace remio
