// Self-delimiting compressed frame format, so a remote object written as a
// sequence of independently-compressed blocks (the §7.3 1 MB pipeline) can
// be decoded by streaming through it, with per-frame integrity checking.
//
//   frame := "RMF2":u32 codec_id:u8 usize:u32 csize:u32 checksum:u32 payload
//
// checksum is CRC32C over the *uncompressed* block — the same algorithm as
// the wire frames and at-rest block sums (common/checksum.hpp), so one
// hardware-accelerated implementation covers every integrity domain.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "compress/codec.hpp"

namespace remio::compress {

constexpr std::uint32_t kFrameMagic = 0x52'4D'46'32;  // "RMF2"
constexpr std::size_t kFrameHeaderSize = 4 + 1 + 4 + 4 + 4;

enum class CodecId : std::uint8_t { kNull = 0, kLzMini = 1, kRle = 2 };

CodecId codec_id(const Codec& c);
const Codec& codec_by_id(CodecId id);

/// Compresses `block` with `codec` and appends a full frame to `out`.
/// Returns the frame's total encoded size.
std::size_t encode_frame(const Codec& codec, ByteSpan block, Bytes& out);

/// Decodes exactly one frame from the front of `in`, appending the
/// uncompressed payload to `out`. Returns the number of input bytes
/// consumed. Throws CodecError on malformed input or checksum mismatch.
std::size_t decode_frame(ByteSpan in, Bytes& out);

/// Decodes a back-to-back sequence of frames (a whole remote object).
Bytes decode_frame_stream(ByteSpan in);

}  // namespace remio::compress
