#include "compress/frame.hpp"

#include "common/checksum.hpp"

namespace remio::compress {

CodecId codec_id(const Codec& c) {
  const std::string n = c.name();
  if (n == "null") return CodecId::kNull;
  if (n == "lzmini") return CodecId::kLzMini;
  if (n == "rle") return CodecId::kRle;
  throw CodecError("unknown codec: " + n);
}

const Codec& codec_by_id(CodecId id) {
  switch (id) {
    case CodecId::kNull: return codec_by_name("null");
    case CodecId::kLzMini: return codec_by_name("lzmini");
    case CodecId::kRle: return codec_by_name("rle");
  }
  throw CodecError("unknown codec id");
}

std::size_t encode_frame(const Codec& codec, ByteSpan block, Bytes& out) {
  const std::size_t start = out.size();
  Bytes payload;
  payload.reserve(codec.max_compressed_size(block.size()));
  codec.compress(block, payload);

  ByteWriter w(out);
  w.u32(kFrameMagic);
  w.u8(static_cast<std::uint8_t>(codec_id(codec)));
  w.u32(static_cast<std::uint32_t>(block.size()));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32c(block));
  w.raw(payload);
  return out.size() - start;
}

std::size_t decode_frame(ByteSpan in, Bytes& out) {
  if (in.size() < kFrameHeaderSize) throw CodecError("frame: truncated header");
  ByteReader r(in);
  if (r.u32() != kFrameMagic) throw CodecError("frame: bad magic");
  const auto id = static_cast<CodecId>(r.u8());
  const std::uint32_t usize = r.u32();
  const std::uint32_t csize = r.u32();
  const std::uint32_t checksum = r.u32();
  if (!r.ok() || r.remaining() < csize) throw CodecError("frame: truncated payload");

  const Codec& codec = codec_by_id(id);
  const std::size_t before = out.size();
  codec.decompress(r.rest().subspan(0, csize), out, usize);
  if (crc32c(ByteSpan(out.data() + before, out.size() - before)) != checksum)
    throw CodecError("frame: checksum mismatch");
  return kFrameHeaderSize + csize;
}

Bytes decode_frame_stream(ByteSpan in) {
  Bytes out;
  std::size_t pos = 0;
  while (pos < in.size()) pos += decode_frame(in.subspan(pos), out);
  return out;
}

}  // namespace remio::compress
