// Codec and frame tests, including parameterized round-trip property sweeps
// over codecs, content classes and sizes, and malformed-input rejection;
// and the asynchronous compression pipeline (CompressPipe) over ufs.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>
#include <tuple>
#include <unistd.h>

#include "bio/synth.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "compress/codec.hpp"
#include "compress/frame.hpp"
#include "core/compress_pipe.hpp"
#include "mpiio/ufs.hpp"

namespace remio::compress {
namespace {

Bytes make_content(const std::string& kind, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  if (kind == "random") return rng.bytes(n);
  if (kind == "zeros") return Bytes(n, '\0');
  if (kind == "repeat8") {
    Bytes b(n);
    for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<char>("abcdefgh"[i % 8]);
    return b;
  }
  if (kind == "dna") {
    bio::SynthConfig cfg;
    cfg.seed = seed;
    cfg.genome_length = 384 * 1024;  // the fig9 regime: ~2x on lzmini
    bio::EstGenerator gen(cfg);
    const std::string text = gen.nucleotide_text(n);
    return Bytes(text.begin(), text.end());
  }
  if (kind == "text") {
    Bytes b;
    const std::string words = "the quick brown fox jumps over the lazy dog ";
    while (b.size() < n) b.insert(b.end(), words.begin(), words.end());
    b.resize(n);
    return b;
  }
  return {};
}

Bytes roundtrip(const Codec& codec, const Bytes& input) {
  Bytes compressed;
  codec.compress(ByteSpan(input.data(), input.size()), compressed);
  EXPECT_LE(compressed.size(), codec.max_compressed_size(input.size()));
  Bytes out;
  codec.decompress(ByteSpan(compressed.data(), compressed.size()), out, input.size());
  return out;
}

// --- parameterized round-trip sweep --------------------------------------------

using RtParam = std::tuple<std::string, std::string, std::size_t>;

class CodecRoundTrip : public ::testing::TestWithParam<RtParam> {};

TEST_P(CodecRoundTrip, Exact) {
  const auto& [codec_name, kind, size] = GetParam();
  const Codec& codec = codec_by_name(codec_name);
  const Bytes input = make_content(kind, size, size * 31 + 7);
  EXPECT_EQ(roundtrip(codec, input), input);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllContent, CodecRoundTrip,
    ::testing::Combine(::testing::Values("lzmini", "rle", "null"),
                       ::testing::Values("random", "zeros", "repeat8", "dna", "text"),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{3}, std::size_t{4},
                                         std::size_t{5}, std::size_t{255},
                                         std::size_t{256}, std::size_t{4096},
                                         std::size_t{65536}, std::size_t{1 << 18})),
    [](const ::testing::TestParamInfo<RtParam>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param) + "_" +
             std::to_string(std::get<2>(info.param));
    });

// --- ratio expectations -----------------------------------------------------------

TEST(LzMini, CompressesRepetitiveData) {
  const Codec& codec = codec_by_name("lzmini");
  const Bytes input = make_content("repeat8", 64 * 1024, 1);
  Bytes compressed;
  codec.compress(ByteSpan(input.data(), input.size()), compressed);
  EXPECT_LT(compressed.size(), input.size() / 10);
}

TEST(LzMini, DnaTextRatioNearPaperRegime) {
  // §7.3 needs ~2x on nucleotide text for the +83% bandwidth result.
  const Codec& codec = codec_by_name("lzmini");
  const Bytes input = make_content("dna", 1 << 20, 5);
  Bytes compressed;
  codec.compress(ByteSpan(input.data(), input.size()), compressed);
  const double ratio =
      static_cast<double>(input.size()) / static_cast<double>(compressed.size());
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 4.0);
}

TEST(LzMini, RandomDataExpandsOnlySlightly) {
  const Codec& codec = codec_by_name("lzmini");
  const Bytes input = make_content("random", 64 * 1024, 2);
  Bytes compressed;
  codec.compress(ByteSpan(input.data(), input.size()), compressed);
  EXPECT_LE(compressed.size(), codec.max_compressed_size(input.size()));
  EXPECT_GT(compressed.size(), input.size() * 99 / 100);
}

TEST(Rle, RunsCollapse) {
  const Codec& codec = codec_by_name("rle");
  const Bytes input(10000, 'x');
  Bytes compressed;
  codec.compress(ByteSpan(input.data(), input.size()), compressed);
  EXPECT_LT(compressed.size(), 100u);
}

// --- malformed input rejection ----------------------------------------------------

TEST(LzMini, RejectsTruncatedStream) {
  const Codec& codec = codec_by_name("lzmini");
  // A random tail guarantees the stream ends in literals, so truncating
  // even one byte must be detected.
  Bytes input = make_content("text", 4096, 3);
  const Bytes tail = make_content("random", 64, 9);
  input.insert(input.end(), tail.begin(), tail.end());
  Bytes compressed;
  codec.compress(ByteSpan(input.data(), input.size()), compressed);
  for (const std::size_t cut : {compressed.size() / 2, compressed.size() - 1}) {
    Bytes out;
    EXPECT_THROW(codec.decompress(ByteSpan(compressed.data(), cut), out, input.size()),
                 CodecError)
        << "cut=" << cut;
  }
}

TEST(LzMini, RejectsWrongDeclaredSize) {
  const Codec& codec = codec_by_name("lzmini");
  const Bytes input = make_content("text", 4096, 4);
  Bytes compressed;
  codec.compress(ByteSpan(input.data(), input.size()), compressed);
  Bytes out;
  EXPECT_THROW(
      codec.decompress(ByteSpan(compressed.data(), compressed.size()), out, 100),
      CodecError);
}

TEST(LzMini, RejectsBogusOffset) {
  // token: 0 literals + match len 4, offset 0xFFFF with no produced output.
  const Bytes evil = {0x00, '\xff', '\xff'};
  const Codec& codec = codec_by_name("lzmini");
  Bytes out;
  EXPECT_THROW(codec.decompress(ByteSpan(evil.data(), evil.size()), out, 10),
               CodecError);
}

TEST(LzMini, FuzzDecompressNeverCrashes) {
  const Codec& codec = codec_by_name("lzmini");
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    const Bytes junk = rng.bytes(1 + rng.below(512));
    Bytes out;
    try {
      codec.decompress(ByteSpan(junk.data(), junk.size()), out, 1024);
    } catch (const CodecError&) {
      // rejection is the expected outcome
    }
    EXPECT_LE(out.size(), 1024u + 64u);
  }
}

TEST(Rle, RejectsOddLengthAndZeroRun) {
  const Codec& codec = codec_by_name("rle");
  Bytes out;
  const Bytes odd = {1};
  EXPECT_THROW(codec.decompress(ByteSpan(odd.data(), odd.size()), out, 1), CodecError);
  const Bytes zero_run = {0, 'a'};
  EXPECT_THROW(codec.decompress(ByteSpan(zero_run.data(), zero_run.size()), out, 1),
               CodecError);
}

TEST(Registry, UnknownCodecThrows) {
  EXPECT_THROW(codec_by_name("gzip"), CodecError);
  EXPECT_EQ(codec_by_name("lzmini").name(), "lzmini");
}

// --- frames ------------------------------------------------------------------------

TEST(Frame, SingleRoundTrip) {
  const Bytes block = make_content("dna", 100000, 8);
  Bytes wire;
  encode_frame(codec_by_name("lzmini"), ByteSpan(block.data(), block.size()), wire);
  Bytes out;
  const std::size_t consumed = decode_frame(ByteSpan(wire.data(), wire.size()), out);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(out, block);
}

TEST(Frame, StreamOfMixedCodecs) {
  Bytes wire;
  Bytes expected;
  const char* codecs[] = {"lzmini", "rle", "null", "lzmini"};
  for (int i = 0; i < 4; ++i) {
    const Bytes block = make_content(i % 2 == 0 ? "dna" : "repeat8", 10000 + i, 10u + i);
    encode_frame(codec_by_name(codecs[i]), ByteSpan(block.data(), block.size()), wire);
    expected.insert(expected.end(), block.begin(), block.end());
  }
  EXPECT_EQ(decode_frame_stream(ByteSpan(wire.data(), wire.size())), expected);
}

TEST(Frame, DetectsCorruption) {
  const Bytes block = make_content("text", 5000, 11);
  Bytes wire;
  encode_frame(codec_by_name("lzmini"), ByteSpan(block.data(), block.size()), wire);
  // Flip a payload byte: checksum must catch it (or the codec rejects it).
  wire[wire.size() - 10] = static_cast<char>(wire[wire.size() - 10] ^ 0x40);
  Bytes out;
  EXPECT_THROW(decode_frame(ByteSpan(wire.data(), wire.size()), out), CodecError);
}

TEST(Frame, RejectsBadMagicAndTruncation) {
  const Bytes block = make_content("text", 100, 12);
  Bytes wire;
  encode_frame(codec_by_name("null"), ByteSpan(block.data(), block.size()), wire);
  Bytes out;
  EXPECT_THROW(decode_frame(ByteSpan(wire.data(), kFrameHeaderSize - 1), out),
               CodecError);
  Bytes bad = wire;
  bad[0] = 'X';
  EXPECT_THROW(decode_frame(ByteSpan(bad.data(), bad.size()), out), CodecError);
  EXPECT_THROW(decode_frame(ByteSpan(wire.data(), wire.size() - 1), out), CodecError);
  // A retired RMF1 frame (FNV-1a sum in a 21-byte header) is no longer read.
  Bytes rmf1;
  ByteWriter w(rmf1);
  w.u32(0x52'4D'46'31);  // "RMF1"
  w.u8(static_cast<std::uint8_t>(CodecId::kNull));
  w.u32(static_cast<std::uint32_t>(block.size()));
  w.u32(static_cast<std::uint32_t>(block.size()));
  w.u64(fnv1a(ByteSpan(block.data(), block.size())));
  w.raw(ByteSpan(block.data(), block.size()));
  EXPECT_THROW(decode_frame(ByteSpan(rmf1.data(), rmf1.size()), out), CodecError);
}

TEST(Frame, CurrentEncoderWritesV2WithCrc32c) {
  const Bytes block = make_content("dna", 3000, 21);
  Bytes wire;
  encode_frame(codec_by_name("lzmini"), ByteSpan(block.data(), block.size()), wire);
  ByteReader r(ByteSpan(wire.data(), wire.size()));
  EXPECT_EQ(r.u32(), kFrameMagic);
  (void)r.u8();   // codec id
  (void)r.u32();  // usize
  (void)r.u32();  // csize
  EXPECT_EQ(r.u32(), crc32c(ByteSpan(block.data(), block.size())));
}

TEST(Frame, EmptyBlock) {
  Bytes wire;
  encode_frame(codec_by_name("lzmini"), ByteSpan(), wire);
  Bytes out;
  EXPECT_EQ(decode_frame(ByteSpan(wire.data(), wire.size()), out), wire.size());
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace remio::compress

namespace remio::semplar {
namespace {

// --- CompressPipe ---------------------------------------------------------------

class CompressPipeTest : public ::testing::Test {
 protected:
  CompressPipeTest() {
    root_ = std::filesystem::temp_directory_path() /
            ("remio_pipe_" + std::to_string(::getpid()));
    driver_ = std::make_unique<mpiio::UfsDriver>(root_.string());
  }
  ~CompressPipeTest() override {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  std::filesystem::path root_;
  std::unique_ptr<mpiio::UfsDriver> driver_;
};

TEST_F(CompressPipeTest, PipelineRoundTrip) {
  auto handle = driver_->open("/pipe", mpiio::kModeRead | mpiio::kModeWrite |
                                           mpiio::kModeCreate | mpiio::kModeTrunc);
  Bytes original;
  {
    CompressPipe pipe(*handle, compress::codec_by_name("lzmini"));
    remio::Rng rng(4);
    std::vector<mpiio::IoRequest> reqs;
    for (int i = 0; i < 5; ++i) {
      Bytes block;
      // Mix compressible and incompressible blocks.
      if (i % 2 == 0) {
        block = Bytes(100 * 1024, static_cast<char>('a' + i));
      } else {
        block = rng.bytes(64 * 1024 + 17);
      }
      original.insert(original.end(), block.begin(), block.end());
      reqs.push_back(pipe.write(ByteSpan(block.data(), block.size())));
    }
    pipe.finish();
    for (auto& r : reqs) EXPECT_GT(r.wait(), 0u);

    const auto st = pipe.stats();
    EXPECT_EQ(st.blocks, 5u);
    EXPECT_EQ(st.raw_bytes, original.size());
    EXPECT_LT(st.wire_bytes, st.raw_bytes);  // net compression
  }
  EXPECT_EQ(read_all_decompressed(*handle), original);
}

TEST_F(CompressPipeTest, WriteAfterFinishFails) {
  auto handle = driver_->open("/pipe2", mpiio::kModeWrite | mpiio::kModeCreate);
  CompressPipe pipe(*handle, compress::codec_by_name("null"));
  pipe.finish();
  const Bytes b(10, 'x');
  auto req = pipe.write(ByteSpan(b.data(), b.size()));
  EXPECT_THROW(req.wait(), mpiio::IoError);
}

TEST_F(CompressPipeTest, FinishIdempotentAndDtorSafe) {
  auto handle = driver_->open("/pipe3", mpiio::kModeRead | mpiio::kModeWrite |
                                            mpiio::kModeCreate);
  {
    CompressPipe pipe(*handle, compress::codec_by_name("rle"));
    const Bytes b(1000, 'r');
    pipe.write(ByteSpan(b.data(), b.size()));
    pipe.finish();
    pipe.finish();
  }
  EXPECT_EQ(read_all_decompressed(*handle).size(), 1000u);
}

TEST_F(CompressPipeTest, UfsBlockCompletesWithoutWaitingForTheNext) {
  // ufs async writes return already complete, so a block's request
  // completes once its frame is written, not when the next block (or
  // finish) settles it.
  // The deadline only guards against a hang; it asserts no timing.
  auto handle = driver_->open("/pipe4", mpiio::kModeRead | mpiio::kModeWrite |
                                            mpiio::kModeCreate);
  CompressPipe pipe(*handle, compress::codec_by_name("lzmini"));
  const Bytes b(4096, 'u');
  const mpiio::IoRequest req = pipe.write(ByteSpan(b.data(), b.size()));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (!req.test() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(req.test());
  EXPECT_TRUE(req.error().ok());
  pipe.finish();
  EXPECT_EQ(read_all_decompressed(*handle), b);
}

}  // namespace
}  // namespace remio::semplar
