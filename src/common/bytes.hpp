// Byte-buffer helpers shared by the wire protocol, codecs and I/O layers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace remio {

/// Owning byte buffer. `char` (not std::byte) so it interoperates directly
/// with text payloads (FASTA, BLAST reports) without casts at every call site.
using Bytes = std::vector<char>;

using ByteSpan = std::span<const char>;
using MutByteSpan = std::span<char>;

/// Reusable buffer for bytes that are overwritten as soon as it grows: a
/// frame being received, store bytes being staged for a reply. Unlike
/// Bytes, growing it never writes the new bytes: no zero-fill, and no
/// per-byte construction either, which unoptimized builds would run.
class FrameBuffer {
 public:
  char* data() { return buf_.get(); }
  const char* data() const { return buf_.get(); }
  std::size_t size() const { return size_; }
  char& operator[](std::size_t i) { return buf_[i]; }
  char operator[](std::size_t i) const { return buf_[i]; }

  /// Keeps the first min(size(), n) bytes; the bytes past the old size
  /// are unspecified until written.
  void resize(std::size_t n) {
    if (n > cap_) {
      const std::size_t cap = std::max(n, 2 * cap_);
      auto bigger = std::make_unique_for_overwrite<char[]>(cap);
      if (size_ > 0) std::memcpy(bigger.get(), buf_.get(), size_);
      buf_ = std::move(bigger);
      cap_ = cap;
    }
    size_ = n;
  }

 private:
  std::unique_ptr<char[]> buf_;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
};

inline Bytes to_bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }
inline std::string to_string(ByteSpan b) { return std::string(b.begin(), b.end()); }

/// Little-endian encoder appending to a Bytes buffer.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put(&v, sizeof v); }
  void u32(std::uint32_t v) { put(&v, sizeof v); }
  void u64(std::uint64_t v) { put(&v, sizeof v); }
  void i32(std::int32_t v) { put(&v, sizeof v); }
  void i64(std::int64_t v) { put(&v, sizeof v); }

  /// Length-prefixed (u32) string.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(ByteSpan(s.data(), s.size()));
  }

  /// Length-prefixed (u32) blob.
  void blob(ByteSpan b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b);
  }

  /// Unprefixed raw bytes.
  void raw(ByteSpan b) { out_.insert(out_.end(), b.begin(), b.end()); }

 private:
  void put(const void* p, std::size_t n) {
    const char* c = static_cast<const char*>(p);
    out_.insert(out_.end(), c, c + n);
  }
  Bytes& out_;
};

/// Little-endian decoder over a span. All reads are bounds-checked; a short
/// buffer flips `ok()` to false and subsequent reads return zero values, so
/// callers can validate once at the end (important for untrusted wire input).
class ByteReader {
 public:
  explicit ByteReader(ByteSpan in) : in_(in) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return get<std::int32_t>(); }
  std::int64_t i64() { return get<std::int64_t>(); }

  std::string str() {
    const std::uint32_t n = u32();
    if (!check(n)) return {};
    std::string s(in_.data() + pos_, n);
    pos_ += n;
    return s;
  }

  Bytes blob() {
    const ByteSpan v = blob_view();
    return Bytes(v.begin(), v.end());
  }

  /// Zero-copy variant: view into the underlying buffer (valid only while
  /// that buffer lives).
  ByteSpan blob_view() {
    const std::uint32_t n = u32();
    if (!check(n)) return {};
    const ByteSpan v = in_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

  /// View of the remaining unread bytes (does not consume them).
  ByteSpan rest() const { return in_.subspan(pos_); }
  void skip(std::size_t n) {
    if (check(n)) pos_ += n;
  }

  bool ok() const { return ok_; }
  std::size_t remaining() const { return in_.size() - pos_; }

 private:
  template <class T>
  T get() {
    if (!check(sizeof(T))) return T{};
    T v;
    std::memcpy(&v, in_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  bool check(std::size_t n) {
    if (!ok_ || n > in_.size() - pos_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  ByteSpan in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// FNV-1a 64-bit hash; used for test fingerprints.
inline std::uint64_t fnv1a(ByteSpan b) {
  std::uint64_t h = 14695981039346656037ULL;
  for (char c : b) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace remio
