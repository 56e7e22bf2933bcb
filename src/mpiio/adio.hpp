// ADIO-style abstract device interface (Thakur et al., reproduced per §3.2,
// Fig. 1): the portable MPI-IO front end (`mpiio::File`) is implemented once
// over this interface, and each filesystem provides a Driver — `ufs` for
// local files, `srbfs` (SEMPLAR, src/core) for the remote broker.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "common/extent.hpp"
#include "mpiio/request.hpp"

namespace remio::obs {
class Tracer;  // src/obs — forward-declared so this layer takes no link dep
}

namespace remio::mpiio {

/// Open-mode flags, MPI_File_open-like.
enum ModeFlags : std::uint32_t {
  kModeRead = 1u << 0,   // MPI_MODE_RDONLY half
  kModeWrite = 1u << 1,  // MPI_MODE_WRONLY half
  kModeCreate = 1u << 2,
  kModeTrunc = 1u << 3,
};

namespace adio {

/// One open file on a concrete filesystem. All offsets are explicit; the
/// individual file pointer lives in the portable layer.
///
/// Asynchronous contract: buffers passed to iread_at/iwrite_at are NOT
/// copied — the caller must not reuse them until the request completes
/// (§4.1 lists this as the model's inherent cost; threads sharing the
/// address space avoid the copy, §4.3).
///
/// Error contract (the exception / Status dual, common/error.hpp): the
/// synchronous verbs report failures by throwing — always a
/// remio::StatusError subclass (IoError, SrbError, NetError) whose
/// ErrorInfo classifies the failure (domain, retryable). The asynchronous
/// verbs never throw for I/O failures at submission; the error belongs to
/// the returned IoRequest, where the caller picks a side of the dual:
/// IoRequest::wait() rethrows the classified exception, while
/// IoRequest::wait_status()/error() return the same classification as a
/// non-throwing remio::Status. Drivers with transport supervision
/// (semplar::Config::Retry) resolve retryable failures internally by
/// reconnect + replay; only terminal failures reach either surface.
class FileHandle {
 public:
  virtual ~FileHandle() = default;

  virtual std::size_t read_at(std::uint64_t offset, MutByteSpan out) = 0;
  virtual std::size_t write_at(std::uint64_t offset, ByteSpan data) = 0;
  virtual std::uint64_t size() = 0;
  virtual void flush() {}

  /// Vectored verbs: transfer a sorted, disjoint list of file extents
  /// to/from a packed buffer (extent contents concatenated in list order;
  /// buffer size == total_bytes(extents) — the portable layer validates).
  /// The default lowers to one plain call per extent; drivers that can do
  /// better override (SEMPLAR: the list-I/O wire verbs, or one hull fetch
  /// for a dense read). A read stops at the first short extent — for a
  /// sorted list every later extent lies beyond EOF, so this equals
  /// per-extent independent reads.
  virtual std::size_t readv(const ExtentList& extents, MutByteSpan out) {
    std::size_t done = 0;
    for (const Extent& x : extents) {
      const std::size_t n =
          read_at(x.offset, out.subspan(done, static_cast<std::size_t>(x.len)));
      done += n;
      if (n < x.len) break;
    }
    return done;
  }
  virtual std::size_t writev(const ExtentList& extents, ByteSpan data) {
    std::size_t done = 0;
    for (const Extent& x : extents)
      done += write_at(x.offset,
                       data.subspan(done, static_cast<std::size_t>(x.len)));
    return done;
  }

  /// Asynchronous verbs. The defaults are ROMIO's ADIOI_FAKE_* verbs: they
  /// run the synchronous verb on the caller's thread and return a request
  /// that is already complete, or already failed with the verb's exception.
  /// Drivers with real async I/O override them (SEMPLAR does: multi-stream
  /// striping on its own I/O threads, §4.3).
  virtual IoRequest iread_at(std::uint64_t offset, MutByteSpan out) {
    return completed([&] { return read_at(offset, out); });
  }
  virtual IoRequest iwrite_at(std::uint64_t offset, ByteSpan data) {
    return completed([&] { return write_at(offset, data); });
  }
  virtual IoRequest ireadv(const ExtentList& extents, MutByteSpan out) {
    return completed([&] { return readv(extents, out); });
  }
  virtual IoRequest iwritev(const ExtentList& extents, ByteSpan data) {
    return completed([&] { return writev(extents, data); });
  }

  /// The driver's span tracer, when it has one (SEMPLAR with Config::Obs
  /// enabled). Pipeline stages layered above a handle (core/compress_pipe)
  /// record their spans here so one trace shows the whole path.
  virtual obs::Tracer* tracer() { return nullptr; }

 private:
  template <class Fn>
  static IoRequest completed(Fn&& verb) {
    IoRequest req = IoRequest::make();
    try {
      IoRequest::complete(req.state(), verb());
    } catch (...) {
      IoRequest::fail(req.state(), std::current_exception());
    }
    return req;
  }
};

class Driver {
 public:
  virtual ~Driver() = default;
  virtual std::string scheme() const = 0;
  virtual std::unique_ptr<FileHandle> open(const std::string& path,
                                           std::uint32_t mode) = 0;
  virtual void remove(const std::string& path) = 0;
  virtual bool exists(const std::string& path) = 0;
};

}  // namespace adio
}  // namespace remio::mpiio
