// Portable MPI-IO-style file front end, implemented once over the ADIO
// driver interface (Fig. 1). Provides individual file pointers, explicit-
// offset operations, and the asynchronous verbs the paper added to SEMPLAR:
// iread / iwrite with MPIO_Wait / MPIO_Test semantics (§4.2).
//
// All eight classic entry points (read/write × at/file-pointer × sync/async)
// are thin wrappers over one extent-based core — readv/writev/ireadv/iwritev
// — so the contiguous and strided paths share a single implementation. A
// strided FileView (set_view, MPI_File_set_view-like) makes the offset-based
// wrappers interpret offsets in view coordinates; the vectored core always
// speaks absolute file extents.
#pragma once

#include <memory>
#include <mutex>

#include "common/extent.hpp"
#include "mpiio/adio.hpp"
#include "mpiio/file_view.hpp"

namespace remio::mpiio {

class File {
 public:
  /// MPI_File_open equivalent (per process / rank; non-collective here —
  /// the paper's benchmarks all use individual file pointers and
  /// non-collective calls).
  File(adio::Driver& driver, const std::string& path, std::uint32_t mode);
  ~File();

  File(const File&) = delete;
  File& operator=(const File&) = delete;

  // --- synchronous ---------------------------------------------------------
  std::size_t read_at(std::uint64_t offset, MutByteSpan out);
  std::size_t write_at(std::uint64_t offset, ByteSpan data);
  /// File-pointer variants (advance the individual file pointer).
  std::size_t read(MutByteSpan out);
  std::size_t write(ByteSpan data);
  std::uint64_t seek(std::int64_t offset, int whence);  // SEEK_SET/CUR/END

  // --- asynchronous (MPI_File_iread/_iwrite) --------------------------------
  /// Buffers must stay valid until the request completes (§4.1).
  IoRequest iread_at(std::uint64_t offset, MutByteSpan out);
  IoRequest iwrite_at(std::uint64_t offset, ByteSpan data);
  IoRequest iread(MutByteSpan out);
  IoRequest iwrite(ByteSpan data);

  // --- vectored core -------------------------------------------------------
  /// Transfer a sorted, disjoint extent list (absolute file offsets) to/from
  /// a packed buffer whose size must equal total_bytes(extents); throws
  /// IoError otherwise. Every entry point above lowers to one of these. A
  /// read returns the bytes transferred and stops at the first short extent
  /// (later extents of a sorted list lie beyond EOF too).
  std::size_t readv(const ExtentList& extents, MutByteSpan out);
  std::size_t writev(const ExtentList& extents, ByteSpan data);
  IoRequest ireadv(const ExtentList& extents, MutByteSpan out);
  IoRequest iwritev(const ExtentList& extents, ByteSpan data);

  // --- file views (MPI_File_set_view) --------------------------------------
  /// Install a strided view: offset-based calls then address only the view's
  /// visible bytes, and the individual file pointer resets to 0 (view
  /// coordinates). The default-constructed FileView is the identity view.
  /// Throws IoError on a degenerate pattern (FileView::validate).
  void set_view(const FileView& view);
  FileView view() const;

  std::uint64_t size();
  void flush();
  /// MPI_File_close equivalent; waits for outstanding async I/O.
  void close();

  adio::FileHandle& handle() { return *handle_; }

 private:
  /// Lower a (possibly view-relative) offset range to absolute file extents.
  ExtentList map_range(std::uint64_t offset, std::uint64_t len) const;
  void check_packed(const ExtentList& extents, std::size_t buf_bytes) const;

  std::unique_ptr<adio::FileHandle> handle_;
  mutable std::mutex fp_mu_;  // guards fp_ and view_
  std::uint64_t fp_ = 0;      // in view coordinates when a view is set
  FileView view_;             // identity by default
  bool closed_ = false;
};

}  // namespace remio::mpiio
