#include "mpiio/file.hpp"

#include <cstdio>  // SEEK_SET / SEEK_CUR / SEEK_END

namespace remio::mpiio {

File::File(adio::Driver& driver, const std::string& path, std::uint32_t mode)
    : handle_(driver.open(path, mode)) {}

File::~File() {
  try {
    close();
  } catch (...) {
    // close() errors are lost in the destructor path; call close() directly
    // to observe them.
  }
}

ExtentList File::map_range(std::uint64_t offset, std::uint64_t len) const {
  std::lock_guard lk(fp_mu_);
  return view_.map(offset, len);
}

void File::check_packed(const ExtentList& extents,
                        std::size_t buf_bytes) const {
  if (!is_sorted_disjoint(extents))
    throw IoError("vectored I/O: extents must be sorted and non-overlapping");
  if (total_bytes(extents) != buf_bytes)
    throw IoError("vectored I/O: packed buffer size != total extent bytes");
}

// --- vectored core ---------------------------------------------------------

std::size_t File::readv(const ExtentList& extents, MutByteSpan out) {
  check_packed(extents, out.size());
  if (extents.empty()) return 0;
  return handle_->readv(extents, out);
}

std::size_t File::writev(const ExtentList& extents, ByteSpan data) {
  check_packed(extents, data.size());
  if (extents.empty()) return 0;
  return handle_->writev(extents, data);
}

IoRequest File::ireadv(const ExtentList& extents, MutByteSpan out) {
  check_packed(extents, out.size());
  if (extents.empty()) {
    IoRequest req = IoRequest::make();
    IoRequest::complete(req.state(), 0);
    return req;
  }
  return handle_->ireadv(extents, out);
}

IoRequest File::iwritev(const ExtentList& extents, ByteSpan data) {
  check_packed(extents, data.size());
  if (extents.empty()) {
    IoRequest req = IoRequest::make();
    IoRequest::complete(req.state(), 0);
    return req;
  }
  return handle_->iwritev(extents, data);
}

// --- offset wrappers -------------------------------------------------------

std::size_t File::read_at(std::uint64_t offset, MutByteSpan out) {
  return readv(map_range(offset, out.size()), out);
}

std::size_t File::write_at(std::uint64_t offset, ByteSpan data) {
  return writev(map_range(offset, data.size()), data);
}

std::size_t File::read(MutByteSpan out) {
  std::uint64_t at;
  {
    std::lock_guard lk(fp_mu_);
    at = fp_;
    fp_ += out.size();  // optimistic; corrected below on short read
  }
  const std::size_t n = read_at(at, out);
  if (n < out.size()) {
    std::lock_guard lk(fp_mu_);
    fp_ = at + n;
  }
  return n;
}

std::size_t File::write(ByteSpan data) {
  std::uint64_t at;
  {
    std::lock_guard lk(fp_mu_);
    at = fp_;
    fp_ += data.size();
  }
  return write_at(at, data);
}

std::uint64_t File::seek(std::int64_t offset, int whence) {
  std::lock_guard lk(fp_mu_);
  std::int64_t base = 0;
  switch (whence) {
    case SEEK_SET: base = 0; break;
    case SEEK_CUR: base = static_cast<std::int64_t>(fp_); break;
    case SEEK_END: {
      // With a strided view the "end" in view coordinates has no cheap
      // definition (it depends on which frames the file size cuts through);
      // the paper's workloads never need it.
      if (!view_.contiguous())
        throw IoError("seek: SEEK_END unsupported with a strided view");
      const std::uint64_t sz = handle_->size();
      base = static_cast<std::int64_t>(
          sz > view_.displacement ? sz - view_.displacement : 0);
      break;
    }
    default: throw IoError("seek: bad whence");
  }
  const std::int64_t pos = base + offset;
  if (pos < 0) throw IoError("seek: negative position");
  fp_ = static_cast<std::uint64_t>(pos);
  return fp_;
}

// --- async wrappers --------------------------------------------------------

IoRequest File::iread_at(std::uint64_t offset, MutByteSpan out) {
  return ireadv(map_range(offset, out.size()), out);
}

IoRequest File::iwrite_at(std::uint64_t offset, ByteSpan data) {
  return iwritev(map_range(offset, data.size()), data);
}

IoRequest File::iread(MutByteSpan out) {
  std::uint64_t at;
  {
    std::lock_guard lk(fp_mu_);
    at = fp_;
    fp_ += out.size();
  }
  return iread_at(at, out);
}

IoRequest File::iwrite(ByteSpan data) {
  std::uint64_t at;
  {
    std::lock_guard lk(fp_mu_);
    at = fp_;
    fp_ += data.size();
  }
  return iwrite_at(at, data);
}

// --- views -----------------------------------------------------------------

void File::set_view(const FileView& view) {
  view.validate();
  std::lock_guard lk(fp_mu_);
  view_ = view;
  fp_ = 0;  // MPI_File_set_view resets the individual file pointer
}

FileView File::view() const {
  std::lock_guard lk(fp_mu_);
  return view_;
}

std::uint64_t File::size() { return handle_->size(); }

void File::flush() { handle_->flush(); }

void File::close() {
  if (closed_) return;
  closed_ = true;
  flush();
  handle_.reset();
}

}  // namespace remio::mpiio
