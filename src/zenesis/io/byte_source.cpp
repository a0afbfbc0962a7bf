#include "zenesis/io/byte_source.hpp"

#include <atomic>
#include <cerrno>
#include <cstring>

#if defined(_WIN32)
#error "byte_source.cpp requires a POSIX platform (pread/mmap)"
#endif

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace zenesis::io {

namespace {

[[noreturn]] void raise_truncated(const std::string& detail,
                                  std::uint64_t off) {
  throw TiffError(TiffErrorKind::kTruncated, detail, off);
}

void check_range(std::uint64_t off, std::size_t n, std::uint64_t size,
                 const char* what) {
  if (off > size || n > size - off) {
    raise_truncated(what, off);
  }
}

int open_readonly(const std::string& path, std::uint64_t* size_out) {
  const int fd = ::open(path.c_str(), O_RDONLY);  // NOLINT
  if (fd < 0) {
    raise_truncated("cannot open " + path, 0);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    raise_truncated("cannot size " + path, 0);
  }
  *size_out = static_cast<std::uint64_t>(st.st_size);
  return fd;
}

}  // namespace

// ---------------------------------------------------------------------------
// MemoryByteSource
// ---------------------------------------------------------------------------

void MemoryByteSource::read_at(std::uint64_t off, std::uint8_t* dst,
                               std::size_t n) const {
  check_range(off, n, bytes_.size(), "read past end of data");
  if (n == 0) return;  // dst may be null for an empty segment
  std::memcpy(dst, bytes_.data() + off, n);
}

std::span<const std::uint8_t> MemoryByteSource::view(std::uint64_t off,
                                                     std::size_t n) const {
  check_range(off, n, bytes_.size(), "view past end of data");
  return {bytes_.data() + off, n};
}

// ---------------------------------------------------------------------------
// PreadByteSource
// ---------------------------------------------------------------------------

struct PreadByteSource::Impl {
  int fd = -1;
  // Concurrency high-water probe around the pread syscall; relaxed is
  // fine — the test only needs "ever saw >= 2", not ordering.
  mutable std::atomic<int> in_flight{0};
  mutable std::atomic<int> high_water{0};
};

PreadByteSource::PreadByteSource(const std::string& path) {
  // Open before allocating Impl: if the ctor throws, ~PreadByteSource
  // never runs, so nothing owned may predate the first throwing call.
  std::uint64_t size = 0;
  const int fd = open_readonly(path, &size);
  impl_ = new Impl;
  impl_->fd = fd;
  size_ = size;
}

PreadByteSource::~PreadByteSource() {
  if (impl_ != nullptr) {
    if (impl_->fd >= 0) ::close(impl_->fd);
    delete impl_;
  }
}

void PreadByteSource::read_at(std::uint64_t off, std::uint8_t* dst,
                              std::size_t n) const {
  check_range(off, n, size_, "read past end of file");
  if (n == 0) return;  // dst may be null for an empty segment
  const int now = impl_->in_flight.fetch_add(1, std::memory_order_relaxed) + 1;
  int seen = impl_->high_water.load(std::memory_order_relaxed);
  while (now > seen && !impl_->high_water.compare_exchange_weak(
                           seen, now, std::memory_order_relaxed)) {
  }
  std::size_t done = 0;
  while (done < n) {
    const ::ssize_t got =
        ::pread(impl_->fd, dst + done, n - done,
                static_cast<::off_t>(off + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      impl_->in_flight.fetch_sub(1, std::memory_order_relaxed);
      raise_truncated(std::string("pread failed: ") + std::strerror(errno),
                      off + done);
    }
    if (got == 0) {  // EOF before n bytes: file shrank under us
      impl_->in_flight.fetch_sub(1, std::memory_order_relaxed);
      raise_truncated("short read from file", off + done);
    }
    done += static_cast<std::size_t>(got);
  }
  impl_->in_flight.fetch_sub(1, std::memory_order_relaxed);
}

int PreadByteSource::max_concurrent_reads() const noexcept {
  return impl_->high_water.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MmapByteSource
// ---------------------------------------------------------------------------

bool MmapByteSource::supported() noexcept { return true; }

MmapByteSource::MmapByteSource(const std::string& path) {
  const int fd = open_readonly(path, &size_);
  if (size_ == 0) {
    // mmap(0) is EINVAL; an empty file still fails header validation
    // downstream, so an empty mapping is fine.
    ::close(fd);
    return;
  }
  void* m = ::mmap(nullptr, static_cast<std::size_t>(size_), PROT_READ,
                   MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (m == MAP_FAILED) {
    raise_truncated("mmap failed for " + path, 0);
  }
  map_ = static_cast<const std::uint8_t*>(m);
  // Advisory only: streaming volume decode walks strips in order
  // (SEQUENTIAL widens readahead) and touches most of the file
  // (WILLNEED starts it early). Failure is ignored by design.
  (void)::posix_madvise(m, static_cast<std::size_t>(size_),
                        POSIX_MADV_SEQUENTIAL);
  (void)::posix_madvise(m, static_cast<std::size_t>(size_),
                        POSIX_MADV_WILLNEED);
}

MmapByteSource::~MmapByteSource() {
  if (map_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(map_), static_cast<std::size_t>(size_));
  }
}

void MmapByteSource::read_at(std::uint64_t off, std::uint8_t* dst,
                             std::size_t n) const {
  check_range(off, n, size_, "read past end of file");
  if (n == 0) return;  // dst may be null for an empty segment
  std::memcpy(dst, map_ + off, n);
}

std::span<const std::uint8_t> MmapByteSource::view(std::uint64_t off,
                                                   std::size_t n) const {
  check_range(off, n, size_, "view past end of file");
  return {map_ + off, n};
}

}  // namespace zenesis::io
