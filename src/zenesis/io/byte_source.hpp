#pragma once
// Random-access byte providers for the TIFF ingestion layer.
//
// The contract has two tiers:
//
//   read_at(off, dst, n)  — copy n bytes into a caller buffer. Always
//                           available, always thread-safe, throws
//                           TiffError{kTruncated} when [off, off+n) is
//                           not fully available.
//   view(off, n) -> span  — zero-copy: a pointer straight into the
//                           source's storage. Sources that cannot hand
//                           out stable pointers (PreadByteSource)
//                           return an EMPTY span and callers fall back
//                           to read_at; sources that can (memory,
//                           mmap) return exactly n bytes or throw
//                           TiffError{kTruncated} on an out-of-bounds
//                           range. Returned views live as long as the
//                           source object — destroying the source (or
//                           the TiffVolumeReader that owns it)
//                           invalidates every view.
//
// Three concrete sources cover the ingestion spectrum:
//   MemoryByteSource — owned buffer (tests, network payloads).
//   PreadByteSource  — positioned per-call pread(2); no seek state, no
//                      mutex, so concurrent slice decodes issue parallel
//                      I/O instead of serializing behind a file cursor.
//   MmapByteSource   — read-only mmap(2) with madvise hints; view() is
//                      true zero-copy, which lets strip/tile decode feed
//                      decompressors without staging copies and keeps
//                      RSS flat on volumes larger than memory budget
//                      (pages are evictable, never dirtied).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "zenesis/io/tiff_error.hpp"

namespace zenesis::io {

/// Random-access byte provider the parser/decoder run against. All
/// methods must be thread-safe; read_at throws TiffError{kTruncated}
/// when [off, off+n) is not fully available.
class ByteSource {
 public:
  virtual ~ByteSource() = default;
  virtual std::uint64_t size() const = 0;
  virtual void read_at(std::uint64_t off, std::uint8_t* dst,
                       std::size_t n) const = 0;
  /// Zero-copy window into the source. Default: empty span ("no view
  /// available; use read_at"). Overriders must return exactly n bytes
  /// or throw TiffError{kTruncated}; the span is valid until the
  /// source is destroyed.
  virtual std::span<const std::uint8_t> view(std::uint64_t off,
                                             std::size_t n) const {
    (void)off;
    (void)n;
    return {};
  }
};

/// ByteSource over an owned in-memory buffer; view() exposes it.
class MemoryByteSource final : public ByteSource {
 public:
  explicit MemoryByteSource(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}
  std::uint64_t size() const override { return bytes_.size(); }
  void read_at(std::uint64_t off, std::uint8_t* dst,
               std::size_t n) const override;
  std::span<const std::uint8_t> view(std::uint64_t off,
                                     std::size_t n) const override;

 private:
  std::vector<std::uint8_t> bytes_;
};

/// ByteSource over a file descriptor using positioned reads. Every
/// read_at is one (retried) pread(2): no shared seek cursor, no mutex,
/// so N threads decoding N slices issue N concurrent reads. view()
/// stays empty — callers get copies.
class PreadByteSource final : public ByteSource {
 public:
  explicit PreadByteSource(const std::string& path);
  ~PreadByteSource() override;
  PreadByteSource(const PreadByteSource&) = delete;
  PreadByteSource& operator=(const PreadByteSource&) = delete;

  std::uint64_t size() const override { return size_; }
  void read_at(std::uint64_t off, std::uint8_t* dst,
               std::size_t n) const override;

  /// High-water mark of reads observed in flight simultaneously.
  /// Regression probe for the old seek-mutex design, which pinned this
  /// at 1 no matter how many threads decoded concurrently.
  int max_concurrent_reads() const noexcept;

 private:
  struct Impl;
  Impl* impl_ = nullptr;
  std::uint64_t size_ = 0;
};

/// ByteSource over a read-only memory mapping. view() returns true
/// zero-copy spans into the mapping; read_at copies out of it. The
/// constructor applies madvise(SEQUENTIAL|WILLNEED) — the access pattern
/// of streaming volume decode. Views are invalidated when the source (or
/// the reader owning it) is destroyed.
class MmapByteSource final : public ByteSource {
 public:
  explicit MmapByteSource(const std::string& path);
  ~MmapByteSource() override;
  MmapByteSource(const MmapByteSource&) = delete;
  MmapByteSource& operator=(const MmapByteSource&) = delete;

  /// False on platforms without a usable mmap; TiffVolumeReader::open(path)
  /// falls back to pread (warn-once) instead of failing.
  static bool supported() noexcept;

  std::uint64_t size() const override { return size_; }
  void read_at(std::uint64_t off, std::uint8_t* dst,
               std::size_t n) const override;
  std::span<const std::uint8_t> view(std::uint64_t off,
                                     std::size_t n) const override;

 private:
  const std::uint8_t* map_ = nullptr;
  std::uint64_t size_ = 0;
};

}  // namespace zenesis::io
