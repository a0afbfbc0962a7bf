#pragma once
// Streaming TIFF access: parse every IFD once, decode slices on demand.
//
// Real electron-microscopy stacks are multi-gigabyte, tiled, often
// compressed TIFFs. Materializing such a file (read_tiff) costs
// O(file size) memory; TiffVolumeReader costs O(metadata) + one slice
// per read_page call, which is what lets Mode B stream a stack through
// segment_volume instead of holding it whole. The reader is safe to
// share across the volume pipeline's worker threads: decoding allocates
// per call and every ByteSource implementation is lock-free
// thread-safe (positioned reads or immutable mappings).
//
// Opening goes through one front door, TiffVolumeReader::open: a path
// is read through an mmap source where the platform supports it (else
// pread), a byte buffer through a MemoryByteSource, and a caller-built
// ByteSource as given — the way to pick a specific source. TiffOpenOptions
// carries the read limits.
//
// Format coverage (read): classic TIFF and BigTIFF (version 43), little-
// and big-endian, strip and tile layouts, uncompressed, PackBits, LZW
// and Deflate/zlib (tags 8 + 32946) compression, horizontal predictor,
// 8/16/32-bit unsigned grayscale, Photometric BlackIsZero and
// MinIsWhite (inverted on decode so callers always see
// "bright = signal"). Palette and RGB pages are rejected with
// TiffError{kUnsupported}.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "zenesis/image/image.hpp"
#include "zenesis/io/byte_source.hpp"
#include "zenesis/io/tiff_error.hpp"

namespace zenesis::io {

/// Everything TiffVolumeReader::open needs beyond the path/bytes/source:
/// the untrusted-input limits.
struct TiffOpenOptions {
  TiffReadLimits limits{};
};

/// Parsed per-page metadata: everything decode needs, nothing decoded.
/// All fields are validated (limits, overflow, in-bounds) at parse time.
struct TiffPageInfo {
  std::int64_t width = 0;
  std::int64_t height = 0;
  int bits = 8;                 ///< 8, 16 or 32
  int compression = 1;          ///< 1=none, 5=LZW, 8/32946=Deflate,
                                ///< 32773=PackBits
  int predictor = 1;            ///< 1 = none, 2 = horizontal differencing
  int photometric = 1;          ///< 0 = MinIsWhite, 1 = BlackIsZero
  bool big_endian = false;      ///< byte order of multi-byte samples
  bool tiled = false;
  std::int64_t rows_per_strip = 0;  ///< strip layout
  std::int64_t tile_width = 0;      ///< tile layout
  std::int64_t tile_height = 0;
  /// One entry per strip (striped) or per tile (tiled), row-major.
  std::vector<std::uint64_t> segment_offsets;
  std::vector<std::uint64_t> segment_counts;

  std::uint64_t decoded_bytes() const noexcept {
    return static_cast<std::uint64_t>(width) *
           static_cast<std::uint64_t>(height) *
           static_cast<std::uint64_t>(bits / 8);
  }
};

/// Streaming multi-page reader: open() parses and validates every IFD
/// (cycle-safe, limit-enforced); read_page decodes one slice with
/// bounded memory. const methods are safe to call concurrently.
class TiffVolumeReader {
 public:
  /// Opens a file without reading pixel data through an MmapByteSource,
  /// or a PreadByteSource where mmap is unsupported (warned once).
  static TiffVolumeReader open(const std::string& path,
                               const TiffOpenOptions& options = {});
  /// Parses an in-memory TIFF (tests, network buffers) through a
  /// MemoryByteSource.
  static TiffVolumeReader open(std::vector<std::uint8_t> bytes,
                               const TiffOpenOptions& options = {});
  /// Parses from a caller-provided source (object store, test double).
  static TiffVolumeReader open(std::shared_ptr<const ByteSource> source,
                               const TiffOpenOptions& options = {});

  std::int64_t pages() const noexcept {
    return static_cast<std::int64_t>(pages_.size());
  }
  const TiffPageInfo& page_info(std::int64_t page) const;
  std::int64_t width(std::int64_t page = 0) const { return page_info(page).width; }
  std::int64_t height(std::int64_t page = 0) const { return page_info(page).height; }
  int bit_depth(std::int64_t page = 0) const { return page_info(page).bits; }

  /// True when every page has identical width/height/bit depth (what the
  /// volume pipeline requires).
  bool uniform_geometry() const noexcept;
  /// Throws TiffError{kUnsupported} unless uniform_geometry().
  void require_uniform_geometry() const;

  /// Decodes one page. Thread-safe; allocates only this page (plus a
  /// transient compressed-segment buffer on non-view sources).
  image::AnyImage read_page(std::int64_t page) const;
  /// Decodes one page as 16-bit; throws TiffError{kUnsupported} for
  /// other depths.
  image::ImageU16 read_page_u16(std::int64_t page) const;

  /// Materializes all pages as a 16-bit volume, decoding them in
  /// parallel on the global ThreadPool (convenience; defeats
  /// streaming, cumulative size still checked against the limits).
  image::VolumeU16 read_volume_u16() const;

  const TiffReadLimits& limits() const noexcept { return limits_; }

 private:
  TiffVolumeReader(std::shared_ptr<const ByteSource> source,
                   const TiffOpenOptions& options);

  std::shared_ptr<const ByteSource> source_;
  TiffReadLimits limits_;
  std::vector<TiffPageInfo> pages_;
};

}  // namespace zenesis::io
