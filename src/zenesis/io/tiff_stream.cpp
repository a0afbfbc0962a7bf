#include "zenesis/io/tiff_stream.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "zenesis/io/tiff_codec.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/parallel/parallel_for.hpp"

namespace zenesis::io {

// ---------------------------------------------------------------------------
// File source selection (mmap where supported, warn-once pread fallback)
// ---------------------------------------------------------------------------

namespace {

std::once_flag g_mmap_warn_once;

std::shared_ptr<const ByteSource> make_file_source(const std::string& path) {
  if (MmapByteSource::supported()) {
    return std::make_shared<MmapByteSource>(path);
  }
  std::call_once(g_mmap_warn_once, [] {
    std::fprintf(stderr,
                 "zenesis: mmap TIFF source unavailable on this platform; "
                 "using pread\n");
  });
  return std::make_shared<PreadByteSource>(path);
}

}  // namespace

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

namespace {

// Tag ids of the supported grayscale subset.
constexpr std::uint16_t kTagImageWidth = 256;
constexpr std::uint16_t kTagImageLength = 257;
constexpr std::uint16_t kTagBitsPerSample = 258;
constexpr std::uint16_t kTagCompression = 259;
constexpr std::uint16_t kTagPhotometric = 262;
constexpr std::uint16_t kTagStripOffsets = 273;
constexpr std::uint16_t kTagSamplesPerPixel = 277;
constexpr std::uint16_t kTagRowsPerStrip = 278;
constexpr std::uint16_t kTagStripByteCounts = 279;
constexpr std::uint16_t kTagPredictor = 317;
constexpr std::uint16_t kTagTileWidth = 322;
constexpr std::uint16_t kTagTileLength = 323;
constexpr std::uint16_t kTagTileOffsets = 324;
constexpr std::uint16_t kTagTileByteCounts = 325;
constexpr std::uint16_t kTagSampleFormat = 339;

constexpr std::uint16_t kTypeShort = 3;
constexpr std::uint16_t kTypeLong = 4;
constexpr std::uint16_t kTypeLong8 = 16;

constexpr int kCompressionNone = 1;
constexpr int kCompressionLzw = 5;
constexpr int kCompressionDeflate = 8;
constexpr int kCompressionDeflateOld = 32946;  ///< pre-6.0 Deflate tag
constexpr int kCompressionPackBits = 32773;

constexpr int kPredictorNone = 1;
constexpr int kPredictorHorizontal = 2;

constexpr int kPhotometricMinIsWhite = 0;
constexpr int kPhotometricBlackIsZero = 1;
constexpr int kPhotometricPalette = 3;

[[noreturn]] void raise(TiffErrorKind kind, const std::string& detail,
                        std::uint64_t off, std::uint16_t tag = 0,
                        std::int64_t page = -1) {
  throw TiffError(kind, detail, off, tag, page);
}

/// a*b with overflow detection: a crafted width/height must not be able to
/// wrap the size arithmetic and sneak past a bounds check.
std::uint64_t checked_mul(std::uint64_t a, std::uint64_t b, const char* what,
                          std::uint64_t off, std::uint16_t tag,
                          std::int64_t page) {
  if (b != 0 && a > std::numeric_limits<std::uint64_t>::max() / b) {
    raise(TiffErrorKind::kLimitExceeded,
          std::string("arithmetic overflow computing ") + what, off, tag, page);
  }
  return a * b;
}

std::uint64_t checked_add(std::uint64_t a, std::uint64_t b, const char* what,
                          std::uint64_t off, std::uint16_t tag,
                          std::int64_t page) {
  if (a > std::numeric_limits<std::uint64_t>::max() - b) {
    raise(TiffErrorKind::kLimitExceeded,
          std::string("arithmetic overflow computing ") + what, off, tag, page);
  }
  return a + b;
}

/// Endianness- and format-aware cursor over a ByteSource. All reads bounds-
/// check through ByteSource::read_at (which throws TiffError{kTruncated}).
struct Cursor {
  const ByteSource* src = nullptr;
  bool be = false;   ///< big-endian byte order
  bool big = false;  ///< BigTIFF (8-byte offsets, 20-byte IFD entries)

  std::uint16_t u16(std::uint64_t off) const {
    std::uint8_t b[2];
    src->read_at(off, b, 2);
    return be ? static_cast<std::uint16_t>((b[0] << 8) | b[1])
              : static_cast<std::uint16_t>(b[0] | (b[1] << 8));
  }
  std::uint32_t u32(std::uint64_t off) const {
    std::uint8_t b[4];
    src->read_at(off, b, 4);
    if (be) {
      return (static_cast<std::uint32_t>(b[0]) << 24) |
             (static_cast<std::uint32_t>(b[1]) << 16) |
             (static_cast<std::uint32_t>(b[2]) << 8) |
             static_cast<std::uint32_t>(b[3]);
    }
    return static_cast<std::uint32_t>(b[0]) |
           (static_cast<std::uint32_t>(b[1]) << 8) |
           (static_cast<std::uint32_t>(b[2]) << 16) |
           (static_cast<std::uint32_t>(b[3]) << 24);
  }
  std::uint64_t u64(std::uint64_t off) const {
    std::uint8_t b[8];
    src->read_at(off, b, 8);
    std::uint64_t v = 0;
    if (be) {
      for (int i = 0; i < 8; ++i) v = (v << 8) | b[i];
    } else {
      for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    }
    return v;
  }
  /// Reads an offset-sized integer (u32 classic, u64 BigTIFF).
  std::uint64_t offset_at(std::uint64_t off) const {
    return big ? u64(off) : u32(off);
  }
};

struct Entry {
  std::uint16_t tag = 0;
  std::uint16_t type = 0;
  std::uint64_t count = 0;
  std::uint64_t value_off = 0;  ///< offset of the value/offset field
  bool present = false;
};

std::uint64_t type_size(const Cursor& c, const Entry& e, std::int64_t page) {
  switch (e.type) {
    case kTypeShort: return 2;
    case kTypeLong: return 4;
    case kTypeLong8:
      if (!c.big) {
        raise(TiffErrorKind::kCorruptIfd, "LONG8 entry in classic TIFF",
              e.value_off, e.tag, page);
      }
      return 8;
    default:
      raise(TiffErrorKind::kCorruptIfd,
            "unsupported entry type " + std::to_string(e.type), e.value_off,
            e.tag, page);
  }
}

/// Reads the i-th scalar of a SHORT/LONG/LONG8 entry, resolving the
/// inline-vs-external value placement with full bounds checking.
std::uint64_t entry_scalar(const Cursor& c, const Entry& e, std::uint64_t i,
                           std::int64_t page) {
  if (i >= e.count) {
    raise(TiffErrorKind::kCorruptIfd, "entry index out of range", e.value_off,
          e.tag, page);
  }
  const std::uint64_t elem = type_size(c, e, page);
  const std::uint64_t inline_cap = c.big ? 8 : 4;
  const std::uint64_t total =
      checked_mul(e.count, elem, "entry value size", e.value_off, e.tag, page);
  std::uint64_t base = e.value_off;
  if (total > inline_cap) {
    base = c.offset_at(e.value_off);
    const std::uint64_t end =
        checked_add(base, total, "entry value extent", base, e.tag, page);
    if (end > c.src->size()) {
      raise(TiffErrorKind::kOffsetOutOfBounds, "entry value array outside file",
            base, e.tag, page);
    }
  }
  const std::uint64_t off = base + i * elem;  // i < count, extent checked
  switch (elem) {
    case 2: return c.u16(off);
    case 4: return c.u32(off);
    default: return c.u64(off);
  }
}

Cursor open_cursor(const ByteSource& src) {
  Cursor c;
  c.src = &src;
  if (src.size() < 8) raise(TiffErrorKind::kBadHeader, "file too small", 0);
  std::uint8_t bom[2];
  src.read_at(0, bom, 2);
  if (bom[0] == 'I' && bom[1] == 'I') {
    c.be = false;
  } else if (bom[0] == 'M' && bom[1] == 'M') {
    c.be = true;
  } else {
    raise(TiffErrorKind::kBadHeader, "bad byte-order mark", 0);
  }
  const std::uint16_t version = c.u16(2);
  if (version == 42) {
    c.big = false;
  } else if (version == 43) {
    c.big = true;
    if (src.size() < 16) {
      raise(TiffErrorKind::kBadHeader, "BigTIFF header too small", 4);
    }
    if (c.u16(4) != 8) {
      raise(TiffErrorKind::kBadHeader, "BigTIFF offset size must be 8", 4);
    }
    if (c.u16(6) != 0) {
      raise(TiffErrorKind::kBadHeader, "BigTIFF reserved word must be 0", 6);
    }
  } else {
    raise(TiffErrorKind::kBadHeader,
          "bad magic number " + std::to_string(version), 2);
  }
  return c;
}

/// Parses and fully validates one IFD; returns the page plus the next-IFD
/// offset (0 = end of chain).
std::pair<TiffPageInfo, std::uint64_t> parse_ifd(const Cursor& c,
                                                 std::uint64_t ifd_off,
                                                 const TiffReadLimits& limits,
                                                 std::int64_t page) {
  const std::uint64_t n_entries = c.big ? c.u64(ifd_off) : c.u16(ifd_off);
  if (n_entries == 0) {
    raise(TiffErrorKind::kCorruptIfd, "empty IFD", ifd_off, 0, page);
  }
  if (n_entries > limits.max_ifd_entries) {
    raise(TiffErrorKind::kLimitExceeded,
          "IFD entry count " + std::to_string(n_entries) + " exceeds limit " +
              std::to_string(limits.max_ifd_entries),
          ifd_off, 0, page);
  }
  const std::uint64_t entry_size = c.big ? 20 : 12;
  const std::uint64_t entries_base = checked_add(
      ifd_off, c.big ? 8 : 2, "IFD entry table offset", ifd_off, 0, page);
  // The whole table plus the trailing next-IFD pointer must be in bounds
  // before iterating, so a truncated table fails here, not mid-entry.
  const std::uint64_t table_bytes = checked_add(
      checked_mul(n_entries, entry_size, "IFD table size", ifd_off, 0, page),
      c.big ? 8 : 4, "IFD table size", ifd_off, 0, page);
  const std::uint64_t table_end =
      checked_add(entries_base, table_bytes, "IFD table extent", ifd_off, 0,
                  page);
  if (table_end > c.src->size()) {
    raise(TiffErrorKind::kTruncated, "IFD table past end of file", ifd_off, 0,
          page);
  }

  std::uint64_t width = 0, height = 0, rows_per_strip = 0;
  std::uint64_t tile_width = 0, tile_height = 0;
  std::uint64_t bits = 8, spp = 1, compression = kCompressionNone;
  std::uint64_t photometric = kPhotometricBlackIsZero, sample_format = 1;
  std::uint64_t predictor = kPredictorNone;
  Entry strip_offsets_e, strip_counts_e, tile_offsets_e, tile_counts_e;

  for (std::uint64_t i = 0; i < n_entries; ++i) {
    const std::uint64_t e_off = entries_base + i * entry_size;
    Entry e;
    e.tag = c.u16(e_off);
    e.type = c.u16(e_off + 2);
    e.count = c.big ? c.u64(e_off + 4) : c.u32(e_off + 4);
    e.value_off = e_off + (c.big ? 12 : 8);
    e.present = true;
    switch (e.tag) {
      case kTagImageWidth: width = entry_scalar(c, e, 0, page); break;
      case kTagImageLength: height = entry_scalar(c, e, 0, page); break;
      case kTagBitsPerSample: bits = entry_scalar(c, e, 0, page); break;
      case kTagCompression: compression = entry_scalar(c, e, 0, page); break;
      case kTagPhotometric: photometric = entry_scalar(c, e, 0, page); break;
      case kTagSamplesPerPixel: spp = entry_scalar(c, e, 0, page); break;
      case kTagRowsPerStrip: rows_per_strip = entry_scalar(c, e, 0, page); break;
      case kTagPredictor: predictor = entry_scalar(c, e, 0, page); break;
      case kTagSampleFormat: sample_format = entry_scalar(c, e, 0, page); break;
      case kTagStripOffsets: strip_offsets_e = e; break;
      case kTagStripByteCounts: strip_counts_e = e; break;
      case kTagTileWidth: tile_width = entry_scalar(c, e, 0, page); break;
      case kTagTileLength: tile_height = entry_scalar(c, e, 0, page); break;
      case kTagTileOffsets: tile_offsets_e = e; break;
      case kTagTileByteCounts: tile_counts_e = e; break;
      default: break;  // tags outside the subset are ignored
    }
  }

  if (width == 0 || height == 0) {
    raise(TiffErrorKind::kCorruptIfd, "missing or zero image dimensions",
          ifd_off, 0, page);
  }
  const std::uint64_t pixels =
      checked_mul(width, height, "pixel count", ifd_off, 0, page);
  if (pixels > limits.max_pixels_per_page) {
    raise(TiffErrorKind::kLimitExceeded,
          "page pixel count " + std::to_string(pixels) + " exceeds limit " +
              std::to_string(limits.max_pixels_per_page),
          ifd_off, 0, page);
  }
  if (bits != 8 && bits != 16 && bits != 32) {
    raise(TiffErrorKind::kUnsupported,
          "unsupported bits per sample " + std::to_string(bits), ifd_off,
          kTagBitsPerSample, page);
  }
  if (spp != 1) {
    raise(TiffErrorKind::kUnsupported,
          "only single-sample (grayscale) TIFF supported", ifd_off,
          kTagSamplesPerPixel, page);
  }
  if (sample_format != 1) {
    raise(TiffErrorKind::kUnsupported,
          "only unsigned-integer samples supported", ifd_off, kTagSampleFormat,
          page);
  }
  if (compression != kCompressionNone && compression != kCompressionLzw &&
      compression != kCompressionDeflate &&
      compression != kCompressionDeflateOld &&
      compression != kCompressionPackBits) {
    raise(TiffErrorKind::kUnsupported,
          "unsupported compression " + std::to_string(compression), ifd_off,
          kTagCompression, page);
  }
  if (predictor != kPredictorNone && predictor != kPredictorHorizontal) {
    raise(TiffErrorKind::kUnsupported,
          "unsupported predictor " + std::to_string(predictor), ifd_off,
          kTagPredictor, page);
  }
  if (photometric == kPhotometricPalette) {
    raise(TiffErrorKind::kUnsupported, "palette-color TIFF not supported",
          ifd_off, kTagPhotometric, page);
  }
  if (photometric != kPhotometricMinIsWhite &&
      photometric != kPhotometricBlackIsZero) {
    raise(TiffErrorKind::kUnsupported,
          "unsupported photometric interpretation " +
              std::to_string(photometric),
          ifd_off, kTagPhotometric, page);
  }
  const std::uint64_t bytes_per_sample = bits / 8;
  const std::uint64_t decoded =
      checked_mul(pixels, bytes_per_sample, "decoded size", ifd_off, 0, page);
  if (decoded > limits.max_decoded_bytes) {
    raise(TiffErrorKind::kLimitExceeded,
          "decoded page size " + std::to_string(decoded) + " exceeds limit " +
              std::to_string(limits.max_decoded_bytes),
          ifd_off, 0, page);
  }

  TiffPageInfo info;
  info.width = static_cast<std::int64_t>(width);
  info.height = static_cast<std::int64_t>(height);
  info.bits = static_cast<int>(bits);
  info.compression = static_cast<int>(compression);
  info.predictor = static_cast<int>(predictor);
  info.photometric = static_cast<int>(photometric);
  info.big_endian = c.be;

  const bool has_strips = strip_offsets_e.present || strip_counts_e.present;
  const bool has_tiles = tile_offsets_e.present || tile_counts_e.present;
  if (has_strips && has_tiles) {
    raise(TiffErrorKind::kCorruptIfd, "both strip and tile layout present",
          ifd_off, 0, page);
  }
  if (!has_strips && !has_tiles) {
    raise(TiffErrorKind::kCorruptIfd, "missing strip/tile location tags",
          ifd_off, 0, page);
  }

  Entry offsets_e, counts_e;
  std::uint64_t n_segments = 0;
  if (has_tiles) {
    if (!tile_offsets_e.present || !tile_counts_e.present) {
      raise(TiffErrorKind::kCorruptIfd, "incomplete tile tags", ifd_off,
            kTagTileOffsets, page);
    }
    if (tile_width == 0 || tile_height == 0) {
      raise(TiffErrorKind::kCorruptIfd, "missing or zero tile dimensions",
            ifd_off, kTagTileWidth, page);
    }
    // A single decoded tile is bounded like a page, so a crafted tile
    // geometry cannot allocation-bomb the decoder.
    const std::uint64_t tile_pixels = checked_mul(
        tile_width, tile_height, "tile pixel count", ifd_off, kTagTileWidth,
        page);
    if (tile_pixels > limits.max_pixels_per_page ||
        checked_mul(tile_pixels, bytes_per_sample, "tile size", ifd_off,
                    kTagTileWidth, page) > limits.max_decoded_bytes) {
      raise(TiffErrorKind::kLimitExceeded, "tile dimensions exceed limits",
            ifd_off, kTagTileWidth, page);
    }
    const std::uint64_t across = (width + tile_width - 1) / tile_width;
    const std::uint64_t down = (height + tile_height - 1) / tile_height;
    n_segments = checked_mul(across, down, "tile count", ifd_off,
                             kTagTileOffsets, page);
    info.tiled = true;
    info.tile_width = static_cast<std::int64_t>(tile_width);
    info.tile_height = static_cast<std::int64_t>(tile_height);
    offsets_e = tile_offsets_e;
    counts_e = tile_counts_e;
  } else {
    if (!strip_offsets_e.present || !strip_counts_e.present) {
      raise(TiffErrorKind::kCorruptIfd, "incomplete strip tags", ifd_off,
            kTagStripOffsets, page);
    }
    if (rows_per_strip == 0 || rows_per_strip > height) rows_per_strip = height;
    n_segments = (height + rows_per_strip - 1) / rows_per_strip;
    info.rows_per_strip = static_cast<std::int64_t>(rows_per_strip);
    offsets_e = strip_offsets_e;
    counts_e = strip_counts_e;
  }

  if (offsets_e.count != n_segments || counts_e.count != n_segments) {
    raise(TiffErrorKind::kCorruptIfd,
          "strip/tile tag count mismatch (expected " +
              std::to_string(n_segments) + ", offsets " +
              std::to_string(offsets_e.count) + ", counts " +
              std::to_string(counts_e.count) + ")",
          ifd_off, offsets_e.tag, page);
  }

  info.segment_offsets.resize(static_cast<std::size_t>(n_segments));
  info.segment_counts.resize(static_cast<std::size_t>(n_segments));
  for (std::uint64_t i = 0; i < n_segments; ++i) {
    const std::uint64_t off = entry_scalar(c, offsets_e, i, page);
    const std::uint64_t cnt = entry_scalar(c, counts_e, i, page);
    const std::uint64_t end =
        checked_add(off, cnt, "segment extent", off, offsets_e.tag, page);
    if (end > c.src->size()) {
      raise(TiffErrorKind::kOffsetOutOfBounds,
            "strip/tile data outside file", off, offsets_e.tag, page);
    }
    // Bounds the transient compressed-segment buffer the decoder reads.
    if (cnt > limits.max_decoded_bytes) {
      raise(TiffErrorKind::kLimitExceeded, "segment byte count exceeds limit",
            off, counts_e.tag, page);
    }
    info.segment_offsets[static_cast<std::size_t>(i)] = off;
    info.segment_counts[static_cast<std::size_t>(i)] = cnt;
  }

  const std::uint64_t next =
      c.offset_at(entries_base + n_entries * entry_size);
  return {std::move(info), next};
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// PackBits (Apple RLE) decompression into an exact-size output. Corrupt
/// streams throw rather than over- or under-filling the buffer; every
/// iteration consumes input, so the loop terminates on any byte sequence.
void packbits_decode(const std::uint8_t* in, std::size_t in_size,
                     std::uint8_t* out, std::size_t out_size,
                     std::uint64_t src_off, std::int64_t page) {
  std::size_t ip = 0, op = 0;
  while (op < out_size) {
    if (ip >= in_size) {
      raise(TiffErrorKind::kTruncated, "PackBits stream exhausted",
            src_off + ip, 0, page);
    }
    const auto ctl = static_cast<std::int8_t>(in[ip++]);
    if (ctl >= 0) {
      const std::size_t n = static_cast<std::size_t>(ctl) + 1;
      if (ip + n > in_size) {
        raise(TiffErrorKind::kTruncated, "PackBits literal past input end",
              src_off + ip, 0, page);
      }
      if (op + n > out_size) {
        raise(TiffErrorKind::kCorruptIfd, "PackBits output overrun",
              src_off + ip, 0, page);
      }
      std::memcpy(out + op, in + ip, n);
      ip += n;
      op += n;
    } else if (ctl != -128) {  // -128 is a no-op per the spec
      const std::size_t n = static_cast<std::size_t>(1 - ctl);
      if (ip >= in_size) {
        raise(TiffErrorKind::kTruncated, "PackBits run past input end",
              src_off + ip, 0, page);
      }
      if (op + n > out_size) {
        raise(TiffErrorKind::kCorruptIfd, "PackBits output overrun",
              src_off + ip, 0, page);
      }
      std::memset(out + op, in[ip++], n);
      op += n;
    }
  }
}

/// Loads segment `s` of `info` (exactly `required` decoded bytes) and
/// returns a pointer to them: straight into the source's zero-copy view
/// when one exists and no transform is needed, otherwise into `dst`.
/// `row_samples`/`rows` describe the segment's row geometry for the
/// predictor; `scratch` is a reusable compressed-input staging buffer
/// for sources without views.
const std::uint8_t* load_segment(const ByteSource& src,
                                 const TiffPageInfo& info, std::size_t s,
                                 std::uint8_t* dst, std::size_t required,
                                 std::int64_t row_samples, std::int64_t rows,
                                 std::vector<std::uint8_t>& scratch,
                                 std::int64_t page) {
  const std::uint64_t off = info.segment_offsets[s];
  const std::uint64_t cnt = info.segment_counts[s];
  const bool predicted = info.predictor == kPredictorHorizontal;
  const int bps = info.bits / 8;

  if (info.compression == kCompressionNone) {
    if (cnt < required) {
      raise(TiffErrorKind::kCorruptIfd,
            "strip/tile byte count smaller than decoded size", off, 0, page);
    }
    const std::span<const std::uint8_t> v = src.view(off, required);
    if (!v.empty() && !predicted) {
      return v.data();  // zero-copy: samples convert straight from the map
    }
    if (!v.empty()) {
      std::memcpy(dst, v.data(), required);
    } else {
      src.read_at(off, dst, required);
    }
    if (predicted) {
      codec::predictor_undo(dst, row_samples, rows, bps, info.big_endian);
    }
    return dst;
  }

  // Compressed: feed the decompressor from the view when the source has
  // one (no staging copy), else stage through scratch.
  const std::uint8_t* in;
  const auto in_size = static_cast<std::size_t>(cnt);
  const std::span<const std::uint8_t> v = src.view(off, in_size);
  if (!v.empty()) {
    in = v.data();
  } else {
    scratch.resize(in_size);
    src.read_at(off, scratch.data(), in_size);
    in = scratch.data();
  }
  switch (info.compression) {
    case kCompressionPackBits:
      packbits_decode(in, in_size, dst, required, off, page);
      break;
    case kCompressionLzw:
      codec::lzw_decode(in, in_size, dst, required, off, page);
      break;
    default:  // kCompressionDeflate / kCompressionDeflateOld
      codec::zlib_inflate(in, in_size, dst, required, off, page);
      break;
  }
  if (predicted) {
    codec::predictor_undo(dst, row_samples, rows, bps, info.big_endian);
  }
  return dst;
}

template <typename T>
T sample_at(const std::uint8_t* p, bool be) {
  if constexpr (sizeof(T) == 1) {
    return *p;
  } else if constexpr (sizeof(T) == 2) {
    return be ? static_cast<T>((p[0] << 8) | p[1])
              : static_cast<T>(p[0] | (p[1] << 8));
  } else {
    if (be) {
      return (static_cast<T>(p[0]) << 24) | (static_cast<T>(p[1]) << 16) |
             (static_cast<T>(p[2]) << 8) | static_cast<T>(p[3]);
    }
    return static_cast<T>(p[0]) | (static_cast<T>(p[1]) << 8) |
           (static_cast<T>(p[2]) << 16) | (static_cast<T>(p[3]) << 24);
  }
}

template <typename T>
image::Image<T> decode_typed(const ByteSource& src, const TiffPageInfo& info,
                             std::int64_t page) {
  const std::int64_t w = info.width;
  const std::int64_t h = info.height;
  image::Image<T> img(w, h, 1);
  const std::span<T> px = img.pixels();
  const bool be = info.big_endian;
  const bool invert = info.photometric == kPhotometricMinIsWhite;
  const std::size_t bps = sizeof(T);
  std::vector<std::uint8_t> seg;
  std::vector<std::uint8_t> scratch;

  const auto store = [&](std::int64_t x, std::int64_t y,
                         const std::uint8_t* p) {
    T v = sample_at<T>(p, be);
    if (invert) v = static_cast<T>(std::numeric_limits<T>::max() - v);
    px[static_cast<std::size_t>(y * w + x)] = v;
  };

  if (info.tiled) {
    const std::int64_t tw = info.tile_width;
    const std::int64_t th = info.tile_height;
    const std::int64_t across = (w + tw - 1) / tw;
    const std::int64_t down = (h + th - 1) / th;
    const std::size_t tile_bytes =
        static_cast<std::size_t>(tw) * static_cast<std::size_t>(th) * bps;
    seg.resize(tile_bytes);
    for (std::int64_t ty = 0; ty < down; ++ty) {
      for (std::int64_t tx = 0; tx < across; ++tx) {
        const auto s = static_cast<std::size_t>(ty * across + tx);
        const std::uint8_t* data = load_segment(src, info, s, seg.data(),
                                                tile_bytes, tw, th, scratch,
                                                page);
        const std::int64_t y0 = ty * th;
        const std::int64_t x0 = tx * tw;
        const std::int64_t rows = std::min<std::int64_t>(th, h - y0);
        const std::int64_t cols = std::min<std::int64_t>(tw, w - x0);
        for (std::int64_t r = 0; r < rows; ++r) {
          const std::uint8_t* row =
              data + static_cast<std::size_t>(r * tw) * bps;
          for (std::int64_t ccol = 0; ccol < cols; ++ccol) {
            store(x0 + ccol, y0 + r,
                  row + static_cast<std::size_t>(ccol) * bps);
          }
        }
      }
    }
    return img;
  }

  const std::int64_t rps = info.rows_per_strip;
  const std::size_t row_bytes = static_cast<std::size_t>(w) * bps;
  std::int64_t y = 0;
  for (std::size_t s = 0; s < info.segment_offsets.size(); ++s) {
    const std::int64_t rows = std::min<std::int64_t>(rps, h - y);
    const std::size_t required = row_bytes * static_cast<std::size_t>(rows);
    seg.resize(required);
    const std::uint8_t* data =
        load_segment(src, info, s, seg.data(), required, w, rows, scratch,
                     page);
    for (std::int64_t r = 0; r < rows; ++r, ++y) {
      const std::uint8_t* row =
          data + static_cast<std::size_t>(r) * row_bytes;
      for (std::int64_t x = 0; x < w; ++x) {
        store(x, y, row + static_cast<std::size_t>(x) * bps);
      }
    }
  }
  return img;
}

std::vector<TiffPageInfo> parse_pages(const ByteSource& source,
                                      const TiffReadLimits& limits) {
  const Cursor c = open_cursor(source);
  std::uint64_t ifd_off = c.big ? c.u64(8) : c.u32(4);
  std::vector<TiffPageInfo> pages;
  // Visited-offset tracking: a cyclic next-IFD chain (2-page self-loop,
  // pointer back into an earlier IFD, ...) fails on its first repeat
  // instead of looping or decoding thousands of phantom pages.
  std::unordered_set<std::uint64_t> visited;
  while (ifd_off != 0) {
    const auto page = static_cast<std::int64_t>(pages.size());
    if (!visited.insert(ifd_off).second) {
      raise(TiffErrorKind::kCorruptIfd, "cycle in IFD chain", ifd_off, 0,
            page);
    }
    if (pages.size() >= limits.max_pages) {
      raise(TiffErrorKind::kLimitExceeded,
            "page count exceeds limit " + std::to_string(limits.max_pages),
            ifd_off, 0, page);
    }
    auto [info, next] = parse_ifd(c, ifd_off, limits, page);
    pages.push_back(std::move(info));
    ifd_off = next;
  }
  if (pages.empty()) {
    raise(TiffErrorKind::kCorruptIfd, "no pages", c.big ? 8 : 4);
  }
  return pages;
}

image::AnyImage decode_page(const ByteSource& source,
                            const TiffPageInfo& info,
                            const TiffReadLimits& limits,
                            std::int64_t page_index) {
  if (info.decoded_bytes() > limits.max_decoded_bytes) {
    raise(TiffErrorKind::kLimitExceeded, "decoded page size exceeds limit", 0,
          0, page_index);
  }
  switch (info.bits) {
    case 8: return decode_typed<std::uint8_t>(source, info, page_index);
    case 16: return decode_typed<std::uint16_t>(source, info, page_index);
    case 32: return decode_typed<std::uint32_t>(source, info, page_index);
    default:
      raise(TiffErrorKind::kUnsupported,
            "unsupported bits per sample " + std::to_string(info.bits), 0, 0,
            page_index);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// TiffVolumeReader
// ---------------------------------------------------------------------------

TiffVolumeReader TiffVolumeReader::open(const std::string& path,
                                        const TiffOpenOptions& options) {
  return TiffVolumeReader(make_file_source(path), options);
}

TiffVolumeReader TiffVolumeReader::open(std::vector<std::uint8_t> bytes,
                                        const TiffOpenOptions& options) {
  return TiffVolumeReader(
      std::make_shared<MemoryByteSource>(std::move(bytes)), options);
}

TiffVolumeReader TiffVolumeReader::open(
    std::shared_ptr<const ByteSource> source, const TiffOpenOptions& options) {
  return TiffVolumeReader(std::move(source), options);
}

TiffVolumeReader::TiffVolumeReader(std::shared_ptr<const ByteSource> source,
                                   const TiffOpenOptions& options)
    : source_(std::move(source)), limits_(options.limits) {
  if (!source_) {
    throw std::invalid_argument("TiffVolumeReader: null byte source");
  }
  pages_ = parse_pages(*source_, limits_);
}

const TiffPageInfo& TiffVolumeReader::page_info(std::int64_t page) const {
  if (page < 0 || page >= pages()) {
    throw std::out_of_range("TiffVolumeReader: page index out of range");
  }
  return pages_[static_cast<std::size_t>(page)];
}

bool TiffVolumeReader::uniform_geometry() const noexcept {
  for (const auto& p : pages_) {
    if (p.width != pages_.front().width || p.height != pages_.front().height ||
        p.bits != pages_.front().bits) {
      return false;
    }
  }
  return true;
}

void TiffVolumeReader::require_uniform_geometry() const {
  if (!uniform_geometry()) {
    raise(TiffErrorKind::kUnsupported,
          "pages differ in geometry/depth; volume streaming requires a "
          "uniform stack",
          0);
  }
}

image::AnyImage TiffVolumeReader::read_page(std::int64_t page) const {
  obs::Span span("tiff.read_page", static_cast<std::uint64_t>(page));
  return decode_page(*source_, page_info(page), limits_, page);
}

image::ImageU16 TiffVolumeReader::read_page_u16(std::int64_t page) const {
  image::AnyImage img = read_page(page);
  auto* u16 = std::get_if<image::ImageU16>(&img);
  if (u16 == nullptr) {
    raise(TiffErrorKind::kUnsupported, "16-bit page expected", 0, 0, page);
  }
  return std::move(*u16);
}

image::VolumeU16 TiffVolumeReader::read_volume_u16() const {
  require_uniform_geometry();
  std::uint64_t total = 0;
  for (const auto& p : pages_) {
    total = checked_add(total, p.decoded_bytes(), "volume size", 0, 0, -1);
  }
  if (total > limits_.max_decoded_bytes) {
    raise(TiffErrorKind::kLimitExceeded,
          "materialized volume size " + std::to_string(total) +
              " exceeds limit " + std::to_string(limits_.max_decoded_bytes) +
              "; stream pages instead",
          0);
  }
  // Pages are independent: decode them on the pool (each read_page call
  // records its own tiff.read_page span), then assemble in order.
  const std::int64_t n = pages();
  std::vector<image::ImageU16> slices(static_cast<std::size_t>(n));
  parallel::parallel_for(0, n, [&](std::int64_t z) {
    slices[static_cast<std::size_t>(z)] = read_page_u16(z);
  });
  image::VolumeU16 vol;
  for (auto& slice : slices) {
    vol.push_slice(std::move(slice));
  }
  return vol;
}

}  // namespace zenesis::io
