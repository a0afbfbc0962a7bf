#pragma once
// The three shipped io::ByteSource implementations over one file, for
// tests that hold every source to the same decode contract. Each entry
// opens lazily, so a test can also check that each one fails cleanly.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "zenesis/io/byte_source.hpp"

namespace zenesis::test {

struct FileSourceKind {
  const char* name;
  std::function<std::shared_ptr<const io::ByteSource>(const std::string&)>
      open;
};

/// memory (the file slurped into a MemoryByteSource), pread and mmap.
inline std::vector<FileSourceKind> file_source_kinds() {
  return {
      {"memory",
       [](const std::string& path) -> std::shared_ptr<const io::ByteSource> {
         const io::PreadByteSource file(path);
         std::vector<std::uint8_t> bytes(static_cast<std::size_t>(file.size()));
         if (!bytes.empty()) file.read_at(0, bytes.data(), bytes.size());
         return std::make_shared<io::MemoryByteSource>(std::move(bytes));
       }},
      {"pread",
       [](const std::string& path) -> std::shared_ptr<const io::ByteSource> {
         return std::make_shared<io::PreadByteSource>(path);
       }},
      {"mmap",
       [](const std::string& path) -> std::shared_ptr<const io::ByteSource> {
         return std::make_shared<io::MmapByteSource>(path);
       }},
  };
}

}  // namespace zenesis::test
