// tiff_corpus — standalone runner for the TIFF fuzz harness.
//
// Two jobs:
//   1. Dump the feature-complete corpus as .tif files (seeds for external
//      fuzzers, or for eyeballing in an image viewer).
//   2. Run the structure-aware mutation fuzzer for an arbitrary budget
//      and print the rejection taxonomy — handy for soak runs far beyond
//      the 7008 mutants the regression test replays, e.g. under ASAN:
//
//   build/tools/tiff_corpus --out out/tiff_corpus --mutants 1000 --seed 7
//
// Exits non-zero if any mutant violates the decode-or-TiffError contract.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "tests/tiff_fuzz_harness.hpp"

namespace {

struct Args {
  std::string out_dir;            // empty = don't dump
  std::uint64_t seed = 0xC0FFEE;  // matches the regression test default
  std::size_t mutants = 48;       // per corpus entry
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--out") {
      const char* v = value();
      if (!v) return false;
      args.out_dir = v;
    } else if (flag == "--seed") {
      const char* v = value();
      if (!v) return false;
      args.seed = std::strtoull(v, nullptr, 0);
    } else if (flag == "--mutants") {
      const char* v = value();
      if (!v) return false;
      args.mutants = std::strtoull(v, nullptr, 0);
    } else {
      std::fprintf(stderr,
                   "usage: tiff_corpus [--out DIR] [--seed N] [--mutants N]\n");
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;

  namespace fuzz = zenesis::io::fuzz;
  const auto corpus = fuzz::build_corpus();
  std::printf("corpus: %zu entries\n", corpus.size());

  if (!args.out_dir.empty()) {
    std::filesystem::create_directories(args.out_dir);
    for (const auto& entry : corpus) {
      const auto path =
          std::filesystem::path(args.out_dir) / (entry.name + ".tif");
      std::ofstream out(path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(entry.bytes.data()),
                static_cast<std::streamsize>(entry.bytes.size()));
      if (!out) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 2;
      }
    }
    std::printf("wrote corpus to %s\n", args.out_dir.c_str());
  }

  // Same tight limits as tests/test_tiff_fuzz.cpp, so a soak run probes
  // the identical allocation bounds.
  zenesis::io::TiffReadLimits limits;
  limits.max_pages = 64;
  limits.max_pixels_per_page = 1ull << 22;
  limits.max_decoded_bytes = 16ull << 20;
  limits.max_ifd_entries = 64;

  const fuzz::FuzzStats stats = fuzz::run_fuzz(args.seed, args.mutants, limits);
  std::printf("mutants:  %llu\n", static_cast<unsigned long long>(stats.mutants));
  std::printf("decoded:  %llu\n", static_cast<unsigned long long>(stats.decoded));
  std::printf("rejected: %llu\n", static_cast<unsigned long long>(stats.rejected));
  static const char* kKinds[6] = {"BadHeader",         "Truncated",
                                  "CorruptIfd",        "OffsetOutOfBounds",
                                  "LimitExceeded",     "Unsupported"};
  for (int k = 0; k < 6; ++k) {
    std::printf("  %-18s %llu\n", kKinds[k],
                static_cast<unsigned long long>(stats.kind_counts[k]));
  }
  for (const std::string& failure : stats.failures) {
    std::fprintf(stderr, "CONTRACT VIOLATION: %s\n", failure.c_str());
  }
  if (!stats.failures.empty()) return 1;
  std::printf("contract upheld: every mutant decoded or threw TiffError\n");
  return 0;
}
