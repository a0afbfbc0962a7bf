// Performance microbenchmarks (the venue's HPC angle): per-backend fp32
// and int8 GEMM, attention, feature extraction, model inference,
// end-to-end slice latency, thread-scaling of the parallel substrate,
// Mode-B volume throughput (serial vs. parallel vs. feature-cached),
// serving-layer throughput (blocking submit vs. micro-batched
// SegmentService), span overhead, cache-lock contention and TIFF decode.
// Every measurement is a Google Benchmark family and the binary writes no
// files of its own: machine-readable results come from the library's
// flags (--benchmark_format=json, --benchmark_out=<file>). End-to-end
// latency/throughput records come from zbench/ (python3 zbench/run.py).
#include <benchmark/benchmark.h>

#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "zenesis/cache/sharded_lru.hpp"
#include "zenesis/core/pipeline.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/io/tiff.hpp"
#include "zenesis/io/tiff_stream.hpp"
#include "zenesis/models/auto_mask.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/parallel/parallel_for.hpp"
#include "zenesis/serve/service.hpp"
#include "zenesis/tensor/init.hpp"
#include "zenesis/tensor/kernels.hpp"
#include "zenesis/tensor/ops.hpp"

namespace {

using namespace zenesis;

image::ImageF32 bench_slice(std::int64_t size) {
  fibsem::SynthConfig cfg;
  cfg.type = fibsem::SampleType::kCrystalline;
  cfg.width = size;
  cfg.height = size;
  cfg.seed = 123;
  const auto s = fibsem::generate_slice(cfg, 0);
  return image::make_ai_ready(image::AnyImage(s.raw));
}

void BM_MatmulNt(benchmark::State& state) {
  const auto n = state.range(0);
  const tensor::Tensor a = tensor::xavier_uniform(n, n, 1, 1);
  const tensor::Tensor b = tensor::xavier_uniform(n, n, 1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul_nt(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatmulNt)->Arg(64)->Arg(128)->Arg(256);

/// RAII guard: forces a kernel backend for one benchmark, restores the
/// previous selection on scope exit.
class ScopedBackend {
 public:
  explicit ScopedBackend(const std::string& name)
      : prev_(tensor::backend_name()) {
    tensor::set_backend(name);
  }
  ~ScopedBackend() { tensor::set_backend(prev_); }

 private:
  std::string prev_;
};

/// GEMM throughput per kernel backend. Registered dynamically (one
/// instance per available backend) in main; items processed = FLOPs so
/// the reported rate reads directly as FLOP/s.
void BM_Gemm(benchmark::State& state, const std::string& backend,
             const std::string& op) {
  const ScopedBackend scoped(backend);
  const auto n = state.range(0);
  const tensor::Tensor a = tensor::xavier_uniform(n, n, 1, 1);
  const tensor::Tensor b = tensor::xavier_uniform(n, n, 1, 2);
  const tensor::Tensor bias = tensor::zeros(n);
  for (auto _ : state) {
    if (op == "matmul") {
      benchmark::DoNotOptimize(tensor::matmul(a, b));
    } else if (op == "matmul_nt") {
      benchmark::DoNotOptimize(tensor::matmul_nt(a, b));
    } else {
      benchmark::DoNotOptimize(tensor::linear(a, b, bias));
    }
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}

/// Dynamic-int8 GEMM throughput per kernel backend: the full
/// linear_quantized path (per-row activation quantize + int8 GEMM +
/// fp32 requantize) against a pre-quantized weight panel. Items
/// processed = int8 MACs*2, so the rate reads as OP/s next to
/// BM_Gemm's FLOP/s.
void BM_GemmInt8(benchmark::State& state, const std::string& backend) {
  const ScopedBackend scoped(backend);
  const auto n = state.range(0);
  const tensor::Tensor a = tensor::xavier_uniform(n, n, 1, 1);
  const tensor::Tensor b = tensor::xavier_uniform(n, n, 1, 2);
  const tensor::quant::QuantizedTensor qb = tensor::quant::quantize_rows(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::matmul_nt_quantized(a, qb));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}

/// Attention per kernel backend (scores GEMM + softmax + value GEMM)
/// over 64-dim tokens split into `heads` heads. One head is the
/// single-head operator; four heads at 1024 and 4096 tokens are the
/// encoder's shape on 256² and 512² slices (one token per 8-px patch).
void BM_AttentionBackend(benchmark::State& state, const std::string& backend,
                         int heads) {
  const ScopedBackend scoped(backend);
  const auto l = state.range(0);
  const tensor::Tensor q = tensor::xavier_uniform(l, 64, 2, 1);
  const tensor::Tensor k = tensor::xavier_uniform(l, 64, 2, 2);
  const tensor::Tensor v = tensor::xavier_uniform(l, 64, 2, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::multihead_attention(q, k, v, heads));
  }
}

/// One BM_Gemm + attention family per available backend; the backend
/// is part of the benchmark name so --benchmark_filter=avx2 works.
void register_kernel_benchmarks() {
  for (const auto& backend : tensor::available_backends()) {
    for (const char* op : {"matmul", "matmul_nt", "linear"}) {
      benchmark::RegisterBenchmark(
          ("BM_Gemm/" + backend + "/" + op).c_str(),
          [backend, op = std::string(op)](benchmark::State& s) {
            BM_Gemm(s, backend, op);
          })
          ->Arg(256)
          ->Arg(512)
          ->Arg(1024);
    }
    benchmark::RegisterBenchmark(
        ("BM_GemmInt8/" + backend).c_str(),
        [backend](benchmark::State& s) { BM_GemmInt8(s, backend); })
        ->Arg(256)
        ->Arg(512)
        ->Arg(1024);
    benchmark::RegisterBenchmark(
        ("BM_Attention/" + backend).c_str(),
        [backend](benchmark::State& s) { BM_AttentionBackend(s, backend, 1); })
        ->Arg(256)
        ->Arg(1024);
    benchmark::RegisterBenchmark(
        ("BM_MultiheadAttention/" + backend).c_str(),
        [backend](benchmark::State& s) { BM_AttentionBackend(s, backend, 4); })
        ->Arg(1024)
        ->Arg(4096)
        ->Unit(benchmark::kMillisecond);
  }
}

void BM_Softmax(benchmark::State& state) {
  tensor::Tensor a = tensor::xavier_uniform(1024, 1024, 3, 1);
  for (auto _ : state) {
    tensor::Tensor copy = a;
    tensor::softmax_rows(copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_Softmax);

void BM_FeatureExtraction(benchmark::State& state) {
  const image::ImageF32 img = bench_slice(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(models::compute_features(img));
  }
}
BENCHMARK(BM_FeatureExtraction)->Arg(256)->Arg(512);

void BM_GroundingDetect(benchmark::State& state) {
  const image::ImageF32 img = bench_slice(256);
  const models::GroundingDetector dino;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dino.detect(img, "bright needle-like crystalline catalyst"));
  }
}
BENCHMARK(BM_GroundingDetect);

void BM_SamEncode(benchmark::State& state) {
  const image::ImageF32 img = bench_slice(256);
  const models::SamModel sam;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sam.encode(img));
  }
}
BENCHMARK(BM_SamEncode);

void BM_SamPredictBox(benchmark::State& state) {
  const image::ImageF32 img = bench_slice(256);
  const models::SamModel sam;
  const models::SamEncoded enc = sam.encode(img);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sam.predict_box(enc, {32, 32, 192, 128}));
  }
}
BENCHMARK(BM_SamPredictBox);

void BM_SamOnlyAutoMask(benchmark::State& state) {
  const image::ImageF32 img = bench_slice(256);
  const models::SamModel sam;
  const models::AutomaticMaskGenerator gen(sam);
  const models::SamEncoded enc = sam.encode(img);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(enc));
  }
}
BENCHMARK(BM_SamOnlyAutoMask);

void BM_EndToEndSlice(benchmark::State& state) {
  fibsem::SynthConfig cfg;
  cfg.type = fibsem::SampleType::kCrystalline;
  cfg.width = state.range(0);
  cfg.height = state.range(0);
  cfg.seed = 123;
  const auto s = fibsem::generate_slice(cfg, 0);
  const core::ZenesisPipeline pipe;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipe.segment(
        image::AnyImage(s.raw), "bright needle-like crystalline catalyst"));
  }
}
BENCHMARK(BM_EndToEndSlice)->Arg(128)->Arg(256);

void BM_SliceGeneration(benchmark::State& state) {
  fibsem::SynthConfig cfg;
  cfg.type = fibsem::SampleType::kAmorphous;
  cfg.width = 256;
  cfg.height = 256;
  cfg.seed = 9;
  std::int64_t z = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fibsem::generate_slice(cfg, z++ % 10));
  }
}
BENCHMARK(BM_SliceGeneration);

fibsem::SyntheticVolume bench_volume() {
  fibsem::SynthConfig cfg;
  cfg.type = fibsem::SampleType::kCrystalline;
  cfg.width = 128;
  cfg.height = 128;
  cfg.depth = 8;
  cfg.seed = 2025;
  return fibsem::generate_volume(cfg);
}

core::PipelineConfig volume_config(std::size_t threads, bool cache) {
  core::PipelineConfig cfg;
  cfg.volume_threads = threads;
  cfg.feature_cache.enabled = cache;
  // Keep the mask cache out of the throughput baselines: with it on,
  // every rep after the first would be a near-free memoized replay and
  // the serial/parallel/feature-cached comparison would lose meaning.
  cfg.mask_cache.enabled = false;
  return cfg;
}

/// Mode-B volume throughput. Arg 0: worker threads (1 = serial path);
/// arg 1: feature cache on/off. Items processed = slices.
void BM_VolumeSegment(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const bool cache = state.range(1) != 0;
  const fibsem::SyntheticVolume vol = bench_volume();
  const core::ZenesisPipeline pipe(volume_config(threads, cache));
  const core::VolumeRequest request = core::VolumeRequest::view(
      vol.volume, "bright needle-like crystalline catalyst");
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipe.segment_volume(request));
  }
  state.SetItemsProcessed(state.iterations() * vol.depth());
  state.counters["cache_hit_rate"] = pipe.cache_stats().hit_rate();
}
BENCHMARK(BM_VolumeSegment)
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({0, 0})   // global pool (one worker per hardware thread)
    ->Args({1, 1})
    ->Args({4, 1})
    ->Unit(benchmark::kMillisecond);

// --- Cache-contention microbenchmark ---------------------------------

using ContentionCache = cache::ShardedLruCache<std::uint64_t>;
constexpr std::uint64_t kContentionKeySpace = 512;
constexpr int kContentionOpsPerThread = 4000;

cache::Key128 contention_key(std::uint64_t n) {
  return cache::Key128{n, n * 0x9e3779b97f4a7c15ull + 1};
}

std::unique_ptr<ContentionCache> make_contention_cache(std::size_t shards) {
  cache::ShardedCacheConfig cfg;
  cfg.shards = shards;
  cfg.capacity = 2 * kContentionKeySpace;  // gets mostly hit
  cfg.byte_budget = std::size_t{1} << 20;
  auto cache = std::make_unique<ContentionCache>(cfg);
  for (std::uint64_t n = 0; n < kContentionKeySpace; ++n) {
    (void)cache->put(contention_key(n), std::make_shared<const std::uint64_t>(n),
                     64);
  }
  return cache;
}

/// One mixed pass: every thread does kContentionOpsPerThread ops, 7/8
/// gets and 1/8 puts. Every op mutates shard state (gets touch LRU
/// recency), so a single-shard cache serializes completely — this is the
/// single-global-mutex baseline the sharded design is measured against.
void contention_pass(ContentionCache& cache, std::size_t threads) {
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&cache, t] {
      std::mt19937_64 rng(0xbe9c4 + t);
      for (int i = 0; i < kContentionOpsPerThread; ++i) {
        const std::uint64_t n = rng() % kContentionKeySpace;
        if (rng() % 8 == 0) {
          (void)cache.put(contention_key(n),
                          std::make_shared<const std::uint64_t>(n), 64);
        } else {
          benchmark::DoNotOptimize(cache.get(contention_key(n)));
        }
      }
    });
  }
  for (auto& w : workers) w.join();
}

/// Lock-contention scaling. Arg 0: shard count (1 = the single-mutex
/// baseline); arg 1: threads. Items processed = cache operations.
void BM_CacheContention(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const auto cache = make_contention_cache(shards);
  for (auto _ : state) {
    contention_pass(*cache, threads);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(threads) *
                          kContentionOpsPerThread);
}
BENCHMARK(BM_CacheContention)
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({1, 16})
    ->Args({1, 64})
    ->Args({64, 1})
    ->Args({64, 4})
    ->Args({64, 16})
    ->Args({64, 64})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ParallelForScaling(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  parallel::ThreadPool pool(threads);
  std::vector<double> data(1 << 20, 1.0);
  for (auto _ : state) {
    parallel::parallel_for(0, static_cast<std::int64_t>(data.size()),
                           [&](std::int64_t i) {
                             data[static_cast<std::size_t>(i)] =
                                 data[static_cast<std::size_t>(i)] * 1.0000001 + 0.5;
                           },
                           pool);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ParallelForScaling)->Arg(1)->Arg(2)->Arg(4);

/// Repeated-slice request traffic (cache-hot serving): `kDistinct` unique
/// slices cycled `kRequests` times — the request-per-micrograph pattern
/// the serving layer amortizes via the FeatureCache.
constexpr int kServeRequests = 24;
constexpr int kServeDistinct = 4;

std::vector<image::AnyImage> serve_traffic() {
  std::vector<image::AnyImage> distinct;
  for (int i = 0; i < kServeDistinct; ++i) {
    fibsem::SynthConfig cfg;
    cfg.type = fibsem::SampleType::kCrystalline;
    cfg.width = 128;
    cfg.height = 128;
    cfg.seed = 5000 + static_cast<std::uint64_t>(i);
    distinct.emplace_back(fibsem::generate_slice(cfg, 0).raw);
  }
  std::vector<image::AnyImage> traffic;
  traffic.reserve(kServeRequests);
  for (int i = 0; i < kServeRequests; ++i) {
    traffic.push_back(distinct[static_cast<std::size_t>(i % kServeDistinct)]);
  }
  return traffic;
}

constexpr const char* kServePrompt = "bright needle-like crystalline catalyst";

/// Serving throughput on repeated-slice traffic. Arg 0: mode — 0 = serial
/// blocking pipeline calls (the pre-serve baseline), 1 = micro-batched
/// SegmentService. Items processed = requests.
void BM_ServeThroughput(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  const std::vector<image::AnyImage> traffic = serve_traffic();
  if (batched) {
    serve::ServiceConfig cfg;
    cfg.queue_capacity = kServeRequests * 2;
    cfg.max_batch = 8;
    serve::SegmentService service(cfg);
    for (auto _ : state) {
      std::vector<std::future<serve::Response>> futures;
      futures.reserve(traffic.size());
      for (const auto& img : traffic) {
        futures.push_back(
            service.submit(serve::Request::slice(img, kServePrompt)));
      }
      for (auto& f : futures) benchmark::DoNotOptimize(f.get());
    }
    state.counters["cache_hit_rate"] = service.pipeline().cache_stats().hit_rate();
    state.counters["mean_batch"] = service.stats().batch_size.mean();
  } else {
    const core::ZenesisPipeline pipe(volume_config(1, false));
    for (auto _ : state) {
      for (const auto& img : traffic) {
        benchmark::DoNotOptimize(pipe.segment(img, kServePrompt));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kServeRequests);
}
BENCHMARK(BM_ServeThroughput)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// Hot-path cost of one obs::Span. Arg 0: tracing off (the shipping
/// default — must be a relaxed load + branch) vs on (one seqlock ring
/// write). Items processed = spans.
void BM_TraceOverhead(benchmark::State& state) {
  const bool on = state.range(0) != 0;
  const bool was = obs::enabled();
  obs::set_enabled(on);
  obs::TraceCollector::global().clear();
  for (auto _ : state) {
    obs::Span span("bench.trace_overhead");
    benchmark::DoNotOptimize(&span);
  }
  obs::set_enabled(was);
  obs::TraceCollector::global().clear();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceOverhead)->Arg(0)->Arg(1);

/// A 4-page 256x256 u16 stack of synthetic FIB-SEM slices — realistic
/// texture so PackBits sees real run-length structure, not ramps.
io::TiffStack tiff_bench_stack() {
  fibsem::SynthConfig cfg;
  cfg.type = fibsem::SampleType::kCrystalline;
  cfg.width = 256;
  cfg.height = 256;
  cfg.seed = 31337;
  io::TiffStack stack;
  for (std::int64_t z = 0; z < 4; ++z) {
    stack.pages.emplace_back(fibsem::generate_slice(cfg, z).raw);
  }
  return stack;
}

io::TiffWriteOptions tiff_variant_options(int variant) {
  io::TiffWriteOptions opt;
  switch (variant) {
    case 1:
      opt.compression = io::TiffCompression::kPackBits;
      break;
    case 2:
      opt.layout = io::TiffLayout::kTiles;
      break;
    case 3:
      opt.format = io::TiffFormat::kBigTiff;
      opt.layout = io::TiffLayout::kTiles;
      opt.compression = io::TiffCompression::kPackBits;
      break;
    case 4:
      opt.layout = io::TiffLayout::kTiles;
      opt.compression = io::TiffCompression::kLzw;
      opt.predictor = 2;
      break;
    case 5:
      opt.layout = io::TiffLayout::kTiles;
      opt.compression = io::TiffCompression::kDeflate;
      opt.predictor = 2;
      break;
    default:
      break;  // classic LE, single strip, uncompressed
  }
  return opt;
}

const char* tiff_variant_name(int variant) {
  switch (variant) {
    case 1: return "classic_packbits";
    case 2: return "classic_tiles";
    case 3: return "bigtiff_tiles_packbits";
    case 4: return "classic_tiles_lzw_pred";
    case 5: return "classic_tiles_deflate_pred";
    default: return "classic_strips";
  }
}

/// Materializing-decoder throughput over the format variants. Items
/// processed = decoded pages; bytes processed = decoded pixel bytes.
void BM_TiffDecode(benchmark::State& state) {
  const int variant = static_cast<int>(state.range(0));
  const io::TiffStack stack = tiff_bench_stack();
  const auto bytes = io::write_tiff_bytes(stack, tiff_variant_options(variant));
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::read_tiff_bytes(bytes));
  }
  state.SetLabel(tiff_variant_name(variant));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stack.pages.size()));
  state.SetBytesProcessed(state.iterations() * 4 * 256 * 256 * 2);
}
BENCHMARK(BM_TiffDecode)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

/// Streaming-reader throughput: parse once, decode pages on demand —
/// the per-slice cost the Mode-B streaming path pays.
void BM_TiffStream(benchmark::State& state) {
  const int variant = static_cast<int>(state.range(0));
  const auto bytes =
      io::write_tiff_bytes(tiff_bench_stack(), tiff_variant_options(variant));
  const auto reader = io::TiffVolumeReader::open(bytes);
  std::int64_t page = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reader.read_page(page));
    page = (page + 1) % reader.pages();
  }
  state.SetLabel(tiff_variant_name(variant));
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 256 * 256 * 2);
}
BENCHMARK(BM_TiffStream)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  register_kernel_benchmarks();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
