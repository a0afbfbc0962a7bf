// Serving-layer demo: a burst of Mode-A requests (with repeats, a
// deadline, a cancellation and a low-priority volume job) submitted to
// the asynchronous SegmentService, then the Mode-C dashboard with the
// serve_* runtime-stats block published next to the session's own
// counters.
//
//   ./serve_demo [prompt]
#include <chrono>
#include <cstdio>
#include <future>
#include <vector>

#include "zenesis/core/session.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/serve/service.hpp"

int main(int argc, char** argv) {
  using namespace zenesis;
  const std::string prompt =
      argc > 1 ? argv[1] : fibsem::default_prompt(fibsem::SampleType::kCrystalline);

  // Synthetic "instrument feed": 3 distinct micrographs requested 12 times.
  std::vector<image::AnyImage> slices;
  for (std::uint64_t seed : {41u, 42u, 43u}) {
    fibsem::SynthConfig cfg;
    cfg.type = fibsem::SampleType::kCrystalline;
    cfg.width = 128;
    cfg.height = 128;
    cfg.seed = seed;
    slices.emplace_back(fibsem::generate_slice(cfg, 0).raw);
  }

  serve::ServiceConfig cfg;
  cfg.queue_capacity = 32;
  cfg.max_batch = 6;
  serve::SegmentService service(cfg);

  core::Session session;

  std::vector<std::future<serve::Response>> futures;
  for (int i = 0; i < 12; ++i) {
    futures.push_back(service.submit(
        serve::Request::slice(slices[static_cast<std::size_t>(i % 3)], prompt)));
  }
  // One urgent request with a hard latency budget...
  futures.push_back(service.submit(
      serve::Request::slice(slices[0], prompt)
          .with_priority(10)
          .with_deadline_in(std::chrono::seconds(30))));
  // ...one the client gives up on immediately...
  auto token = std::make_shared<serve::CancelToken>();
  futures.push_back(service.submit(
      serve::Request::slice(slices[1], prompt).with_cancel(token)));
  token->cancel();
  // ...and a background volume job that yields to the interactive traffic.
  fibsem::SynthConfig vcfg;
  vcfg.type = fibsem::SampleType::kCrystalline;
  vcfg.width = 96;
  vcfg.height = 96;
  vcfg.depth = 4;
  vcfg.seed = 7;
  futures.push_back(service.submit(
      serve::Request::volume_batch(fibsem::generate_volume(vcfg).volume, prompt)
          .with_priority(-5)));

  int ok = 0, rejected = 0;
  for (auto& f : futures) {
    const serve::Response r = f.get();
    if (r.ok()) {
      ++ok;
    } else {
      ++rejected;
    }
  }
  std::printf("responses: %d ok, %d rejected/cancelled\n", ok, rejected);

  const serve::ServiceStats stats = service.stats();
  std::printf("batches: %llu (mean size %.2f), queue high-water %llu\n",
              static_cast<unsigned long long>(stats.batches),
              stats.batch_size.mean(),
              static_cast<unsigned long long>(stats.queue_depth_high_water));
  std::printf("latency p50/p95/p99 (ms): %.2f / %.2f / %.2f\n",
              stats.total_us.percentile(50.0) / 1000.0,
              stats.total_us.percentile(95.0) / 1000.0,
              stats.total_us.percentile(99.0) / 1000.0);

  // Mode C: one evaluation publishes the session's cache counters; the
  // service's serve_* block is published into the same dashboard.
  const auto probe = fibsem::generate_slice(vcfg, 0);
  const auto seg = session.mode_a_segment(image::AnyImage(probe.raw), prompt);
  session.mode_c_evaluate("synthetic", "zenesis", 0, seg.mask,
                          probe.ground_truth);
  service.publish_stats(session.dashboard());
  std::printf("\n%s\n", session.dashboard().render().c_str());

  // With ZENESIS_TRACE=1 the whole burst was traced: dump the Chrome
  // trace so each request can be followed across submitter, dispatcher
  // and fan-out threads by its trace_id (echoed in Response::trace_id).
  if (obs::enabled()) {
    const char* trace_path = "serve_demo.trace.json";
    obs::TraceCollector::global().write_chrome_trace(trace_path);
    std::printf("tracing on: chrome trace written to %s "
                "(open in chrome://tracing)\n",
                trace_path);
  }
  // No teardown ceremony: the dashboard holds published values, not
  // references to the service, so any destruction order is safe.
  return 0;
}
