#include "zenesis/serve/service.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "zenesis/cache/feature_cache.hpp"
#include "zenesis/io/tiff_stream.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/parallel/parallel_for.hpp"
#include "zenesis/tensor/kernels.hpp"
#include "zenesis/tensor/quant.hpp"

namespace zenesis::serve {

namespace {

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

core::ErrorCode error_code_for(RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull: return core::ErrorCode::kQueueFull;
    case RejectReason::kDeadlineExpired:
      return core::ErrorCode::kDeadlineExpired;
    case RejectReason::kShuttingDown: return core::ErrorCode::kShuttingDown;
    case RejectReason::kCancelled: return core::ErrorCode::kCancelled;
    case RejectReason::kNone: break;
  }
  return core::ErrorCode::kNone;
}

Response rejected_response(RejectReason reason, RequestKind kind) {
  Response r;
  r.status = Response::Status::kRejected;
  r.reject = reason;
  r.kind = kind;
  r.error.code = error_code_for(reason);
  r.error.stage = "serve.admission";
  r.error.message = core::to_string(r.error.code);
  return r;
}

ServiceConfig checked(const ServiceConfig& cfg) {
  const std::vector<std::string> issues = cfg.validate();
  if (!issues.empty()) {
    std::ostringstream msg;
    msg << "invalid ServiceConfig:";
    for (const auto& issue : issues) msg << "\n  - " << issue;
    throw std::invalid_argument(msg.str());
  }
  return cfg;
}

}  // namespace

Request Request::slice(image::AnyImage img, std::string text) {
  Request r;
  r.kind = RequestKind::kSlice;
  r.image = std::move(img);
  r.prompt = std::move(text);
  return r;
}

Request Request::boxed(image::AnyImage img, image::Box prompt_box,
                       core::BoxPromptOptions opts) {
  Request r;
  r.kind = RequestKind::kBox;
  r.image = std::move(img);
  r.box = prompt_box;
  r.box_options = std::move(opts);
  return r;
}

Request Request::multi_object(image::AnyImage img,
                              std::vector<std::string> class_prompts) {
  Request r;
  r.kind = RequestKind::kMultiObject;
  r.image = std::move(img);
  r.prompts = std::move(class_prompts);
  return r;
}

Request Request::volume_batch(image::VolumeU16 vol, std::string text) {
  Request r;
  r.kind = RequestKind::kVolume;
  r.volume = std::move(vol);
  r.prompt = std::move(text);
  return r;
}

Request Request::volume_file(std::string tiff_path, std::string text,
                             io::TiffOpenOptions open) {
  Request r;
  r.kind = RequestKind::kVolume;
  r.volume_path = std::move(tiff_path);
  r.prompt = std::move(text);
  r.tiff_open = open;
  return r;
}

std::vector<std::string> ServiceConfig::validate() const {
  std::vector<std::string> issues = pipeline.validate();
  if (queue_capacity < 1) issues.push_back("queue_capacity must be >= 1");
  if (max_batch < 1) issues.push_back("max_batch must be >= 1");
  return issues;
}

SegmentService::SegmentService(const ServiceConfig& cfg)
    : cfg_(checked(cfg)),
      pipeline_(cfg.pipeline),
      pool_(cfg.fanout_threads > 1
                ? std::make_unique<parallel::ThreadPool>(cfg.fanout_threads)
                : nullptr) {
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

SegmentService::~SegmentService() {
  shutdown();
}

parallel::ThreadPool& SegmentService::fanout_pool() const {
  return pool_ ? *pool_ : parallel::ThreadPool::global();
}

void SegmentService::fan_out(std::size_t n,
                             const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (cfg_.fanout_threads == 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // Grain 1: request cost is irregular; idle workers pull dynamically.
  // body must not throw (every pipeline call below is wrapped).
  parallel::parallel_for_chunked(
      0, static_cast<std::int64_t>(n), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          body(static_cast<std::size_t>(i));
        }
      },
      fanout_pool());
}

std::future<Response> SegmentService::submit(Request req) {
  // One trace id per request, allocated on the submitting thread: every
  // span this request produces — here, in the dispatcher, on fan-out
  // workers — carries it, and the Response echoes it back to the caller.
  // A submitter that already carries a trace context (the zen_net server
  // wrapping a wire request) keeps its id, so wire-level spans and the
  // service's spans stitch into one trace.
  std::uint64_t trace_id = obs::current_trace_id();
  if (trace_id == 0) trace_id = obs::new_trace_id();
  obs::TraceScope trace(trace_id);
  obs::Span submit_span("serve.submit");
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  const Clock::time_point now = Clock::now();
  bool notify = false;
  std::vector<std::pair<Pending, RejectReason>> purged;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (!stopping_ && queue_.size() >= cfg_.queue_capacity) {
      // Admission-time purge: cancelled or already-expired entries give
      // up their slot before we reject with QueueFull, so cancellation
      // relieves backpressure even when the dispatcher is busy or paused.
      purged = sweep_dead_locked(now);
    }
    const auto reject_now = [&](RejectReason reason) {
      Response r = rejected_response(reason, req.kind);
      r.trace_id = trace_id;
      promise.set_value(std::move(r));
    };
    std::lock_guard<std::mutex> sl(stats_mutex_);
    stats_.submitted += 1;
    if (stopping_) {
      stats_.rejected_shutting_down += 1;
      reject_now(RejectReason::kShuttingDown);
    } else if (req.deadline && *req.deadline <= now) {
      stats_.expired += 1;
      reject_now(RejectReason::kDeadlineExpired);
    } else if (queue_.size() >= cfg_.queue_capacity) {
      stats_.rejected_queue_full += 1;
      reject_now(RejectReason::kQueueFull);
    } else {
      stats_.admitted += 1;
      queue_.push_back(Pending{std::move(req), std::move(promise), next_seq_++,
                               now, false, trace_id,
                               obs::enabled() ? obs::now_ns() : 0});
      stats_.queue_depth_high_water =
          std::max<std::uint64_t>(stats_.queue_depth_high_water, queue_.size());
      notify = true;
    }
  }
  for (auto& [pending, reason] : purged) finish_rejected(pending, reason);
  if (notify) cv_.notify_all();
  return future;
}

void SegmentService::pause() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    paused_ = true;
  }
  cv_.notify_all();
}

void SegmentService::resume() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

void SegmentService::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  std::lock_guard<std::mutex> lg(lifecycle_mutex_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

void SegmentService::dispatcher_loop() {
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    // Sweep first — and on every iteration, even while paused: cancelled
    // entries free their queue slot immediately and expired deadlines
    // complete with DeadlineExpired without waiting for resume(); neither
    // ever reaches the pipeline.
    const Clock::time_point now = Clock::now();
    std::vector<std::pair<Pending, RejectReason>> swept =
        sweep_dead_locked(now);
    if (!swept.empty()) {
      lk.unlock();
      for (auto& [pending, reason] : swept) finish_rejected(pending, reason);
      lk.lock();
      continue;  // re-evaluate state after re-locking
    }
    if (queue_.empty()) {
      if (stopping_) break;
      cv_.wait(lk);
      continue;
    }
    if (paused_ && !stopping_) {  // shutdown drains even a paused service
      // Queue is non-empty: wake at the earliest queued deadline, or
      // shortly regardless — cancellation has no wake-up signal, so a
      // bounded wait keeps the sweep responsive while paused.
      Clock::time_point wake = now + std::chrono::milliseconds(50);
      for (const auto& p : queue_) {
        if (p.req.deadline && *p.req.deadline < wake) wake = *p.req.deadline;
      }
      cv_.wait_until(lk, wake);
      continue;
    }
    std::vector<Pending> batch = pop_batch_locked();
    lk.unlock();
    if (!batch.empty()) run_batch(std::move(batch));
    lk.lock();
  }
}

std::vector<std::pair<SegmentService::Pending, RejectReason>>
SegmentService::sweep_dead_locked(Clock::time_point now) {
  std::vector<std::pair<Pending, RejectReason>> dead;
  for (auto it = queue_.begin(); it != queue_.end();) {
    const bool cancelled = it->req.cancel && it->req.cancel->cancelled();
    const bool expired = it->req.deadline && *it->req.deadline <= now;
    if (cancelled || expired) {
      dead.emplace_back(std::move(*it), cancelled
                                            ? RejectReason::kCancelled
                                            : RejectReason::kDeadlineExpired);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return dead;
}

std::vector<SegmentService::Pending> SegmentService::pop_batch_locked() {
  std::vector<Pending> batch;
  if (queue_.empty()) return batch;
  // Pivot: highest priority; FIFO (lowest seq) within a level. queue_ is
  // append-ordered, so index order == admission order.
  std::size_t pivot = 0;
  for (std::size_t i = 1; i < queue_.size(); ++i) {
    if (queue_[i].req.priority > queue_[pivot].req.priority) pivot = i;
  }
  std::vector<std::size_t> take{pivot};
  if (queue_[pivot].req.kind == RequestKind::kSlice) {
    for (std::size_t i = 0;
         i < queue_.size() && take.size() < cfg_.max_batch; ++i) {
      if (i == pivot) continue;
      if (queue_[i].req.kind == RequestKind::kSlice &&
          queue_[i].req.prompt == queue_[pivot].req.prompt) {
        take.push_back(i);
      }
    }
    std::sort(take.begin(), take.end());  // admission order inside the batch
  }
  batch.reserve(take.size());
  for (const std::size_t idx : take) batch.push_back(std::move(queue_[idx]));
  for (auto it = take.rbegin(); it != take.rend(); ++it) {
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(*it));
  }
  return batch;
}

void SegmentService::run_batch(std::vector<Pending> batch) {
  const Clock::time_point dispatched = Clock::now();
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (auto& p : batch) {
    if (p.req.cancel && p.req.cancel->cancelled()) {
      finish_rejected(p, RejectReason::kCancelled);
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;  // all cancelled: no batch was dispatched
  if (obs::enabled()) {
    // Each request's queue wait, stitched to its trace id: begun on the
    // submit thread (obs_enqueued_ns), closed here at dispatch.
    const std::int64_t now_ns = obs::now_ns();
    for (const auto& p : live) {
      obs::record_span("serve.queue", p.trace_id, p.obs_enqueued_ns, now_ns);
    }
  }
  obs::Span batch_span("serve.batch", live.size());
  {
    // Batch stats cover only the live subset — cancelled requests never
    // ran, so counting them would skew the serve_* histograms.
    std::lock_guard<std::mutex> sl(stats_mutex_);
    stats_.batches += 1;
    stats_.batch_size.record(static_cast<double>(live.size()));
    for (const auto& p : live) {
      stats_.queue_us.record(us_between(p.enqueued, dispatched));
    }
  }
  // Backstop: the stages below wrap every pipeline call per request, so
  // nothing should reach these handlers — but an exception escaping here
  // would leave promises broken and std::terminate the process, so fail
  // the remainder of the batch instead.
  try {
    if (live.front().req.kind == RequestKind::kSlice) {
      run_slice_batch(live);
    } else {
      run_single(live.front());  // non-slice kinds dispatch as singletons
    }
  } catch (...) {
    fail_unfinished(live,
                    core::error_from_current_exception("serve.dispatch"));
  }
}

void SegmentService::fail_unfinished(std::vector<Pending>& batch,
                                     const core::Error& error) {
  for (auto& p : batch) {
    if (p.done) continue;
    Response r;
    r.kind = p.req.kind;
    r.status = Response::Status::kError;
    r.error = error;
    finish(p, std::move(r), 0.0);
  }
}

void SegmentService::run_slice_batch(std::vector<Pending>& batch) {
  const std::size_t n = batch.size();
  const std::string prompt = batch.front().req.prompt;

  // Stage 1 — shared backbone encode. Readiness runs per request, then
  // each *unique* image (by content hash) is encoded exactly once, warming
  // the FeatureCache so every stage-2 decode hits. Every pipeline call is
  // guarded per request: a malformed input (e.g. an empty image) fails
  // only its own request with kError instead of throwing through the
  // fan-out into the dispatcher thread.
  const Clock::time_point t_encode = Clock::now();
  std::vector<image::ImageF32> ready(n);
  std::vector<std::optional<core::Error>> prep_error(n);
  {
    obs::Span encode_span("serve.encode", n);
    fan_out(n, [&](std::size_t i) {
      obs::TraceScope trace(batch[i].trace_id);
      try {
        ready[i] = pipeline_.make_ready(batch[i].req.image);
      } catch (...) {
        prep_error[i] = core::error_from_current_exception("serve.readiness");
      }
    });
    std::unordered_map<std::uint64_t, std::size_t> seen;
    std::vector<std::size_t> unique_idx;
    for (std::size_t i = 0; i < n; ++i) {
      if (prep_error[i]) continue;
      if (seen.emplace(cache::hash_image(ready[i]), i).second) {
        unique_idx.push_back(i);
      }
    }
    fan_out(unique_idx.size(), [&](std::size_t j) {
      try {
        pipeline_.encode_cached(ready[unique_idx[j]]);
      } catch (...) {
        // Warm-up is best-effort: stage 2's segment_ready re-runs the
        // encode and reports the error on the owning request.
      }
    });
  }
  {
    std::lock_guard<std::mutex> sl(stats_mutex_);
    stats_.encode_us.record(us_between(t_encode, Clock::now()));
  }

  // Stage 2 — per-request decode, cache-hot.
  fan_out(n, [&](std::size_t i) {
    obs::TraceScope trace(batch[i].trace_id);
    obs::Span decode_span("serve.decode", i);
    const Clock::time_point t0 = Clock::now();
    Response r;
    r.kind = RequestKind::kSlice;
    if (prep_error[i]) {
      r.status = Response::Status::kError;
      r.error = *prep_error[i];
    } else {
      try {
        r.slice = pipeline_.segment_ready(ready[i], prompt);
      } catch (...) {
        r.status = Response::Status::kError;
        r.error = core::error_from_current_exception("serve.decode");
      }
    }
    finish(batch[i], std::move(r), us_between(t0, Clock::now()));
  });
}

void SegmentService::run_single(Pending& pending) {
  obs::TraceScope trace(pending.trace_id);
  obs::Span decode_span("serve.decode",
                        static_cast<std::uint64_t>(pending.req.kind));
  const Clock::time_point t0 = Clock::now();
  Response r;
  r.kind = pending.req.kind;
  double encode_us = 0.0;
  Clock::time_point t_decode = t0;
  try {
    switch (pending.req.kind) {
      case RequestKind::kBox: {
        const image::ImageF32 ready = pipeline_.make_ready(pending.req.image);
        pipeline_.encode_cached(ready);  // warm: decode below hits
        encode_us = us_between(t0, Clock::now());
        t_decode = Clock::now();
        r.slice = pipeline_.segment_with_box(ready, pending.req.box,
                                             pending.req.box_options);
        break;
      }
      case RequestKind::kMultiObject:
        r.multi = pipeline_.segment_multi(pending.req.image, pending.req.prompts);
        break;
      case RequestKind::kVolume:
        if (!pending.req.volume_path.empty()) {
          // Streamed ingestion: the pipeline parses once and decodes
          // slices on demand from its workers. TiffError (malformed
          // upload, limits) lands in the catch below as a kError response
          // with its kind mapped to an ErrorCode.
          r.volume = pipeline_.segment_volume(core::VolumeRequest::from_file(
              pending.req.volume_path, pending.req.prompt,
              pending.req.tiff_open));
        } else {
          // Borrow the queued stack — `pending` outlives the call, and
          // copying gigabytes into the request would defeat the point of
          // admission holding it only once.
          r.volume = pipeline_.segment_volume(core::VolumeRequest::view(
              pending.req.volume, pending.req.prompt));
        }
        break;
      case RequestKind::kSlice:
        r.slice = pipeline_.segment(pending.req.image, pending.req.prompt);
        break;
    }
  } catch (...) {
    r.status = Response::Status::kError;
    r.error = core::error_from_current_exception("serve.decode");
  }
  if (encode_us > 0.0) {
    std::lock_guard<std::mutex> sl(stats_mutex_);
    stats_.encode_us.record(encode_us);
  }
  finish(pending, std::move(r), us_between(t_decode, Clock::now()));
}

void SegmentService::finish(Pending& pending, Response&& response,
                            double decode_us) {
  const Clock::time_point done = Clock::now();
  response.trace_id = pending.trace_id;
  response.decode_us = decode_us;
  response.total_us = us_between(pending.enqueued, done);
  response.queue_us = response.total_us - decode_us;
  {
    std::lock_guard<std::mutex> sl(stats_mutex_);
    if (response.status == Response::Status::kOk) {
      stats_.completed += 1;
    } else {
      stats_.failed += 1;
    }
    stats_.decode_us.record(decode_us);
    stats_.total_us.record(response.total_us);
  }
  pending.done = true;
  pending.promise.set_value(std::move(response));
}

void SegmentService::finish_rejected(Pending& pending, RejectReason reason) {
  Response r = rejected_response(reason, pending.req.kind);
  // Rejected after admission: the error surfaced from the queue, not the
  // admission check.
  r.error.stage = "serve.queue";
  r.trace_id = pending.trace_id;
  r.total_us = us_between(pending.enqueued, Clock::now());
  r.queue_us = r.total_us;
  {
    std::lock_guard<std::mutex> sl(stats_mutex_);
    if (reason == RejectReason::kDeadlineExpired) {
      stats_.expired += 1;
    } else if (reason == RejectReason::kCancelled) {
      stats_.cancelled += 1;
    }
  }
  pending.done = true;
  pending.promise.set_value(std::move(r));
}

ServiceStats SegmentService::stats() const {
  std::lock_guard<std::mutex> sl(stats_mutex_);
  return stats_;
}

std::size_t SegmentService::queue_depth() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return queue_.size();
}

void SegmentService::publish_stats(eval::Dashboard& dashboard) const {
  const ServiceStats s = stats();
  const auto set_u64 = [&](const char* key, std::uint64_t v) {
    dashboard.set_stat(key, static_cast<double>(v));
  };
  set_u64("serve_submitted", s.submitted);
  set_u64("serve_admitted", s.admitted);
  set_u64("serve_completed", s.completed);
  set_u64("serve_failed", s.failed);
  set_u64("serve_rejected_queue_full", s.rejected_queue_full);
  set_u64("serve_rejected_shutting_down", s.rejected_shutting_down);
  set_u64("serve_expired", s.expired);
  set_u64("serve_cancelled", s.cancelled);
  set_u64("serve_batches", s.batches);
  set_u64("serve_queue_high_water", s.queue_depth_high_water);
  dashboard.set_stat("serve_batch_size_mean", s.batch_size.mean());
  dashboard.set_stat("serve_batch_size_max", s.batch_size.max());
  const auto set_hist = [&](const std::string& prefix, const Histogram& h) {
    dashboard.set_stat(prefix + "_p50", h.percentile(50.0));
    dashboard.set_stat(prefix + "_p95", h.percentile(95.0));
    dashboard.set_stat(prefix + "_p99", h.percentile(99.0));
  };
  set_hist("serve_queue_us", s.queue_us);
  set_hist("serve_encode_us", s.encode_us);
  set_hist("serve_decode_us", s.decode_us);
  set_hist("serve_total_us", s.total_us);
  // Cache effectiveness as seen from the serving layer: how much of the
  // batch work the two cache tiers absorbed.
  const cache::FeatureCacheStats fc = pipeline_.cache_stats();
  dashboard.set_stat("serve_feature_cache_hit_rate", fc.hit_rate());
  set_u64("serve_feature_cache_disk_hits", fc.disk_hits);
  const cache::LruCacheStats mc = pipeline_.mask_cache_stats();
  dashboard.set_stat("serve_mask_cache_hit_rate", mc.hit_rate());
  set_u64("serve_mask_cache_hits", mc.hits);
  // The dashboard is numeric-only, so the process-wide kernel backend and
  // precision are published as one-hot keys: serve_kernel_backend_<name>
  // = 1, serve_precision_<name> = 1.
  dashboard.set_stat(std::string("serve_kernel_backend_") +
                         tensor::backend_name(),
                     1.0);
  dashboard.set_stat(
      std::string("serve_precision_") + tensor::quant::precision_name(), 1.0);
}

}  // namespace zenesis::serve
