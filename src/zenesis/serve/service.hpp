#pragma once
// zen_serve — asynchronous segmentation service in front of
// ZenesisPipeline (the serving layer the ROADMAP's "heavy traffic" north
// star asks for).
//
// Request lifecycle:
//
//   submit(Request) ── admission ──▶ bounded priority queue ──▶ dispatcher
//        │  (QueueFull / ShuttingDown / already-expired → immediate
//        │   Rejected response, nothing queued)
//        └─▶ std::future<Response>
//
//   The single dispatcher thread pops the highest-priority request (FIFO
//   within a priority level), sweeps expired deadlines and cancelled
//   entries (their futures complete with DeadlineExpired / Cancelled
//   WITHOUT running the pipeline; the sweep also runs while paused, and a
//   full queue purges such entries at admission before rejecting with
//   QueueFull, so cancellation relieves backpressure), groups
//   compatible Mode-A slice requests — same prompt — into a micro-batch,
//   and fans the batch out on the re-entrant ThreadPool: stage 1 shares
//   the expensive backbone encode of each unique image through the
//   pipeline's FeatureCache, stage 2 runs the cheap per-request decodes.
//   This is SAM's embed-once/prompt-many amortization applied across
//   requests instead of within one.
//
// Invariants:
//   * Responses are byte-identical to the equivalent blocking
//     ZenesisPipeline call, for every batch size and fan-out width (the
//     FeatureCache returns exactly the value a cold computation would).
//   * Backpressure is explicit: a full queue rejects immediately with
//     Rejected{QueueFull}; the service never buffers unboundedly and
//     never blocks the submitting thread.
//   * shutdown() drains everything already admitted, then the dispatcher
//     exits; submissions during/after the drain get Rejected{ShuttingDown}.
//   * A batch runs to completion before the next pop, so one giant volume
//     request can head-of-line block later arrivals; use `priority` to let
//     urgent requests jump the queue between batches.
//
// Observability: ServiceStats carries admission/rejection counters, the
// queue-depth high-water mark, per-stage latency histograms (queue wait,
// batch encode, per-request decode, end-to-end) and a batch-size
// histogram; publish_stats(dashboard) copies the block, plus the active
// kernel backend and precision as one-hot keys, into a Mode-C dashboard
// at the moment it is called — a caller that renders a Session's
// dashboard calls `service.publish_stats(session.dashboard())` first.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "zenesis/core/error.hpp"
#include "zenesis/core/pipeline.hpp"
#include "zenesis/eval/dashboard.hpp"
#include "zenesis/parallel/thread_pool.hpp"
#include "zenesis/serve/histogram.hpp"

namespace zenesis::serve {

using Clock = std::chrono::steady_clock;

/// Cooperative cancellation. Share one token across requests to cancel a
/// whole job. Cancellation is observed before the pipeline runs — at
/// dispatch, during the dispatcher's queue sweep, and at admission when a
/// full queue purges cancelled/expired entries before rejecting with
/// QueueFull — so cancelling queued work frees its slot; an
/// already-running request completes normally.
class CancelToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

enum class RequestKind {
  kSlice,        ///< Mode A: text-prompted single image
  kBox,          ///< Mode A: explicit-box prompt (BoxPromptOptions)
  kMultiObject,  ///< Mode A: one prompt per class → label map
  kVolume,       ///< Mode B: volume with temporal refinement
};

enum class RejectReason {
  kNone,
  kQueueFull,        ///< admission queue at capacity
  kDeadlineExpired,  ///< deadline passed before the pipeline ran
  kShuttingDown,     ///< submitted during/after shutdown
  kCancelled,        ///< CancelToken fired before dispatch
};

struct Request {
  RequestKind kind = RequestKind::kSlice;
  image::AnyImage image;              ///< kSlice / kBox / kMultiObject input
  image::VolumeU16 volume;            ///< kVolume input (materialized form)
  /// kVolume alternative: path of a TIFF stack streamed slice-by-slice at
  /// dispatch time. A queued request then holds a path, not gigabytes of
  /// pixels, so volume traffic cannot memory-bomb the admission queue.
  std::string volume_path;
  /// TIFF read limits for `volume_path`; the file is opened through
  /// TiffVolumeReader::open(path) (mmap where supported, else pread).
  io::TiffOpenOptions tiff_open{};
  std::string prompt;                 ///< kSlice / kVolume text prompt
  std::vector<std::string> prompts;   ///< kMultiObject class prompts
  image::Box box;                     ///< kBox prompt box
  core::BoxPromptOptions box_options; ///< kBox ranking / optional prompt

  /// Higher dispatches first; FIFO within a level.
  int priority = 0;
  /// Absolute completion deadline; unset = no deadline.
  std::optional<Clock::time_point> deadline;
  std::shared_ptr<CancelToken> cancel;

  // Factories for the four request shapes.
  static Request slice(image::AnyImage img, std::string text);
  static Request boxed(image::AnyImage img, image::Box prompt_box,
                       core::BoxPromptOptions opts = {});
  static Request multi_object(image::AnyImage img,
                              std::vector<std::string> class_prompts);
  static Request volume_batch(image::VolumeU16 vol, std::string text);
  /// Mode B streamed from disk: the TIFF (classic or BigTIFF, tiled or
  /// striped; raw, PackBits, LZW or Deflate, with or without the
  /// horizontal predictor) is opened and decoded slice-by-slice when
  /// the request dispatches. A malformed or oversized file produces a
  /// kError response carrying the io::TiffError message; the service
  /// itself is unaffected. `open` carries the TIFF read limits.
  static Request volume_file(std::string tiff_path, std::string text,
                             io::TiffOpenOptions open = {});

  // Fluent knobs: Request::slice(img, p).with_priority(2).with_deadline_in(5ms)
  Request& with_priority(int p) & { priority = p; return *this; }
  Request&& with_priority(int p) && { priority = p; return std::move(*this); }
  Request& with_deadline(Clock::time_point t) & { deadline = t; return *this; }
  Request&& with_deadline(Clock::time_point t) && {
    deadline = t;
    return std::move(*this);
  }
  Request& with_deadline_in(Clock::duration d) & {
    deadline = Clock::now() + d;
    return *this;
  }
  Request&& with_deadline_in(Clock::duration d) && {
    deadline = Clock::now() + d;
    return std::move(*this);
  }
  Request& with_cancel(std::shared_ptr<CancelToken> token) & {
    cancel = std::move(token);
    return *this;
  }
  Request&& with_cancel(std::shared_ptr<CancelToken> token) && {
    cancel = std::move(token);
    return std::move(*this);
  }
};

struct Response {
  enum class Status {
    kOk,        ///< payload for `kind` is engaged
    kRejected,  ///< see `reject` — the pipeline never ran
    kError,     ///< the pipeline threw — see `error`
  };
  Status status = Status::kOk;
  RejectReason reject = RejectReason::kNone;
  /// Structured failure description (kError and kRejected): code to
  /// branch on, the stage that detected it, the human-readable message.
  /// `error.ok()` on successful responses.
  core::Error error;
  RequestKind kind = RequestKind::kSlice;
  /// The request's obs trace id, allocated at submit. Spans recorded for
  /// this request (queue wait, encode, decode — across the submitter,
  /// dispatcher and fan-out threads) all carry this id, so a slow
  /// response can be looked up in the Chrome trace export directly.
  std::uint64_t trace_id = 0;

  // Exactly one engaged on kOk, matching `kind` (slice for both kSlice
  // and kBox).
  std::optional<core::SliceResult> slice;
  std::optional<core::ZenesisPipeline::MultiObjectResult> multi;
  std::optional<core::VolumeResult> volume;

  // Per-request timings (µs). Zero for responses rejected at submit.
  double queue_us = 0.0;   ///< time not spent decoding (queueing + batching)
  double decode_us = 0.0;  ///< pipeline run (post-encode) for this request
  double total_us = 0.0;   ///< admission → completion

  bool ok() const noexcept { return status == Status::kOk; }
};

struct ServiceConfig {
  core::PipelineConfig pipeline;
  /// Admission bound: submissions beyond this many queued requests are
  /// rejected with Rejected{QueueFull} (explicit backpressure).
  std::size_t queue_capacity = 64;
  /// Maximum compatible slice requests fused into one micro-batch.
  std::size_t max_batch = 8;
  /// Fan-out width inside a batch: 0 = process-global pool, 1 = run on
  /// the dispatcher thread, N > 1 = dedicated pool of N workers.
  std::size_t fanout_threads = 0;

  /// One message per invalid knob (queue/batch bounds plus everything
  /// PipelineConfig::validate reports); empty = valid.
  std::vector<std::string> validate() const;
};

/// Snapshot of the service's counters; copied out under the stats lock so
/// it is internally consistent.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;  ///< Ok responses
  std::uint64_t failed = 0;     ///< Error responses (pipeline threw)
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_shutting_down = 0;
  std::uint64_t expired = 0;    ///< DeadlineExpired (at submit or in queue)
  std::uint64_t cancelled = 0;
  std::uint64_t batches = 0;
  std::uint64_t queue_depth_high_water = 0;

  Histogram queue_us;    ///< admission → dispatch, per request
  Histogram encode_us;   ///< shared-backbone stage, per batch
  Histogram decode_us;   ///< pipeline decode, per request
  Histogram total_us;    ///< admission → completion, per request
  Histogram batch_size;  ///< requests per dispatched batch
};

class SegmentService {
 public:
  /// Validates `cfg` (throws std::invalid_argument listing every issue)
  /// and starts the dispatcher.
  explicit SegmentService(const ServiceConfig& cfg = {});
  ~SegmentService();

  SegmentService(const SegmentService&) = delete;
  SegmentService& operator=(const SegmentService&) = delete;

  /// Admits a request. Never blocks: a full queue, an expired deadline or
  /// a draining service completes the future immediately with a Rejected
  /// response.
  std::future<Response> submit(Request req);

  /// Stops admission, drains every queued request, then joins the
  /// dispatcher. Idempotent and safe to call concurrently.
  void shutdown();

  /// Pause/resume dispatch (admission unaffected). The dispatcher starts
  /// idle, so pause() right after construction gives deterministic queue
  /// buildup (tests, staged warm-up). While paused the dispatcher still
  /// sweeps: cancelled and expired entries complete as Rejected.
  void pause();
  void resume();

  ServiceStats stats() const;
  std::size_t queue_depth() const;

  /// Writes the stats block into a Mode-C dashboard (serve_* keys),
  /// including the process-wide kernel backend and precision as one-hot
  /// serve_kernel_backend_<name> / serve_precision_<name> keys.
  void publish_stats(eval::Dashboard& dashboard) const;

  const core::ZenesisPipeline& pipeline() const noexcept { return pipeline_; }
  const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  struct Pending {
    Request req;
    std::promise<Response> promise;
    std::uint64_t seq = 0;
    Clock::time_point enqueued{};
    bool done = false;  ///< promise fulfilled (guards the run_batch backstop)
    std::uint64_t trace_id = 0;      ///< obs id allocated at submit
    std::int64_t obs_enqueued_ns = 0;  ///< obs clock at admission (0 = off)
  };

  void dispatcher_loop();
  /// Pops the next micro-batch (priority pivot + compatible slice
  /// requests, admission order). Caller holds mutex_.
  std::vector<Pending> pop_batch_locked();
  /// Removes cancelled and expired entries from queue_ (admission order),
  /// each paired with its reject reason. Caller holds mutex_ and finishes
  /// them after unlocking.
  std::vector<std::pair<Pending, RejectReason>> sweep_dead_locked(
      Clock::time_point now);
  void run_batch(std::vector<Pending> batch);
  void run_slice_batch(std::vector<Pending>& batch);
  void run_single(Pending& pending);
  /// Runs body(i) for i in [0, n) on the fan-out substrate.
  void fan_out(std::size_t n, const std::function<void(std::size_t)>& body);
  void finish(Pending& pending, Response&& response, double decode_us);
  void finish_rejected(Pending& pending, RejectReason reason);
  /// Backstop: completes every not-yet-finished request with kError so no
  /// exception can leave a promise unfulfilled or escape the dispatcher.
  void fail_unfinished(std::vector<Pending>& batch, const core::Error& error);
  parallel::ThreadPool& fanout_pool() const;

  ServiceConfig cfg_;
  core::ZenesisPipeline pipeline_;
  std::unique_ptr<parallel::ThreadPool> pool_;  ///< when fanout_threads > 1

  mutable std::mutex mutex_;  ///< queue_, stopping_, paused_, next_seq_
  std::condition_variable cv_;
  std::vector<Pending> queue_;
  bool stopping_ = false;
  bool paused_ = false;
  std::uint64_t next_seq_ = 0;

  mutable std::mutex stats_mutex_;
  ServiceStats stats_;

  std::mutex lifecycle_mutex_;  ///< serializes shutdown/join
  std::thread dispatcher_;
};

}  // namespace zenesis::serve
