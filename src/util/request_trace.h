#ifndef EQUITENSOR_UTIL_REQUEST_TRACE_H_
#define EQUITENSOR_UTIL_REQUEST_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "util/json.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace equitensor {

/// Per-request observability for the serving stack (DESIGN.md §16).
///
/// util/http_server creates one RequestContext per parsed request
/// (monotonic id, start time) and attaches it to the HttpRequest; the
/// serving layers downstream — ServingService handlers, the
/// PredictBatcher, the EmbeddingCache, the backend forward — record
/// the wall time each *stage* of the request consumed. When the
/// response has been written, the server hands the finished
/// RequestTimeline to a RequestObservability sink, which fans it out
/// three ways:
///   - multi-bucket latency histograms per endpoint and per stage in
///     the global metrics registry (scraped via /metrics),
///   - a lock-free seqlock ring of the last K timelines plus a top-K
///     slow table (served live via /debug/requests and /debug/slow),
///   - a sampled JSONL access log (every Nth request, plus every
///     request slower than a threshold).

/// The stage taxonomy. Stages are disjoint wall-time intervals of one
/// request; their sum is ≤ the request total (the gap is uninstrumented
/// handler overhead, which tests bound by a tolerance).
enum class RequestStage {
  kParse = 0,        // bytes on the socket -> parsed request (head+body)
  kQueueWait = 1,    // enqueue in the batcher -> batcher thread wakes
  kBatchWait = 2,    // batcher awake -> batch sealed (window fill time)
  kCacheLookup = 3,  // embedding LRU probe (hit or miss)
  kForward = 4,      // batched model forward pass
  kSerialize = 5,    // response rendering + socket write
};
constexpr int kNumRequestStages = 6;

/// Stable lowercase stage names ("parse", "queue_wait", ...), used for
/// metric names, JSON keys, and docs.
const char* RequestStageName(RequestStage stage);

/// One finished request, as recorded by the server and the layers the
/// request passed through. Trivially copyable by design: timelines
/// move through a seqlock ring, which needs memcpy-able slots.
struct RequestTimeline {
  uint64_t id = 0;          // strictly monotonic per server
  char method[8] = {0};     // "GET" | "HEAD" | "POST"
  char path[56] = {0};      // truncated to fit; enough for every route
  bool routed = false;      // matched a registered route (else 404/405)
  int status = 0;           // HTTP status written
  int64_t generation = 0;   // serving model generation (0 = n/a)
  double start_seconds = 0.0;  // steady-clock seconds (ordering only)
  double unix_seconds = 0.0;   // wall clock, for the access log
  double total_seconds = 0.0;  // first byte -> response written
  double stage_seconds[kNumRequestStages] = {0};

  void set_method(const std::string& m);
  void set_path(const std::string& p);
  /// Sum over stage_seconds.
  double StagesTotal() const;
};
static_assert(std::is_trivially_copyable<RequestTimeline>::value,
              "timelines travel through a seqlock ring");

/// Mutable per-request recording handle. Created by the HTTP server,
/// pointed to from HttpRequest::context, written by whichever layer
/// currently owns the request. Not thread-safe per se, but the serving
/// stack's ownership hand-off is strictly sequential: the HTTP worker
/// blocks while the batcher thread records queue/batch/forward stages,
/// then resumes — no two threads touch the context concurrently.
class RequestContext {
 public:
  RequestTimeline& timeline() { return timeline_; }
  const RequestTimeline& timeline() const { return timeline_; }

  /// Accumulates `seconds` into the stage (stages touched twice — e.g.
  /// serialize covering both JSON render and socket write — add up).
  void AddStage(RequestStage stage, double seconds) {
    if (seconds > 0.0) {
      timeline_.stage_seconds[static_cast<int>(stage)] += seconds;
    }
  }

 private:
  RequestTimeline timeline_;
};

/// RAII stage timer that tolerates a null context, so instrumented
/// code reads the same whether observability is attached or not:
///   StageScope scope(request.context, RequestStage::kSerialize);
class StageScope {
 public:
  StageScope(RequestContext* context, RequestStage stage)
      : context_(context), stage_(stage) {}
  ~StageScope() {
    if (context_ != nullptr) {
      context_->AddStage(stage_, watch_.ElapsedSeconds());
    }
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  RequestContext* context_;
  RequestStage stage_;
  Stopwatch watch_;
};

/// Lock-free ring of the last K timelines. Multi-writer: a writer
/// claims a slot with one fetch_add on the cursor, then publishes
/// through that slot's seqlock (odd while writing). Readers copy
/// optimistically and skip slots that move underneath them, so
/// scraping /debug/requests never blocks a request completion.
class RequestRing {
 public:
  explicit RequestRing(size_t capacity);

  void Push(const RequestTimeline& timeline);

  /// Most-recent-last snapshot of every published slot. Slots being
  /// rewritten during the copy are skipped, never torn.
  std::vector<RequestTimeline> Snapshot() const;

  size_t capacity() const { return slots_.size(); }
  uint64_t pushed() const { return cursor_.load(std::memory_order_relaxed); }

 private:
  struct alignas(64) Slot {
    std::atomic<uint64_t> seq{0};  // odd while a writer is inside
    RequestTimeline data;
  };

  std::vector<Slot> slots_;
  std::atomic<uint64_t> cursor_{0};
};

/// The completion sink. Thread-safe; Observe is called by HTTP worker
/// threads on every finished request.
class RequestObservability {
 public:
  struct Options {
    /// Prefix for registry metric names: `<prefix>.request_seconds.
    /// <endpoint>` and `<prefix>.stage_seconds.<stage>`.
    std::string metric_prefix = "serving";
    /// Ring size behind /debug/requests.
    size_t ring_capacity = 64;
    /// Top-K slow table behind /debug/slow.
    size_t slow_capacity = 8;
    /// Requests with total latency over this always hit the access
    /// log, regardless of sampling.
    double slow_threshold_ms = 250.0;
    /// Log every Nth request (1 = all, 0 = only slow ones).
    int64_t sample_every = 1;
    /// JSONL access log path ("" = no access log).
    std::string access_log_path;
    /// Histogram bucket upper edges in seconds; empty = log-spaced
    /// default (10 µs growing ×√2 up to ~7 s).
    std::vector<double> latency_bounds;
  };

  explicit RequestObservability(Options options);
  ~RequestObservability();

  RequestObservability(const RequestObservability&) = delete;
  RequestObservability& operator=(const RequestObservability&) = delete;

  /// Opens the access log (no-op without a path). False + reason on
  /// I/O failure.
  bool OpenAccessLog(std::string* error);

  /// Records one finished request: histograms, ring, slow table,
  /// access log sampling. Safe from any thread.
  void Observe(const RequestTimeline& timeline);

  /// Ring snapshot, oldest first.
  std::vector<RequestTimeline> RecentRequests() const;
  /// Slow table, slowest first.
  std::vector<RequestTimeline> SlowRequests() const;

  /// {"type":"debug_requests","requests":[...]} for /debug/requests.
  JsonValue RequestsJson() const;
  /// {"type":"debug_slow","requests":[...]} for /debug/slow.
  JsonValue SlowJson() const;
  /// Per-stage and per-endpoint latency percentiles estimated from the
  /// registry histograms: the server-side breakdown loadgen folds into
  /// BENCH_serving.json.
  JsonValue StagesJson() const;

  uint64_t observed() const {
    return observed_.load(std::memory_order_relaxed);
  }
  uint64_t access_log_lines() const {
    return access_lines_.load(std::memory_order_relaxed);
  }
  const Options& options() const { return options_; }

  /// One access-log JSONL record (also used by tests to assert the
  /// round-trip through the strict parser).
  static JsonValue TimelineToJson(const RequestTimeline& timeline);

 private:
  std::string EndpointName(const RequestTimeline& timeline) const;
  Histogram* EndpointHistogram(const std::string& endpoint);
  void WriteAccessLine(const RequestTimeline& timeline);

  Options options_;
  RequestRing ring_;
  /// Pre-resolved registry pointers: Observe runs on every request
  /// completion, so it must not pay the registry's name-keyed mutex
  /// lookup per call. Stages are fixed; endpoints are a small bounded
  /// set (routed paths + "other") cached under their own mutex.
  Histogram* stage_histograms_[kNumRequestStages] = {nullptr};
  mutable std::mutex endpoint_mu_;
  std::unordered_map<std::string, Histogram*> endpoint_histograms_;
  std::atomic<uint64_t> observed_{0};
  std::atomic<uint64_t> access_lines_{0};

  mutable std::mutex slow_mu_;
  std::vector<RequestTimeline> slow_;  // sorted, slowest first

  std::mutex log_mu_;
  int log_fd_ = -1;
};

/// Quantile estimate from a fixed-bucket histogram (bounds = inclusive
/// upper edges, buckets = per-bucket counts with one extra overflow
/// cell). Linear interpolation inside the chosen bucket; the overflow
/// bucket clamps to the last finite edge. Returns 0 when empty.
double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& buckets, double q);

/// Wall-clock seconds since the Unix epoch (access-log timestamps).
double RequestUnixSeconds();

}  // namespace equitensor

#endif  // EQUITENSOR_UTIL_REQUEST_TRACE_H_
