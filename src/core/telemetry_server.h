#ifndef EQUITENSOR_CORE_TELEMETRY_SERVER_H_
#define EQUITENSOR_CORE_TELEMETRY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "util/http_server.h"
#include "util/json.h"

namespace equitensor {
namespace core {

/// Snapshot cell (DESIGN.md §12): a swapped pointer to an immutable
/// document. The training thread Publish()es a rendered document once
/// per epoch; HTTP workers Read() it at scrape time. The lock covers
/// only the pointer swap or copy — a reader copies the document outside
/// it — so publishing never waits on a slow scrape, the requirement
/// that keeps serving off the training hot path. A replaced document
/// lives until its last reader drops it.
///
/// Not std::atomic<std::shared_ptr>: libstdc++ 12's load() reads the
/// pointer under its lock bit and then releases that bit with a
/// relaxed RMW, which leaves the read unordered before the next
/// store's write (ThreadSanitizer reports it).
class SnapshotCell {
 public:
  /// Publishes `doc`, of any size. Safe from any thread.
  void Publish(std::string doc);

  /// Copies the latest published document; false before the first
  /// Publish. Safe from any thread.
  bool Read(std::string* out) const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const std::string> doc_;  // guarded by mu_
};

/// The live observability endpoint of a training run (DESIGN.md §12):
/// mounts util/http_server with
///   /metrics  — Prometheus text exposition of the metrics registry
///               plus kernel-timing histograms from the trace layer,
///               rendered fresh per scrape (the registry is lock-free)
///   /healthz  — 200 "ok" until the numerics sentinel (or any caller
///               of SetHealth) reports otherwise, then 503 with the
///               offending point
///   /status   — JSON snapshot of the newest epoch (same values as
///               the JSONL telemetry record), published through a
///               SnapshotCell
///   /fairness — JSON per-epoch history of the live fairness audit
///               (Pearson corr of Z vs S, demographic-parity gap)
///   /debug/requests — JSON ring of the last scrapes' request
///               timelines (DESIGN.md §16; same layer as the serving
///               daemon's, with metric prefix "telemetry")
/// Wire a run into it via TrainTelemetry::AttachServer.
class TelemetryServer {
 public:
  TelemetryServer();
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Binds `port` (0 = ephemeral) and starts serving. Returns false
  /// with a reason when the port is taken or the server already runs.
  bool Start(int port, std::string* error);

  int port() const { return http_.port(); }
  bool running() const { return http_.running(); }

  /// Graceful stop: closes the listen socket, completes in-flight
  /// responses, joins every server thread. Idempotent.
  void Stop();

  /// Single-writer publication (the training thread).
  void PublishStatus(const JsonValue& doc);
  void PublishFairness(const JsonValue& doc);

  /// Flips /healthz; `detail` names the offending layer/point.
  void SetHealth(bool healthy, const std::string& detail);
  bool healthy() const { return healthy_.load(std::memory_order_acquire); }

  uint64_t requests_served() const { return http_.requests_served(); }

  RequestObservability& observability() { return observability_; }

 private:
  HttpServer http_;
  RequestObservability observability_;
  SnapshotCell status_;
  SnapshotCell fairness_;
  SnapshotCell health_detail_;
  std::atomic<bool> healthy_{true};
};

}  // namespace core
}  // namespace equitensor

#endif  // EQUITENSOR_CORE_TELEMETRY_SERVER_H_
