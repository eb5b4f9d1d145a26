#include "core/telemetry_server.h"

#include <utility>

#include "core/debug_endpoints.h"
#include "util/metrics.h"
#include "util/prom.h"
#include "util/system_info.h"
#include "util/trace.h"

namespace equitensor {
namespace core {

void SnapshotCell::Publish(std::string doc) {
  // Built before, and the old document freed after, the critical
  // section.
  std::shared_ptr<const std::string> next =
      std::make_shared<const std::string>(std::move(doc));
  std::lock_guard<std::mutex> lock(mu_);
  doc_.swap(next);
}

bool SnapshotCell::Read(std::string* out) const {
  std::shared_ptr<const std::string> doc;
  {
    std::lock_guard<std::mutex> lock(mu_);
    doc = doc_;
  }
  if (!doc) return false;
  *out = *doc;
  return true;
}

TelemetryServer::TelemetryServer()
    : observability_([] {
        RequestObservability::Options options;
        options.metric_prefix = "telemetry";
        options.ring_capacity = 32;
        // Scrapes are sparse; the ring and histograms are plenty — no
        // access log for the telemetry port.
        options.sample_every = 0;
        return options;
      }()) {
  http_.set_observer([this](const RequestTimeline& timeline) {
    observability_.Observe(timeline);
  });
  http_.Handle("/debug/requests", [this](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json; charset=utf-8";
    response.body = observability_.RequestsJson().Dump() + "\n";
    return response;
  });
  http_.Handle("/metrics", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = RenderPrometheusText(MetricsRegistry::Global().Snapshot(),
                                         CollectTraceStats());
    return response;
  });
  http_.Handle("/healthz", [this](const HttpRequest&) {
    HttpResponse response;
    if (healthy()) {
      response.body = "ok\n";
    } else {
      response.status = 503;
      std::string detail;
      health_detail_.Read(&detail);
      response.body = "unhealthy: " + detail + "\n";
    }
    return response;
  });
  const auto json_endpoint = [](const SnapshotCell* cell,
                                const char* fallback) {
    return [cell, fallback](const HttpRequest&) {
      HttpResponse response;
      response.content_type = "application/json";
      if (!cell->Read(&response.body)) response.body = fallback;
      response.body += "\n";
      return response;
    };
  };
  http_.Handle("/status",
               json_endpoint(&status_,
                             "{\"type\":\"status\",\"state\":\"waiting\"}"));
  http_.Handle("/fairness",
               json_endpoint(&fairness_,
                             "{\"type\":\"fairness\",\"epochs\":[]}"));
  // /debug/profile (on-demand CPU capture) + /debug/counters (hardware
  // counters, arena heat) — DESIGN.md §17. The profile capture parks
  // one of the two HTTP workers for its duration; scrapes keep flowing
  // on the other.
  RegisterProfilingEndpoints(&http_);
}

TelemetryServer::~TelemetryServer() { Stop(); }

bool TelemetryServer::Start(int port, std::string* error) {
  return http_.Start(port, error);
}

void TelemetryServer::Stop() { http_.Stop(); }

void TelemetryServer::PublishStatus(const JsonValue& doc) {
  status_.Publish(doc.Dump());
}

void TelemetryServer::PublishFairness(const JsonValue& doc) {
  fairness_.Publish(doc.Dump());
}

void TelemetryServer::SetHealth(bool healthy, const std::string& detail) {
  health_detail_.Publish(detail);
  healthy_.store(healthy, std::memory_order_release);
}

}  // namespace core
}  // namespace equitensor
