// The live telemetry server (DESIGN.md §12): the snapshot cell under
// concurrent hammering, the four endpoints against a real
// (tiny) training run, and the health flip driven by
// TrainTelemetry::NoteUnhealthy.
#include "core/telemetry_server.h"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/equitensor.h"
#include "core/telemetry.h"
#include "data/generators.h"
#include "util/http_server.h"
#include "util/json.h"
#include "util/profiler.h"
#include "util/prom.h"

namespace equitensor {
namespace core {
namespace {

TEST(SnapshotCellTest, ReadFailsBeforeFirstPublish) {
  SnapshotCell cell;
  std::string out;
  EXPECT_FALSE(cell.Read(&out));
}

TEST(SnapshotCellTest, PublishReadRoundTrip) {
  SnapshotCell cell;
  cell.Publish("{\"a\":1}");
  std::string out;
  ASSERT_TRUE(cell.Read(&out));
  EXPECT_EQ(out, "{\"a\":1}");
  cell.Publish("{\"a\":2}");
  ASSERT_TRUE(cell.Read(&out));
  EXPECT_EQ(out, "{\"a\":2}");
}

// The cell has no fixed capacity: a document larger than 256 KiB comes
// back whole.
TEST(SnapshotCellTest, LargeDocumentRoundTripsWhole) {
  SnapshotCell cell;
  std::string doc(300 * 1024, 'x');
  doc.front() = '[';
  doc.back() = ']';
  cell.Publish(doc);
  std::string out;
  ASSERT_TRUE(cell.Read(&out));
  EXPECT_EQ(out, doc);
}

// Single writer, many readers: every read must return one of the
// published documents in full — never a torn mix of two.
TEST(SnapshotCellTest, ConcurrentReadersNeverSeeTornWrites) {
  SnapshotCell cell;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&cell, &stop, &torn] {
      std::string out;
      while (!stop.load(std::memory_order_acquire)) {
        if (!cell.Read(&out) || out.empty()) continue;
        // Documents are homogeneous ("aaaa...", "bbbb...", ...): any
        // mixed characters mean a torn read.
        for (char c : out) {
          if (c != out[0]) {
            torn.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }
  for (int i = 0; i < 20000; ++i) {
    const char c = static_cast<char>('a' + i % 8);
    cell.Publish(std::string(16 + (i % 64) * 7, c));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
}

data::CityConfig TinyCity() {
  data::CityConfig config;
  config.width = 5;
  config.height = 4;
  config.hours = 24 * 4;
  config.seed = 33;
  return config;
}

EquiTensorConfig TinyTrainerConfig(const data::CityConfig& city) {
  EquiTensorConfig config;
  config.cdae.grid_w = city.width;
  config.cdae.grid_h = city.height;
  config.cdae.window = 12;
  config.cdae.latent_channels = 2;
  config.cdae.encoder_filters = {4, 1};
  config.cdae.shared_filters = {6};
  config.cdae.decoder_filters = {6};
  config.epochs = 3;
  config.steps_per_epoch = 4;
  config.batch_size = 2;
  config.fairness = FairnessMode::kAdversarial;
  config.optimizer.learning_rate = 2e-3;
  return config;
}

std::vector<data::AlignedDataset> SlimDatasets(
    const data::UrbanDataBundle& bundle) {
  std::vector<data::AlignedDataset> slim;
  for (const char* name : {"temperature", "house_price", "seattle_911_calls"}) {
    slim.push_back(bundle.datasets[static_cast<size_t>(bundle.IndexOf(name))]);
  }
  return slim;
}

JsonValue FetchJson(int port, const std::string& path) {
  int status = 0;
  std::string body, error;
  EXPECT_TRUE(HttpGet(port, path, &status, &body, &error)) << error;
  EXPECT_EQ(status, 200) << path;
  JsonValue doc;
  EXPECT_TRUE(JsonValue::Parse(body, &doc, &error)) << path << ": " << error;
  return doc;
}

// /debug/profile + /debug/counters (DESIGN.md §17) on a bare server:
// a timed capture over a busy thread returns non-empty folded stacks,
// the counters document is well-formed whether or not perf_event_open
// works here, and a second concurrent capture is refused with 409.
TEST(TelemetryServerTest, DebugProfileAndCountersEndpoints) {
  TelemetryServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;
  const int port = server.port();

  const JsonValue counters = FetchJson(port, "/debug/counters");
  EXPECT_EQ(counters.Find("type")->str(), "debug_counters");
  const JsonValue* perf = counters.Find("perf_counters");
  ASSERT_NE(perf, nullptr);
  ASSERT_NE(perf->Find("status"), nullptr);
  ASSERT_NE(perf->Find("kernels"), nullptr);
  const JsonValue* arena = counters.Find("arena");
  ASSERT_NE(arena, nullptr);
  ASSERT_NE(arena->Find("totals"), nullptr);
  ASSERT_NE(arena->Find("classes"), nullptr);
  ASSERT_NE(counters.Find("profiler"), nullptr);
  EXPECT_FALSE(
      counters.Find("profiler")->Find("capture_active")->bool_value());

  // Busy thread so the 1 s capture has something to sample.
  std::atomic<bool> stop{false};
  std::thread burner([&stop] {
    volatile double acc = 0.0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 1; i < 4096; ++i) acc = acc + 1.0 / i;
    }
  });
  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(port, "/debug/profile?seconds=1&hz=500", &status,
                      &body, &error))
      << error;
  stop.store(true, std::memory_order_relaxed);
  burner.join();
  EXPECT_EQ(status, 200);
  ASSERT_FALSE(body.empty());
  // Every line is "stack count" folded form.
  size_t pos = 0;
  int stacks = 0;
  while (pos < body.size()) {
    const size_t eol = body.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "unterminated folded line";
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::strtoull(line.c_str() + space + 1, nullptr, 10), 0u)
        << line;
    ++stacks;
  }
  EXPECT_GT(stacks, 0);

  // While a capture is active, a competing one is refused with 409
  // (not 500: the caller should retry later, nothing is broken).
  CpuProfileOptions options;
  ASSERT_TRUE(StartCpuProfile(options, &error)) << error;
  ASSERT_TRUE(
      HttpGet(port, "/debug/profile?seconds=1", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 409);
  CpuProfile discard;
  ASSERT_TRUE(StopCpuProfile(&discard, &error)) << error;

  server.Stop();
}

TEST(TelemetryServerTest, ServesLiveTrainingRun) {
  const data::CityConfig city = TinyCity();
  const data::UrbanDataBundle bundle = data::BuildSeattleAnalog(city);
  const std::vector<data::AlignedDataset> slim = SlimDatasets(bundle);
  const EquiTensorConfig config = TinyTrainerConfig(city);

  const std::string jsonl_path =
      ::testing::TempDir() + "/telemetry_server_test.jsonl";
  TrainTelemetry telemetry;
  ASSERT_TRUE(telemetry.OpenJsonl(jsonl_path));
  RunContext context;
  context.fairness = "adversarial";
  context.lambda = config.lambda;
  context.epochs_total = config.epochs;
  telemetry.set_context(context);

  TelemetryServer server;
  std::string error;
  ASSERT_TRUE(server.Start(0, &error)) << error;
  ASSERT_GT(server.port(), 0);
  telemetry.AttachServer(&server);

  // Before the first epoch: /status serves the waiting placeholder and
  // /fairness an empty history.
  JsonValue waiting = FetchJson(server.port(), "/status");
  ASSERT_NE(waiting.Find("state"), nullptr);
  EXPECT_EQ(waiting.Find("state")->str(), "waiting");

  EquiTensorTrainer trainer(config, &slim, &bundle.race_map);
  trainer.SetTelemetry(&telemetry);
  trainer.Train();
  telemetry.Finish(1.0, config.epochs);

  // /status matches the last JSONL epoch record value for value.
  std::ifstream file(jsonl_path);
  std::string line, last_epoch_line;
  while (std::getline(file, line)) {
    if (line.find("\"type\":\"epoch\"") != std::string::npos) {
      last_epoch_line = line;
    }
  }
  ASSERT_FALSE(last_epoch_line.empty());
  JsonValue epoch_record;
  ASSERT_TRUE(JsonValue::Parse(last_epoch_line, &epoch_record, &error));

  JsonValue status = FetchJson(server.port(), "/status");
  EXPECT_EQ(status.Find("type")->str(), "status");
  EXPECT_TRUE(status.Find("healthy")->bool_value());
  ASSERT_NE(status.Find("git"), nullptr);
  for (const char* field :
       {"epoch", "total_loss", "adversary_loss", "wall_seconds",
        "fairness_correlation", "parity_gap"}) {
    ASSERT_NE(status.Find(field), nullptr) << field;
    ASSERT_NE(epoch_record.Find(field), nullptr) << field;
    EXPECT_EQ(status.Find(field)->number(), epoch_record.Find(field)->number())
        << field;
  }

  // /fairness carries one point per epoch, matching the JSONL stream.
  JsonValue fairness = FetchJson(server.port(), "/fairness");
  EXPECT_EQ(fairness.Find("type")->str(), "fairness");
  const JsonValue* epochs = fairness.Find("epochs");
  ASSERT_NE(epochs, nullptr);
  ASSERT_EQ(epochs->items().size(), static_cast<size_t>(config.epochs));
  const JsonValue& last_point = epochs->items().back();
  EXPECT_EQ(last_point.Find("fairness_correlation")->number(),
            epoch_record.Find("fairness_correlation")->number());
  EXPECT_EQ(last_point.Find("parity_gap")->number(),
            epoch_record.Find("parity_gap")->number());

  // /metrics is valid Prometheus text and carries the training gauges.
  int http_status = 0;
  std::string metrics_body;
  ASSERT_TRUE(HttpGet(server.port(), "/metrics", &http_status, &metrics_body,
                      &error))
      << error;
  EXPECT_EQ(http_status, 200);
  EXPECT_TRUE(ValidatePrometheusText(metrics_body, &error)) << error;
  EXPECT_NE(metrics_body.find("et_train_fairness_correlation"),
            std::string::npos);

  // /healthz flips from 200 to 503 (with the detail) on NoteUnhealthy.
  std::string health_body;
  ASSERT_TRUE(
      HttpGet(server.port(), "/healthz", &http_status, &health_body, &error));
  EXPECT_EQ(http_status, 200);
  telemetry.NoteUnhealthy("NaN at cdae.enc0.conv1 (epoch 2, step 3)");
  ASSERT_TRUE(
      HttpGet(server.port(), "/healthz", &http_status, &health_body, &error));
  EXPECT_EQ(http_status, 503);
  EXPECT_NE(health_body.find("cdae.enc0.conv1"), std::string::npos);

  // The unhealthy note also landed in the JSONL stream.
  std::ifstream reread(jsonl_path);
  bool saw_health_record = false;
  while (std::getline(reread, line)) {
    if (line.find("\"type\":\"health\"") != std::string::npos &&
        line.find("cdae.enc0.conv1") != std::string::npos) {
      saw_health_record = true;
    }
  }
  EXPECT_TRUE(saw_health_record);

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(TelemetryServerTest, StartRejectsTakenPortAndStopsCleanly) {
  TelemetryServer first;
  std::string error;
  ASSERT_TRUE(first.Start(0, &error)) << error;
  TelemetryServer second;
  EXPECT_FALSE(second.Start(first.port(), &error));
  first.Stop();
  first.Stop();  // idempotent
}

}  // namespace
}  // namespace core
}  // namespace equitensor
