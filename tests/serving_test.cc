// The serving layer (DESIGN.md §14): bundle save/load validation, the
// batched-forward bitwise-parity contract on every kernel backend, the
// request batcher, the embedding LRU cache, the HTTP endpoints, and
// hot reload (including a corrupt checkpoint keeping the old model).
#include "core/serving.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "models/cdae.h"
#include "nn/backend_registry.h"
#include "nn/serialize.h"
#include "util/json.h"

namespace equitensor {
namespace core {
namespace {

constexpr int64_t kK = 3, kW = 6, kH = 5, kHours = 72;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// Small but real artifacts: a smooth synthetic Z, a sensitive gradient
// map, and a target that actually depends on Z so the predictor head
// has signal to fit.
ServingArtifacts MakeArtifacts(uint64_t seed = 7) {
  Rng rng(seed);
  ServingArtifacts artifacts;
  artifacts.z = Tensor::RandomUniform({kK, kW, kH, kHours}, rng, -1.0f, 1.0f);
  artifacts.sensitive_map = Tensor({kW, kH});
  for (int64_t x = 0; x < kW; ++x) {
    for (int64_t y = 0; y < kH; ++y) {
      artifacts.sensitive_map[x * kH + y] =
          static_cast<float>(x) / static_cast<float>(kW - 1);
    }
  }
  artifacts.target = Tensor({kW, kH, kHours});
  for (int64_t cell = 0; cell < kW * kH; ++cell) {
    for (int64_t t = 0; t < kHours; ++t) {
      artifacts.target[cell * kHours + t] =
          0.5f + 0.4f * artifacts.z[cell * kHours + t];
    }
  }
  artifacts.target_scale = 25.0f;
  artifacts.task_name = "bikeshare";
  return artifacts;
}

GridTaskConfig TinyTask() {
  GridTaskConfig task;
  task.history = 8;
  task.predictor.history = 8;
  task.epochs = 1;
  task.steps_per_epoch = 2;
  task.batch_size = 2;
  task.seed = 99;
  return task;
}

TEST(ServingCheckpointTest, RoundTripsArtifactsAndEncoder) {
  models::CdaeConfig config;
  config.grid_w = kW;
  config.grid_h = kH;
  config.window = 8;
  config.latent_channels = kK;
  config.encoder_filters = {4, 1};
  config.shared_filters = {4};
  config.decoder_filters = {4};
  Rng rng(3);
  const models::CoreCdae encoder(
      config, {{"weather", data::DatasetKind::kTemporal, 2}}, rng);

  ServingArtifacts artifacts = MakeArtifacts();
  artifacts.encoder = &encoder;
  const std::string path = TempPath("serving_roundtrip.etck");
  ASSERT_TRUE(SaveServingCheckpoint(path, artifacts));

  std::string error;
  const auto model = LoadServingModel(path, TinyTask(), 1, &error);
  ASSERT_NE(model, nullptr) << error;
  EXPECT_EQ(model->generation(), 1);
  EXPECT_EQ(model->task_name(), "bikeshare");
  EXPECT_FLOAT_EQ(model->target_scale(), 25.0f);
  ASSERT_TRUE(model->z().SameShape(artifacts.z));
  EXPECT_EQ(std::memcmp(model->z().data(), artifacts.z.data(),
                        sizeof(float) * artifacts.z.size()),
            0);
  ASSERT_NE(model->encoder(), nullptr);
  EXPECT_EQ(model->encoder()->config().latent_channels, kK);
  EXPECT_GT(model->parameter_count(), 0);
  EXPECT_EQ(model->predict_t_min(), 8);
  EXPECT_EQ(model->predict_t_max(), kHours - 2);
  // The full-Z audit matches a direct audit of the same tensors.
  const FairnessSignal direct =
      AuditRepresentation(artifacts.z, artifacts.sensitive_map);
  EXPECT_DOUBLE_EQ(model->base_audit().correlation, direct.correlation);
  EXPECT_DOUBLE_EQ(model->base_audit().parity_gap, direct.parity_gap);
}

TEST(ServingCheckpointTest, LoadRejectsBadBundlesWithoutCrashing) {
  std::string error;
  EXPECT_EQ(LoadServingModel("/nonexistent/nope.etck", TinyTask(), 1, &error),
            nullptr);
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;

  // A valid ETCK checkpoint that is not a serving bundle.
  const std::string plain = TempPath("serving_plain.etck");
  nn::Checkpoint checkpoint;
  checkpoint.tensors.emplace_back("z", Tensor({kK, kW, kH, kHours}));
  ASSERT_TRUE(nn::SaveCheckpoint(plain, checkpoint));
  EXPECT_EQ(LoadServingModel(plain, TinyTask(), 1, &error), nullptr);
  EXPECT_NE(error.find("serving.format"), std::string::npos) << error;

  // Mismatched grid between z and the sensitive map.
  ServingArtifacts artifacts = MakeArtifacts();
  artifacts.sensitive_map = Tensor({kW + 1, kH});
  const std::string mismatched = TempPath("serving_mismatch.etck");
  ASSERT_TRUE(SaveServingCheckpoint(mismatched, artifacts));
  EXPECT_EQ(LoadServingModel(mismatched, TinyTask(), 1, &error), nullptr);
  EXPECT_NE(error.find("sensitive_map"), std::string::npos) << error;

  // Not enough hours to fit the head.
  GridTaskConfig starved = TinyTask();
  starved.history = kHours + 10;
  const std::string fine = TempPath("serving_fine.etck");
  ASSERT_TRUE(SaveServingCheckpoint(fine, MakeArtifacts()));
  EXPECT_EQ(LoadServingModel(fine, starved, 1, &error), nullptr);
  EXPECT_NE(error.find("not enough hours"), std::string::npos) << error;
}

TEST(ServingModelTest, EmbeddingMatchesZSlice) {
  const std::string path = TempPath("serving_embed.etck");
  const ServingArtifacts artifacts = MakeArtifacts();
  ASSERT_TRUE(SaveServingCheckpoint(path, artifacts));
  std::string error;
  const auto model = LoadServingModel(path, TinyTask(), 1, &error);
  ASSERT_NE(model, nullptr) << error;
  const std::vector<float> embedding = model->EmbeddingAt(2, 3, 40);
  ASSERT_EQ(embedding.size(), static_cast<size_t>(kK));
  for (int64_t c = 0; c < kK; ++c) {
    EXPECT_EQ(embedding[static_cast<size_t>(c)],
              artifacts.z[((c * kW + 2) * kH + 3) * kHours + 40]);
  }
}

// The tentpole contract: stacking N requests into one forward pass is
// bitwise identical to N single-request passes — on every backend.
// This is what makes the serving batcher transparent.
TEST(ServingModelTest, BatchedForwardIsBitwiseEqualToUnbatchedOnAllBackends) {
  const std::string path = TempPath("serving_parity.etck");
  ASSERT_TRUE(SaveServingCheckpoint(path, MakeArtifacts()));
  const backend::Backend original = backend::CurrentBackend();
  for (const backend::Backend be :
       {backend::Backend::kReference, backend::Backend::kFast}) {
    backend::SetBackend(be);
    std::string error;
    const auto model = LoadServingModel(path, TinyTask(), 1, &error);
    ASSERT_NE(model, nullptr) << error;
    const std::vector<int64_t> hours = {10, 23, 24, 40, 63, 10};
    const Tensor batched = model->Predict(hours);
    ASSERT_EQ(batched.dim(0), static_cast<int64_t>(hours.size()));
    const int64_t cells = kW * kH;
    for (size_t i = 0; i < hours.size(); ++i) {
      const Tensor single = model->Predict({hours[i]});
      ASSERT_EQ(single.size(), cells);
      EXPECT_EQ(std::memcmp(single.data(),
                            batched.data() + static_cast<int64_t>(i) * cells,
                            sizeof(float) * static_cast<size_t>(cells)),
                0)
          << "backend " << backend::BackendName(be) << ", batch slot " << i
          << " (t=" << hours[i] << ") differs from the unbatched forward";
    }
  }
  backend::SetBackend(original);
}

TEST(PredictBatcherTest, CoalescesConcurrentRequestsTransparently) {
  const std::string path = TempPath("serving_batcher.etck");
  ASSERT_TRUE(SaveServingCheckpoint(path, MakeArtifacts()));
  std::string error;
  std::shared_ptr<const ServingModel> model =
      LoadServingModel(path, TinyTask(), 1, &error);
  ASSERT_NE(model, nullptr) << error;

  PredictBatcher::Options options;
  options.max_batch = 4;
  options.window_ms = 20;  // generous: all 8 requests should coalesce
  PredictBatcher batcher(options, [&model] { return model; });
  batcher.Start();

  constexpr int kRequests = 8;
  std::vector<PredictOutcome> outcomes(kRequests);
  std::vector<std::thread> clients;
  for (int i = 0; i < kRequests; ++i) {
    clients.emplace_back([&batcher, &outcomes, i] {
      outcomes[static_cast<size_t>(i)] =
          batcher.Predict(10 + (i % 3));
    });
  }
  for (std::thread& client : clients) client.join();
  for (int i = 0; i < kRequests; ++i) {
    const PredictOutcome& outcome = outcomes[static_cast<size_t>(i)];
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_EQ(outcome.generation, 1);
    // Whatever batch the request landed in, the result must equal the
    // dedicated single forward.
    const Tensor single = model->Predict({10 + (i % 3)});
    EXPECT_EQ(std::memcmp(outcome.grid.data(), single.data(),
                          sizeof(float) * static_cast<size_t>(single.size())),
              0);
  }
  EXPECT_EQ(batcher.requests_batched(), static_cast<uint64_t>(kRequests));
  EXPECT_LE(batcher.batches_run(), static_cast<uint64_t>(kRequests));
  EXPECT_GE(batcher.max_batch_observed(), 1u);
  EXPECT_LE(batcher.max_batch_observed(), 4u);

  // Out-of-range hour: fast rejection with the valid range spelled out.
  const PredictOutcome bad = batcher.Predict(kHours + 5);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.error.find("out of range"), std::string::npos) << bad.error;
  batcher.Stop();
}

TEST(EmbeddingCacheTest, LruEvictsAndCounts) {
  EmbeddingCache cache(2);
  std::string value;
  EXPECT_FALSE(cache.Get(1, &value));
  cache.Put(1, "one");
  cache.Put(2, "two");
  ASSERT_TRUE(cache.Get(1, &value));  // 1 is now most recent
  EXPECT_EQ(value, "one");
  cache.Put(3, "three");              // evicts 2
  EXPECT_FALSE(cache.Get(2, &value));
  ASSERT_TRUE(cache.Get(1, &value));
  ASSERT_TRUE(cache.Get(3, &value));
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get(1, &value));

  EmbeddingCache disabled(0);
  disabled.Put(1, "x");
  EXPECT_FALSE(disabled.Get(1, &value));
}

// Full service over loopback HTTP: endpoints, cache behavior, and the
// hot-reload protocol including the failure path.
TEST(ServingServiceTest, EndpointsCacheAndHotReload) {
  const std::string path = TempPath("serving_service.etck");
  ASSERT_TRUE(SaveServingCheckpoint(path, MakeArtifacts(7)));

  ServingService::Options options;
  options.checkpoint_path = path;
  options.task = TinyTask();
  options.batch.max_batch = 4;
  options.batch.window_ms = 1;
  options.cache_capacity = 16;
  ServingService service(options);
  std::string error;
  ASSERT_TRUE(service.LoadInitial(&error)) << error;
  ASSERT_TRUE(service.Start(0, &error)) << error;
  const int port = service.port();

  int status = 0;
  std::string body;
  ASSERT_TRUE(HttpGet(port, "/healthz", &status, &body, &error)) << error;
  EXPECT_EQ(status, 200);

  // /embed: second fetch of the same cell is a cache hit with an
  // identical payload.
  ASSERT_TRUE(
      HttpGet(port, "/embed?cx=1&cy=2&t=30", &status, &body, &error))
      << error;
  ASSERT_EQ(status, 200) << body;
  const std::string first_embed = body;
  const uint64_t hits_before = service.cache().hits();
  ASSERT_TRUE(
      HttpGet(port, "/embed?cx=1&cy=2&t=30", &status, &body, &error))
      << error;
  EXPECT_EQ(body, first_embed);
  EXPECT_EQ(service.cache().hits(), hits_before + 1);
  JsonValue embed_doc;
  ASSERT_TRUE(JsonValue::Parse(body, &embed_doc, &error)) << error;
  EXPECT_EQ(embed_doc.Find("k")->int_value(), kK);
  EXPECT_EQ(embed_doc.Find("embedding")->items().size(),
            static_cast<size_t>(kK));

  // Bad parameters are 400s, not crashes.
  ASSERT_TRUE(HttpGet(port, "/embed?cx=99&cy=0&t=0", &status, &body, &error));
  EXPECT_EQ(status, 400);
  ASSERT_TRUE(HttpGet(port, "/embed?cx=abc", &status, &body, &error));
  EXPECT_EQ(status, 400);
  ASSERT_TRUE(HttpGet(port, "/predict?t=99999", &status, &body, &error));
  EXPECT_EQ(status, 400);

  // /predict: GET and POST produce byte-identical documents.
  ASSERT_TRUE(HttpGet(port, "/predict?t=30", &status, &body, &error))
      << error;
  ASSERT_EQ(status, 200) << body;
  const std::string get_prediction = body;
  ASSERT_TRUE(HttpPost(port, "/predict", "{\"t\": 30}", "application/json",
                       &status, &body, &error))
      << error;
  ASSERT_EQ(status, 200) << body;
  EXPECT_EQ(body, get_prediction);
  JsonValue predict_doc;
  ASSERT_TRUE(JsonValue::Parse(body, &predict_doc, &error)) << error;
  EXPECT_EQ(predict_doc.Find("generation")->int_value(), 1);
  EXPECT_EQ(predict_doc.Find("prediction")->items().size(),
            static_cast<size_t>(kW * kH));

  // /fairness: full audit and a slice audit.
  ASSERT_TRUE(HttpGet(port, "/fairness", &status, &body, &error)) << error;
  ASSERT_EQ(status, 200) << body;
  JsonValue fairness_doc;
  ASSERT_TRUE(JsonValue::Parse(body, &fairness_doc, &error)) << error;
  EXPECT_EQ(fairness_doc.Find("scope")->str(), "full");
  ASSERT_TRUE(HttpGet(port, "/fairness?t=12", &status, &body, &error));
  ASSERT_EQ(status, 200) << body;
  ASSERT_TRUE(JsonValue::Parse(body, &fairness_doc, &error)) << error;
  EXPECT_EQ(fairness_doc.Find("scope")->str(), "slice");

  // /status reflects the live counters.
  ASSERT_TRUE(HttpGet(port, "/status", &status, &body, &error)) << error;
  JsonValue status_doc;
  ASSERT_TRUE(JsonValue::Parse(body, &status_doc, &error)) << error;
  EXPECT_EQ(status_doc.Find("generation")->int_value(), 1);
  EXPECT_GT(status_doc.Find("cache")->Find("hits")->number(), 0.0);

  // Hot reload with different artifacts: generation 2, new Z served,
  // cache cleared.
  ASSERT_TRUE(SaveServingCheckpoint(path, MakeArtifacts(1234)));
  ASSERT_TRUE(service.Reload(&error)) << error;
  EXPECT_EQ(service.generation(), 2);
  EXPECT_EQ(service.cache().size(), 0u);
  ASSERT_TRUE(
      HttpGet(port, "/embed?cx=1&cy=2&t=30", &status, &body, &error))
      << error;
  ASSERT_EQ(status, 200) << body;
  EXPECT_NE(body, first_embed);  // new generation, new Z
  ASSERT_TRUE(JsonValue::Parse(body, &embed_doc, &error)) << error;
  EXPECT_EQ(embed_doc.Find("generation")->int_value(), 2);

  // A corrupt checkpoint must NOT take the service down: reload fails,
  // the old generation keeps serving.
  {
    std::ofstream corrupt(path, std::ios::trunc | std::ios::binary);
    corrupt << "this is not an ETCK file";
  }
  EXPECT_FALSE(service.Reload(&error));
  EXPECT_NE(error.find("cannot read"), std::string::npos) << error;
  EXPECT_EQ(service.generation(), 2);
  EXPECT_EQ(service.reload_failures(), 1u);
  ASSERT_TRUE(HttpGet(port, "/predict?t=30", &status, &body, &error))
      << error;
  EXPECT_EQ(status, 200) << body;
  ASSERT_TRUE(JsonValue::Parse(body, &predict_doc, &error)) << error;
  EXPECT_EQ(predict_doc.Find("generation")->int_value(), 2);

  service.Stop();
  EXPECT_FALSE(service.running());
}

}  // namespace
}  // namespace core
}  // namespace equitensor
