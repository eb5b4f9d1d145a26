#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/equitensor.h"
#include "data/generators.h"
#include "nn/backend_registry.h"
#include "util/thread_pool.h"

namespace equitensor {
namespace core {
namespace {

// Golden loss/fairness trajectory (DESIGN.md §15): a tiny adversarial
// training run hashed over every deterministic EpochLog field. The
// backend determinism contract says the hash must be identical across
// thread counts for a fixed backend. The committed constants pin the
// reference and fast trajectories themselves so a silent numeric
// change in any kernel, the trainer, or the fairness audit fails
// loudly.

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
  config.cdae.disentangle = true;
  config.fairness = FairnessMode::kAdversarial;
  config.lambda = 0.5;
  config.epochs = 2;
  config.steps_per_epoch = 4;
  config.batch_size = 2;
  config.opt_loss_epochs = 1;
  config.opt_loss_steps_per_epoch = 2;
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

// FNV-1a over the %.17g rendering of every deterministic EpochLog
// field, in declaration order. wall_seconds, peak_rss_bytes, and
// layer_stats are timing/telemetry and deliberately excluded.
uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  return h;
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

uint64_t TrajectoryHash(const std::vector<EpochLog>& log) {
  uint64_t h = 14695981039346656037ull;
  for (const EpochLog& e : log) {
    h = Fnv1a(h, "epoch=" + std::to_string(e.epoch));
    for (const double v : e.dataset_losses) h = Fnv1a(h, ",dl=" + Fmt(v));
    for (const double v : e.weights) h = Fnv1a(h, ",w=" + Fmt(v));
    h = Fnv1a(h, ",total=" + Fmt(e.total_loss));
    h = Fnv1a(h, ",adv=" + Fmt(e.adversary_loss));
    h = Fnv1a(h, ",bal=" + Fmt(e.adv_recon_balance));
    h = Fnv1a(h, ",audited=" + std::to_string(e.fairness_audited ? 1 : 0));
    h = Fnv1a(h, ",corr=" + Fmt(e.fairness_correlation));
    h = Fnv1a(h, ",gap=" + Fmt(e.parity_gap));
    h = Fnv1a(h, ";");
  }
  return h;
}

class GoldenTrajectoryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    bundle_ = new data::UrbanDataBundle(data::BuildSeattleAnalog(TinyCity()));
    slim_ = new std::vector<data::AlignedDataset>(SlimDatasets(*bundle_));
  }
  static void TearDownTestSuite() {
    delete slim_;
    delete bundle_;
    slim_ = nullptr;
    bundle_ = nullptr;
  }
  ~GoldenTrajectoryTest() override {
    backend::SetBackend(backend::Backend::kFast);
    SetNumThreads(0);
  }

  uint64_t Run(backend::Backend b, int threads) {
    backend::SetBackend(b);
    SetNumThreads(threads);
    EquiTensorConfig config = TinyTrainerConfig(TinyCity());
    EquiTensorTrainer trainer(config, slim_, &bundle_->race_map);
    trainer.Train();
    const auto& log = trainer.log();
    EXPECT_EQ(log.size(), 2u);
    for (const EpochLog& e : log) EXPECT_TRUE(e.fairness_audited);
    return TrajectoryHash(log);
  }

  static data::UrbanDataBundle* bundle_;
  static std::vector<data::AlignedDataset>* slim_;
};

data::UrbanDataBundle* GoldenTrajectoryTest::bundle_ = nullptr;
std::vector<data::AlignedDataset>* GoldenTrajectoryTest::slim_ = nullptr;

// Golden constants, generated at threads=1 on this repo's pinned
// toolchain. The scalar trajectory (reference) never depends on the
// SIMD code paths; the vector trajectory (fast) is additionally gated
// on the accelerator actually being active, since the fast kernels
// fall back to scalar loops otherwise.
constexpr uint64_t kScalarGolden = 0x96c23046d4c67d15ull;
constexpr uint64_t kVectorGolden = 0xca26f56a2f6d433full;

TEST_F(GoldenTrajectoryTest, EveryBackendReproducesItsGoldenHashPerThreadCount) {
  // The reference kernels are serial and every other op is shared with
  // the fast backend, whose runs below check thread-count invariance,
  // so one reference run stands for all thread counts.
  const uint64_t scalar_hash = Run(backend::Backend::kReference, 1);
  uint64_t vector_hash = 0;
  for (const int threads : {1, 2, 8}) {
    const uint64_t h = Run(backend::Backend::kFast, threads);
    if (threads == 1) vector_hash = h;
    EXPECT_EQ(h, vector_hash)
        << "fast at " << threads
        << " threads diverged from the vector-group trajectory";
  }

  std::printf("[golden] scalar=0x%llxull vector=0x%llxull simd_active=%d\n",
              static_cast<unsigned long long>(scalar_hash),
              static_cast<unsigned long long>(vector_hash),
              backend::SimdAcceleratorActive() ? 1 : 0);
  EXPECT_EQ(scalar_hash, kScalarGolden)
      << "scalar trajectory changed; if intentional, update kScalarGolden";
  if (backend::SimdAcceleratorActive()) {
    EXPECT_EQ(vector_hash, kVectorGolden)
        << "vector trajectory changed; if intentional, update kVectorGolden";
  } else {
    // Without the accelerator the fast kernels run their scalar
    // fallbacks, which are the reference expressions.
    EXPECT_EQ(vector_hash, kScalarGolden);
  }
}

}  // namespace
}  // namespace core
}  // namespace equitensor
