// train_paper_grid: the full EquiTensor (adaptive weighting `ours` with
// its 23 single-dataset L(opt) CDAEs, adversarial fairness with
// disentangling) at the paper's 32x20 grid, driven through the public
// EquiTensorTrainer API, then Materialize() and SaveServingCheckpoint.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <streambuf>
#include <unistd.h>

#include "common.h"
#include "core/fairness_metrics.h"
#include "core/serving.h"
#include "core/telemetry.h"
#include "nn/serialize.h"
#include "util/stopwatch.h"

namespace perfbench {

using equitensor::JsonValue;
using equitensor::Stopwatch;
using equitensor::Tensor;
namespace core = equitensor::core;
namespace data = equitensor::data;

namespace {

// Set-up is short (~0.15 s), so it is repeated often enough for a
// steady median.
constexpr int kSetupReps = 11;

/// Timestamps every line the trainer's progress stream writes; the
/// trainer prints one row per finished epoch (after a header line).
class LineClock : public std::streambuf {
 public:
  std::vector<int64_t> line_ns;

 protected:
  int overflow(int c) override {
    if (c == '\n') line_ns.push_back(NowNs());
    return c;
  }
};

bool AllFinite(const Tensor& t) {
  for (int64_t i = 0; i < t.size(); ++i) {
    if (!std::isfinite(t[i])) return false;
  }
  return true;
}

/// FNV-1a over the bytes of every logged loss, in epoch order.
std::string LossDigest(const std::vector<core::EpochLog>& log) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](double v) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&v);
    for (size_t i = 0; i < sizeof(v); ++i) h = (h ^ bytes[i]) * 0x100000001B3ULL;
  };
  for (const core::EpochLog& entry : log) {
    for (double loss : entry.dataset_losses) mix(loss);
    mix(entry.total_loss);
    mix(entry.adversary_loss);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace

void RunTrainWorkload(const Options& o, SpanLog* spans, Result* r) {
  const data::CityConfig city_config =
      MakeCity(o.seed, "city", kGridWidth, kGridHeight, kGridDays);
  core::EquiTensorConfig config = PaperConfig(o.seed);

  // Set-up: build the city and construct the trainer, several times.
  std::vector<double> setup_s;
  data::UrbanDataBundle city;
  std::unique_ptr<core::EquiTensorTrainer> estimator;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    estimator.reset();
    Stopwatch watch;
    {
      ScopedSpan span(spans, "data.BuildSeattleAnalog");
      city = data::BuildSeattleAnalog(city_config);
    }
    {
      ScopedSpan span(spans, "trainer.construct");
      estimator = std::make_unique<core::EquiTensorTrainer>(
          config, &city.datasets, &city.race_map);
    }
    setup_s.push_back(watch.ElapsedSeconds());
  }

  // L(opt) estimation, then the main loop on a trainer that reuses it
  // (the public estimate-once path; estimation draws from its own RNG
  // streams, so the trajectory equals a single Train() call's).
  Stopwatch to_z;
  {
    ScopedSpan span(spans, "weighting.EstimateOptimalLosses");
    config.precomputed_optimal_losses = estimator->EstimateOptimalLosses();
  }
  const double lopt_s = to_z.ElapsedSeconds();
  std::unique_ptr<core::EquiTensorTrainer> trainer;
  {
    ScopedSpan span(spans, "trainer.construct");
    trainer = std::make_unique<core::EquiTensorTrainer>(
        config, &city.datasets, &city.race_map);
  }
  LineClock clock;
  std::ostream progress(&clock);
  core::TrainTelemetry telemetry;
  telemetry.EnableProgress(&progress);
  trainer->SetTelemetry(&telemetry);
  const int64_t train_start = NowNs();
  {
    ScopedSpan span(spans, "trainer.Train");
    trainer->Train();
  }
  const double main_s = (NowNs() - train_start) * 1e-9;
  trainer->SetTelemetry(nullptr);
  Tensor z;
  {
    ScopedSpan span(spans, "trainer.Materialize");
    z = trainer->Materialize();
  }
  const double time_to_z_s = to_z.ElapsedSeconds();

  const std::string path = o.work_dir + "/paper_grid.etck";
  core::ServingArtifacts artifacts;
  artifacts.z = z;
  artifacts.sensitive_map = city.race_map;
  artifacts.target = city.bikeshare;
  artifacts.target_scale = city.bikeshare_scale;
  artifacts.encoder = &trainer->model();
  bool saved = false;
  {
    ScopedSpan span(spans, "serialize.SaveServingCheckpoint");
    saved = core::SaveServingCheckpoint(path, artifacts);
  }
  const double recon_mae = trainer->EvaluateReconstructionError();
  const double corr =
      std::fabs(core::AuditRepresentation(z, city.race_map).correlation);

  // Checks: finite losses and Z, and the checkpoint holds this Z.
  const auto& log = trainer->log();
  int64_t train_failed = 0;
  if (static_cast<int64_t>(log.size()) != config.epochs) {
    r->Fail("trainer logged " + std::to_string(log.size()) + " epochs");
    ++train_failed;
  }
  for (const core::EpochLog& entry : log) {
    bool finite = std::isfinite(entry.total_loss) &&
                  std::isfinite(entry.adversary_loss);
    for (double loss : entry.dataset_losses) finite &= std::isfinite(loss);
    if (!finite) {
      r->Fail("non-finite loss in epoch " + std::to_string(entry.epoch));
      ++train_failed;
    }
  }
  int64_t z_failed = 0;
  if (!AllFinite(z) || !std::isfinite(recon_mae)) {
    r->Fail("non-finite Z or reconstruction error");
    ++z_failed;
  }
  equitensor::nn::Checkpoint reloaded;
  const Tensor* saved_z = nullptr;
  if (saved && equitensor::nn::LoadCheckpoint(path, &reloaded)) {
    saved_z = reloaded.FindTensor("z");
  }
  if (saved_z == nullptr || saved_z->shape() != z.shape() ||
      std::memcmp(saved_z->data(), z.data(), sizeof(float) * z.size()) != 0) {
    r->Fail("serving checkpoint does not hold the materialized Z");
    ++z_failed;
  }
  std::remove(path.c_str());

  const int64_t samples = config.epochs * config.steps_per_epoch *
                          config.batch_size;
  // Epoch latencies: first row after the header closes epoch 1.
  std::vector<double> epoch_ms;
  int64_t prev = train_start;
  for (size_t i = 1; i < clock.line_ns.size(); ++i) {
    epoch_ms.push_back((clock.line_ns[i] - prev) * 1e-6);
    prev = clock.line_ns[i];
  }
  const Summary epochs = Summarize(epoch_ms);

  r->CountPhase("train_steps", config.epochs * config.steps_per_epoch,
                train_failed);
  r->CountPhase("materialize_save", 1, z_failed);
  r->Set("setup_s", Median(setup_s), "s");
  r->Set("peak_rss_mb", PeakRssMb(getpid()), "MB");
  r->Set("throughput_per_s", static_cast<double>(samples) / main_s, "1/s");
  r->Set("latency_p50_ms", epochs.median, "ms");
  r->Set("latency_tail_ms", epochs.tail, "ms");
  r->Set("time_to_z_s", time_to_z_s, "s");
  r->Set("quality.recon_mae", recon_mae, "mae");
  r->Set("quality.z_fairness_corr", corr, "abs_corr");

  JsonValue train = JsonValue::Object();
  train.Set("samples", JsonValue::Int(samples));
  train.Set("lopt_s", JsonValue::Number(lopt_s));
  train.Set("main_loop_s", JsonValue::Number(main_s));
  train.Set("epoch_ms", SummaryJson(epochs));
  train.Set("loss_digest", JsonValue::Str(LossDigest(log)));
  train.Set("z_shape", JsonValue::Str(z.ShapeString()));
  JsonValue setups = JsonValue::Array();
  for (double s : setup_s) setups.Append(JsonValue::Number(s));
  train.Set("setup_s", std::move(setups));
  r->detail.Set("train", std::move(train));
}

}  // namespace perfbench
