#include "common.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "core/fairness_metrics.h"
#include "core/serving.h"
#include "inputs.h"
#include "util/stopwatch.h"

namespace perfbench {

using equitensor::JsonValue;
namespace core = equitensor::core;
namespace data = equitensor::data;

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Result::Fail(const std::string& what, int64_t count) {
  failed += count;
  if (failures.size() < 8) failures.push_back(what);
}

void Result::CountPhase(const std::string& phase, int64_t phase_attempted,
                        int64_t phase_failed) {
  JsonValue counts = JsonValue::Object();
  counts.Set("attempted", JsonValue::Int(phase_attempted));
  counts.Set("succeeded", JsonValue::Int(phase_attempted - phase_failed));
  counts.Set("failed", JsonValue::Int(phase_failed));
  if (detail.Find("phases") == nullptr) {
    detail.Set("phases", JsonValue::Object());
  }
  JsonValue phases = *detail.Find("phases");
  phases.Set(phase, std::move(counts));
  detail.Set("phases", std::move(phases));
  attempted += phase_attempted;
}

JsonValue SummaryJson(const Summary& s) {
  JsonValue doc = JsonValue::Object();
  doc.Set("count", JsonValue::Int(s.count));
  doc.Set("median", JsonValue::Number(s.median));
  doc.Set("tail_q", JsonValue::Number(s.tail_q));
  doc.Set("tail", JsonValue::Number(s.tail));
  doc.Set("beyond", JsonValue::Int(s.beyond));
  return doc;
}

data::CityConfig MakeCity(uint64_t seed, const std::string& stream,
                          int64_t width, int64_t height, int64_t days) {
  data::CityConfig city;
  city.width = width;
  city.height = height;
  city.hours = 24 * days;
  city.seed = StreamSeed(seed, stream);
  return city;
}

core::EquiTensorConfig PaperConfig(uint64_t seed) {
  core::EquiTensorConfig config;
  config.cdae.grid_w = kGridWidth;
  config.cdae.grid_h = kGridHeight;
  config.cdae.encoder_filters = {8, 16, 1};  // equitensor_train's widths
  config.cdae.shared_filters = {8, 16};
  config.cdae.decoder_filters = {8, 16};
  config.cdae.disentangle = true;
  config.weighting = core::WeightingMode::kOurs;
  config.fairness = core::FairnessMode::kAdversarial;
  config.opt_loss_epochs = kLoptEpochs;
  config.opt_loss_steps_per_epoch = kLoptSteps;
  config.epochs = kTrainEpochs;
  config.steps_per_epoch = kTrainSteps;
  config.batch_size = kTrainBatch;
  config.seed = StreamSeed(seed, "train");
  return config;
}

bool BuildBundle(uint64_t seed, const std::string& path, Bundle* bundle,
                 std::string* error) {
  const data::UrbanDataBundle city = data::BuildSeattleAnalog(MakeCity(
      seed, "bundle_city", kBundleWidth, kBundleHeight, kBundleDays));
  // equitensor_train's default recipe, as bench_serving.sh runs it.
  core::EquiTensorConfig config;
  config.cdae.grid_w = kBundleWidth;
  config.cdae.grid_h = kBundleHeight;
  config.cdae.encoder_filters = {8, 16, 1};
  config.cdae.shared_filters = {8, 16};
  config.cdae.decoder_filters = {8, 16};
  config.epochs = kBundleEpochs;
  config.steps_per_epoch = kBundleSteps;
  config.batch_size = kBundleBatch;
  config.seed = StreamSeed(seed, "bundle_train");

  equitensor::Stopwatch watch;
  core::EquiTensorTrainer trainer(config, &city.datasets, nullptr);
  trainer.Train();
  bundle->z = trainer.Materialize();
  bundle->time_to_z_s = watch.ElapsedSeconds();
  bundle->recon_mae = trainer.EvaluateReconstructionError();
  bundle->fairness_corr = std::fabs(
      core::AuditRepresentation(bundle->z, city.race_map).correlation);

  core::ServingArtifacts artifacts;
  artifacts.z = bundle->z;
  artifacts.sensitive_map = city.race_map;
  artifacts.target = city.bikeshare;
  artifacts.target_scale = city.bikeshare_scale;
  artifacts.task_name = "bikeshare";
  artifacts.encoder = &trainer.model();
  if (!core::SaveServingCheckpoint(path, artifacts)) {
    *error = "SaveServingCheckpoint failed for " + path;
    return false;
  }
  bundle->path = path;
  return true;
}

core::GridTaskConfig DefaultServeTask() {
  core::GridTaskConfig task;
  task.history = 24;
  task.predictor.history = task.history;
  task.epochs = 4;
  task.steps_per_epoch = 20;
  task.batch_size = 8;
  task.seed = 123;
  return task;
}

double PeakRssMb(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
