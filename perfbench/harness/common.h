#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/downstream.h"
#include "core/equitensor.h"
#include "data/generators.h"
#include "spans.h"
#include "stats.h"
#include "util/json.h"

namespace perfbench {

/// What a run takes from the command line. Everything else about a
/// workload is a constant of the harness (below, and in serve.cc).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  double seconds = 15.0;  // run length; the serve phases scale with it
  std::string serve_bin;  // path to the equitensor_serve binary
  std::string work_dir;   // scratch directory for this run
  int nproc = 1;
};

/// The paper grid of train_paper_grid and the layer suite. The step
/// counts are cut from EquiTensorConfig's defaults (L(opt) 2 x 10 steps
/// per dataset, main loop 5 x 12) so a run fits its time budget;
/// perfbench/README.md gives the phase shares this changes.
constexpr int64_t kGridWidth = 32, kGridHeight = 20, kGridDays = 14;
constexpr int64_t kTrainEpochs = 2, kTrainSteps = 2, kTrainBatch = 4;
constexpr int64_t kLoptEpochs = 1, kLoptSteps = 1;

/// The serving bundle, at the bench_serving.sh scale.
constexpr int64_t kBundleWidth = 12, kBundleHeight = 10, kBundleDays = 10;
constexpr int64_t kBundleEpochs = 2, kBundleSteps = 4, kBundleBatch = 4;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run reports: metrics by name, operation counts, the checks'
/// failures, and a free-form detail document (phases, provenance).
struct Result {
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // first few mismatch descriptions
  equitensor::JsonValue detail = equitensor::JsonValue::Object();

  void Set(const std::string& name, double value, const std::string& unit);
  /// Counts `count` failed operations and keeps the first few reasons.
  void Fail(const std::string& what, int64_t count = 1);
  /// Records a phase's counts in the detail document and adds its
  /// attempts to the total (failures are counted through Fail).
  void CountPhase(const std::string& phase, int64_t attempted,
                  int64_t failed);
};

equitensor::JsonValue SummaryJson(const Summary& s);

/// The synthetic city behind a workload; its seed derives from the run
/// seed and `stream`.
equitensor::data::CityConfig MakeCity(uint64_t seed, const std::string& stream,
                                      int64_t width, int64_t height,
                                      int64_t days);

/// Full EquiTensor recipe: adaptive weighting `ours`, adversarial
/// fairness with disentangling, at equitensor_train's filter widths.
equitensor::core::EquiTensorConfig PaperConfig(uint64_t seed);

/// The serving bundle a serve workload loads: trained in-process at
/// the bench_serving.sh scale and written with SaveServingCheckpoint.
struct Bundle {
  std::string path;
  equitensor::Tensor z;
  double time_to_z_s = 0.0;
  double recon_mae = 0.0;
  double fairness_corr = 0.0;
};
bool BuildBundle(uint64_t seed, const std::string& path,
                 Bundle* bundle, std::string* error);

/// The daemon's default head-fit recipe (equitensor_serve flag
/// defaults), for the in-process reference model the checks use.
equitensor::core::GridTaskConfig DefaultServeTask();

/// Peak RSS (VmHWM) of `pid` in MB, 0 when unreadable.
double PeakRssMb(int pid);

void RunTrainWorkload(const Options& options, SpanLog* spans, Result* result);
void RunServeWorkload(const Options& options, SpanLog* spans, Result* result);
void RunLayerSuite(const Options& options, SpanLog* spans, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
