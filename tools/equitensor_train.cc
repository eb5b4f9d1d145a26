// Command-line EquiTensor trainer: build (or load) a city, train any
// of the model variants, and write the materialized representation and
// model checkpoint to disk. The operational entry point a downstream
// team would script against.
//
//   equitensor_train --city_seed=2026 --epochs=6 \
//       --fairness=adversarial --sensitive=race --lambda=2 \
//       --output_z=z.etck --output_model=model.etck

#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>

#include "core/equitensor.h"
#include "core/serving.h"
#include "core/telemetry.h"
#include "core/telemetry_server.h"
#include "data/generators.h"
#include "nn/backend_registry.h"
#include "nn/serialize.h"
#include "util/ascii_map.h"
#include "util/flags.h"
#include "util/perf_counters.h"
#include "util/profiler.h"
#include "util/shutdown.h"
#include "util/stopwatch.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/trace_export.h"

using namespace equitensor;

int main(int argc, char** argv) {
  FlagParser flags;
  flags.DefineInt("width", 12, "grid cells along x");
  flags.DefineInt("height", 10, "grid cells along y");
  flags.DefineInt("days", 30, "simulated horizon in days");
  flags.DefineInt("city_seed", 2026, "synthetic-city seed");
  flags.DefineDouble("bias", 1.0, "injected discriminatory-coupling strength");
  flags.DefineInt("latent", 5, "EquiTensor channels K");
  flags.DefineInt("epochs", 5, "training epochs");
  flags.DefineInt("steps", 12, "steps per epoch");
  flags.DefineInt("batch", 4, "minibatch size");
  flags.DefineString("weighting", "none",
                     "loss weighting: none | ours | dwa | uncertainty");
  flags.DefineDouble("alpha", 3.0, "adaptive-weighting temperature (Eq. 2)");
  flags.DefineString("fairness", "none",
                     "fairness mode: none | adversarial | grad_reversal");
  flags.DefineString("sensitive", "race", "sensitive attribute: race | income");
  flags.DefineDouble("lambda", 1.0, "fairness tradeoff (Eq. 5)");
  flags.DefineBool("disentangle", true,
                   "pass S to the decoder (disentangling module)");
  flags.DefineString("output_z", "equitensor_z.etck",
                     "path for the materialized representation");
  flags.DefineString("output_model", "", "optional model checkpoint path");
  flags.DefineString("output_serving", "",
                     "optional serving bundle for equitensor_serve: Z, the "
                     "--sensitive map, the bikeshare target, and the trained "
                     "encoder in one ETCK checkpoint (DESIGN.md §14)");
  flags.DefineInt("checkpoint_every", 0,
                  "write the full training state every N epochs (0 = off)");
  flags.DefineString("checkpoint_path", "train_state.etck",
                     "where --checkpoint_every writes the training state");
  flags.DefineString("resume", "",
                     "resume from a training-state checkpoint written by "
                     "--checkpoint_every (flags must match the original run)");
  flags.DefineBool("show_maps", false,
                   "print ASCII maps of the sensitive attribute and Z");
  flags.DefineString("metrics_jsonl", "",
                     "stream one JSON object per epoch (plus a final run "
                     "summary) to this path — DESIGN.md §10 schema");
  flags.DefineBool("progress", false,
                   "print a live per-epoch progress table");
  flags.DefineBool("trace", false,
                   "time the hot kernels with ET_TRACE_SPAN and report "
                   "per-span totals (small runtime overhead)");
  flags.DefineString("chrome_trace", "",
                     "record every span and write a chrome://tracing / "
                     "Perfetto JSON trace to this path (implies --trace)");
  flags.DefineString("profile", "",
                     "run the sampling CPU profiler for the whole run and "
                     "write folded stacks (flamegraph.pl input / "
                     "tools/profile_report) to this path; a top-N self/total "
                     "table prints at exit (DESIGN.md §17)");
  flags.DefineInt("profile_hz", 97,
                  "--profile sampling frequency in CPU-time samples per "
                  "second per busy thread");
  flags.DefineBool("counters", false,
                   "read hardware perf counters (cycles, instructions, "
                   "cache/branch misses) around every trace span and report "
                   "per-kernel IPC and miss rates (implies --trace; no-op "
                   "when perf_event_open is unavailable)");
  flags.DefineString("nan_check", "off",
                     "numerics sentinel: off | epoch | step — on the first "
                     "NaN/Inf, write a diagnostic bundle and abort with the "
                     "offending layer (DESIGN.md §11)");
  flags.DefineString("nan_bundle", "numerics_diagnostic.etck",
                     "where --nan_check writes its post-mortem bundle");
  flags.DefineBool("layer_stats", false,
                   "stream per-parameter grad/weight/update stats into the "
                   "--metrics_jsonl epoch records");
  flags.DefineInt("serve", -1,
                  "expose live telemetry over HTTP on this port while "
                  "training (-1 = off, 0 = pick an ephemeral port): "
                  "/metrics (Prometheus), /healthz, /status, /fairness");
  flags.DefineInt("serve_linger", 0,
                  "with --serve: keep the telemetry server up this many "
                  "seconds after training finishes (Ctrl-C ends early)");
  flags.DefineInt("train_seed", 7, "training seed");
  flags.DefineInt("threads", 0,
                  "worker threads for the parallel kernels "
                  "(0 = ET_THREADS env var, then all cores; 1 = serial)");
  flags.DefineString("backend", "",
                     "kernel backend: " + backend::BackendNameList() +
                         " (empty = ET_BACKEND env var, then fast; check "
                         "self-verifies every dispatch against reference)");

  if (!flags.Parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpText(
        "Train an EquiTensor over the synthetic-city inventory and save it.");
    return 0;
  }

  // Ctrl-C/SIGTERM stop training at the next epoch boundary (and cut a
  // telemetry linger short) instead of killing the process mid-write.
  InstallShutdownSignalHandlers();

  SetNumThreads(static_cast<int>(flags.GetInt("threads")));
  if (const std::string backend_name = flags.GetString("backend");
      !backend_name.empty()) {
    backend::Backend be;
    if (!backend::ParseBackend(backend_name, &be)) {
      std::cerr << "--backend=" << backend_name
                << " is not a backend (" << backend::BackendNameList() << ")\n";
      return 2;
    }
    backend::SetBackend(be);
  }
  std::cout << "kernel backend: " << backend::BackendName(backend::CurrentBackend())
            << (backend::SimdAcceleratorActive() ? " (avx2/fma)" : " (portable)")
            << "\n";
  const std::string chrome_trace_path = flags.GetString("chrome_trace");
  const bool want_counters = flags.GetBool("counters");
  const bool want_tracing =
      flags.GetBool("trace") || !chrome_trace_path.empty() || want_counters;
  SetTracingEnabled(want_tracing);
  if (want_counters) {
    SetPerfCountersEnabled(true);
    const std::string status = PerfCountersStatus();
    if (status != "ok") {
      std::cerr << "WARNING: --counters requested but hardware counters are "
                << status << "; spans will carry wall time only.\n";
    }
  }
  const std::string profile_path = flags.GetString("profile");
  if (!profile_path.empty()) {
    CpuProfileOptions profile_options;
    profile_options.hz = static_cast<int>(flags.GetInt("profile_hz"));
    // Whole-run captures outlive the default ring (~15 s of one busy
    // thread at 97 Hz): 1 Mi slots per ring covers ~10 min of busy
    // samples, 16 rings × 8 MiB caps the preallocation at 128 MiB.
    profile_options.ring_capacity = 1 << 20;
    profile_options.max_threads = 16;
    std::string error;
    if (!StartCpuProfile(profile_options, &error)) {
      std::cerr << "failed to start --profile capture: " << error << "\n";
      return 1;
    }
    std::cout << "CPU profiler sampling at " << profile_options.hz
              << " Hz -> " << profile_path << "\n";
  }
  if (want_tracing && !TraceCompiledIn()) {
    // Spans expand to no-ops in this build: honoring the flag silently
    // would hand the user an empty trace.
    std::cerr << "WARNING: --trace/--chrome_trace requested but this binary "
                 "was built with EQUITENSOR_TRACE=OFF; spans are compiled "
                 "out and no timings will be recorded. Rebuild with "
                 "-DEQUITENSOR_TRACE=ON.\n";
  }
  if (!chrome_trace_path.empty()) {
    SetTraceThreadName("main");
    StartTraceEventRecording();
  }
  core::NanCheckMode nan_mode = core::NanCheckMode::kOff;
  if (!core::ParseNanCheckMode(flags.GetString("nan_check"), &nan_mode)) {
    std::cerr << "unknown --nan_check " << flags.GetString("nan_check")
              << " (want off | epoch | step)\n";
    return 2;
  }

  data::CityConfig city;
  city.width = flags.GetInt("width");
  city.height = flags.GetInt("height");
  city.hours = 24 * flags.GetInt("days");
  city.seed = static_cast<uint64_t>(flags.GetInt("city_seed"));
  city.bias_strength = flags.GetDouble("bias");
  Stopwatch sw;
  std::cout << "Building city (" << city.width << "x" << city.height << ", "
            << city.hours << " h)...\n";
  const data::UrbanDataBundle bundle = data::BuildSeattleAnalog(city);
  std::cout << "  23 datasets aligned in " << sw.ElapsedSeconds() << " s\n";

  core::EquiTensorConfig config;
  config.cdae.grid_w = city.width;
  config.cdae.grid_h = city.height;
  config.cdae.latent_channels = flags.GetInt("latent");
  config.cdae.encoder_filters = {8, 16, 1};
  config.cdae.shared_filters = {8, 16};
  config.cdae.decoder_filters = {8, 16};
  config.epochs = flags.GetInt("epochs");
  config.steps_per_epoch = flags.GetInt("steps");
  config.batch_size = flags.GetInt("batch");
  config.alpha = flags.GetDouble("alpha");
  config.lambda = flags.GetDouble("lambda");
  config.seed = static_cast<uint64_t>(flags.GetInt("train_seed"));

  const std::string weighting = flags.GetString("weighting");
  if (weighting == "ours") {
    config.weighting = core::WeightingMode::kOurs;
  } else if (weighting == "dwa") {
    config.weighting = core::WeightingMode::kDwa;
  } else if (weighting == "uncertainty") {
    config.weighting = core::WeightingMode::kUncertainty;
  } else if (weighting != "none") {
    std::cerr << "unknown --weighting " << weighting << "\n";
    return 2;
  }
  const std::string fairness = flags.GetString("fairness");
  const Tensor* sensitive = nullptr;
  if (fairness != "none") {
    config.fairness = fairness == "adversarial"
                          ? core::FairnessMode::kAdversarial
                          : core::FairnessMode::kGradReversal;
    if (fairness != "adversarial" && fairness != "grad_reversal") {
      std::cerr << "unknown --fairness " << fairness << "\n";
      return 2;
    }
    config.cdae.disentangle = flags.GetBool("disentangle") &&
                              config.fairness == core::FairnessMode::kAdversarial;
    const std::string attr = flags.GetString("sensitive");
    if (attr == "race") {
      sensitive = &bundle.race_map;
    } else if (attr == "income") {
      sensitive = &bundle.income_map;
    } else {
      std::cerr << "unknown --sensitive " << attr << "\n";
      return 2;
    }
  }

  core::EquiTensorTrainer trainer(config, &bundle.datasets, sensitive);
  if (!flags.GetString("resume").empty()) {
    if (!trainer.LoadTrainingState(flags.GetString("resume"))) {
      std::cerr << "failed to resume from " << flags.GetString("resume")
                << " (see log for the mismatch)\n";
      return 1;
    }
    std::cout << "Resumed from " << flags.GetString("resume") << " at epoch "
              << trainer.completed_epochs() << "/" << config.epochs << "\n";
  }
  if (flags.GetInt("checkpoint_every") > 0) {
    trainer.SetCheckpointing(flags.GetString("checkpoint_path"),
                             flags.GetInt("checkpoint_every"));
  }
  core::TrainTelemetry telemetry;
  const std::string jsonl_path = flags.GetString("metrics_jsonl");
  if (!jsonl_path.empty() && !telemetry.OpenJsonl(jsonl_path)) {
    std::cerr << "failed to open --metrics_jsonl " << jsonl_path << "\n";
    return 1;
  }
  if (flags.GetBool("progress")) telemetry.EnableProgress(&std::cout);
  core::TelemetryServer server;
  if (flags.GetInt("serve") >= 0) {
    std::string error;
    if (!server.Start(static_cast<int>(flags.GetInt("serve")), &error)) {
      std::cerr << "failed to start telemetry server: " << error << "\n";
      return 1;
    }
    // The port line is machine-read (scripts/check.sh smoke test greps
    // it to find an ephemeral --serve=0 port); keep the format stable.
    std::cout << "Telemetry server listening on port " << server.port()
              << "\n";
    std::cout.flush();
    telemetry.AttachServer(&server);
  }
  trainer.SetTelemetry(&telemetry);
  trainer.SetLayerStatsEnabled(flags.GetBool("layer_stats"));
  trainer.SetNumericsChecking(nan_mode, flags.GetString("nan_bundle"));
  if (nan_mode != core::NanCheckMode::kOff) {
    std::cout << "Numerics sentinel armed (--nan_check="
              << core::NanCheckModeName(nan_mode) << ", bundle -> "
              << flags.GetString("nan_bundle") << ")\n";
  }

  std::cout << "Training " << core::FairnessModeName(config.fairness) << "/"
            << core::WeightingModeName(config.weighting) << " model ("
            << trainer.model().ParameterCount() << " parameters, "
            << NumThreads() << " thread(s))...\n";
  sw.Restart();
  trainer.Train();
  telemetry.Finish(sw.ElapsedSeconds(), trainer.completed_epochs());
  if (ShutdownRequested() && trainer.completed_epochs() < config.epochs) {
    std::cout << "Interrupted: completed " << trainer.completed_epochs()
              << "/" << config.epochs << " epochs\n";
  }
  if (!flags.GetBool("progress")) {
    for (const core::EpochLog& epoch : trainer.log()) {
      std::cout << "  epoch " << epoch.epoch << ": recon "
                << TextTable::Num(epoch.total_loss, 4);
      if (config.fairness != core::FairnessMode::kNone) {
        std::cout << ", adversary " << TextTable::Num(epoch.adversary_loss, 4);
      }
      std::cout << "\n";
    }
  }
  std::cout << "Trained in " << sw.ElapsedSeconds() << " s\n";
  if (!jsonl_path.empty()) {
    std::cout << "Wrote telemetry -> " << jsonl_path << "\n";
  }
  if (flags.GetBool("trace") && !flags.GetBool("progress")) {
    std::cout << TraceReportTable();
  }
  if (!chrome_trace_path.empty()) {
    const std::vector<TraceEvent> events = StopTraceEventRecording();
    if (!WriteChromeTrace(chrome_trace_path, events, TraceThreadNames())) {
      std::cerr << "failed to write --chrome_trace " << chrome_trace_path
                << "\n";
      return 1;
    }
    std::cout << "Wrote chrome trace (" << events.size() << " events";
    if (DroppedTraceEventCount() > 0) {
      std::cout << ", " << DroppedTraceEventCount() << " dropped";
    }
    std::cout << ") -> " << chrome_trace_path << "\n";
  }

  const Tensor z = trainer.Materialize();
  if (!nn::SaveTensor(flags.GetString("output_z"), z)) {
    std::cerr << "failed to write " << flags.GetString("output_z") << "\n";
    return 1;
  }
  std::cout << "Wrote Z " << z.ShapeString() << " -> "
            << flags.GetString("output_z") << "\n";
  if (!flags.GetString("output_model").empty()) {
    if (!nn::SaveModule(flags.GetString("output_model"), trainer.model())) {
      std::cerr << "failed to write model checkpoint\n";
      return 1;
    }
    std::cout << "Wrote model -> " << flags.GetString("output_model") << "\n";
  }
  if (!flags.GetString("output_serving").empty()) {
    core::ServingArtifacts artifacts;
    artifacts.z = z;
    // The serving fairness audit uses the --sensitive attribute even
    // when training ran without a fairness mode.
    artifacts.sensitive_map = flags.GetString("sensitive") == "income"
                                  ? bundle.income_map
                                  : bundle.race_map;
    artifacts.target = bundle.bikeshare;
    artifacts.target_scale = bundle.bikeshare_scale;
    artifacts.task_name = "bikeshare";
    artifacts.encoder = &trainer.model();
    if (!core::SaveServingCheckpoint(flags.GetString("output_serving"),
                                     artifacts)) {
      std::cerr << "failed to write --output_serving "
                << flags.GetString("output_serving") << "\n";
      return 1;
    }
    std::cout << "Wrote serving bundle -> " << flags.GetString("output_serving")
              << "\n";
  }

  if (server.running() && flags.GetInt("serve_linger") > 0) {
    const int64_t linger = flags.GetInt("serve_linger");
    std::cout << "Serving telemetry for up to " << linger
              << " s (Ctrl-C to stop)...\n";
    std::cout.flush();
    Stopwatch linger_watch;
    while (!ShutdownRequested() &&
           linger_watch.ElapsedSeconds() < static_cast<double>(linger)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  // Explicit stop (the destructor would too): closes the listen socket
  // and joins every server thread, so no socket outlives main.
  server.Stop();

  if (!profile_path.empty() && CpuProfileActive()) {
    CpuProfile profile;
    std::string error;
    if (!StopCpuProfile(&profile, &error)) {
      std::cerr << "failed to stop --profile capture: " << error << "\n";
      return 1;
    }
    std::ofstream out(profile_path, std::ios::binary);
    out << profile.folded;
    if (!out.good()) {
      std::cerr << "failed to write --profile " << profile_path << "\n";
      return 1;
    }
    out.close();
    std::cout << "Wrote CPU profile (" << profile.samples << " samples, "
              << TextTable::Num(100.0 * ProfileSymbolizedFraction(profile), 1)
              << "% symbolized";
    if (profile.dropped_samples > 0) {
      std::cout << ", " << profile.dropped_samples << " dropped";
    }
    std::cout << ") -> " << profile_path << "\n";
    const std::string report = ProfileReportTable(profile.folded, 12);
    if (!report.empty()) std::cout << report;
  }

  if (flags.GetBool("show_maps") && sensitive != nullptr) {
    Tensor z_mean({city.width, city.height});
    const int64_t t_total = z.dim(3);
    for (int64_t i = 0; i < city.width * city.height; ++i) {
      double sum = 0.0;
      for (int64_t t = 0; t < t_total; ++t) sum += z[i * t_total + t];
      z_mean[i] = static_cast<float>(sum / static_cast<double>(t_total));
    }
    std::cout << "\n"
              << RenderAsciiMaps({*sensitive, z_mean},
                                 {"sensitive attribute", "Z channel 0 (mean)"});
  }
  return 0;
}
