// Batched, hot-reloadable inference daemon over a trained EquiTensor
// (DESIGN.md §14). Loads a serving bundle written by
// `equitensor_train --output_serving`, fits the downstream head
// deterministically, and answers /embed, /predict, /fairness,
// /status, /healthz, and /metrics over HTTP until SIGINT/SIGTERM.
// SIGHUP re-reads the checkpoint and atomically swaps the model;
// in-flight requests finish on the generation they started with.
//
// Request observability (DESIGN.md §16): per-stage latency histograms
// on /metrics, live /debug/requests | /debug/slow | /debug/stages,
// a sampled JSONL access log (--access_log), and a chrome-trace dump
// of serving spans (--serve_chrome_trace).
//
//   equitensor_serve --checkpoint=serving.etck --port=8080
//       --access_log=access.jsonl --slow_ms=100

#include <cstdio>
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>

#include "core/serving.h"
#include "nn/backend_registry.h"
#include "util/flags.h"
#include "util/perf_counters.h"
#include "util/profiler.h"
#include "util/shutdown.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/trace_export.h"

using namespace equitensor;

int main(int argc, char** argv) {
  FlagParser flags;
  flags.DefineString("checkpoint", "serving.etck",
                     "serving bundle written by equitensor_train "
                     "--output_serving");
  flags.DefineInt("port", 8080, "HTTP port (0 = pick an ephemeral port)");
  flags.DefineInt("max_batch", 8,
                  "coalesce up to this many queued /predict requests into "
                  "one batched forward (1 = no batching; responses are "
                  "bitwise identical either way)");
  flags.DefineInt("batch_window_ms", 2,
                  "how long the batcher waits for the batch to fill");
  flags.DefineInt("cache_capacity", 4096,
                  "LRU capacity of the /embed response cache (0 = off)");
  flags.DefineInt("workers", 8,
                  "HTTP worker threads (one keep-alive connection each)");
  flags.DefineInt("history", 24, "target history hours fed to the predictor");
  flags.DefineInt("task_epochs", 4, "epochs for the predictor-head fit");
  flags.DefineInt("task_steps", 20, "steps per epoch for the head fit");
  flags.DefineInt("task_batch", 8, "minibatch size for the head fit");
  flags.DefineInt("task_seed", 123,
                  "head-fit seed; two daemons with equal flags and "
                  "checkpoint serve bitwise-identical predictions");
  flags.DefineInt("threads", 0,
                  "worker threads for the parallel kernels "
                  "(0 = ET_THREADS env var, then all cores; 1 = serial)");
  flags.DefineString("backend", "",
                     "kernel backend: " + backend::BackendNameList() +
                         " (empty = ET_BACKEND env var, then fast)");
  flags.DefineBool("observe", true,
                   "record per-request stage timelines (histograms, "
                   "/debug endpoints, access log); false = bare-metal "
                   "baseline for overhead measurement");
  flags.DefineString("access_log", "",
                     "append sampled request timelines as JSONL here");
  flags.DefineInt("access_log_every", 1,
                  "log every Nth request (1 = all, 0 = only slow ones; "
                  "slow requests always log)");
  flags.DefineDouble("slow_ms", 250.0,
                     "requests slower than this always hit the access "
                     "log and the /debug/slow table");
  flags.DefineInt("debug_ring", 64,
                  "how many recent request timelines /debug/requests "
                  "keeps");
  flags.DefineString("latency_buckets", "",
                     "request-histogram layout start_us:growth:count "
                     "(e.g. 10:2:20 = 10 us x2 for 20 edges; empty = "
                     "that default)");
  flags.DefineString("serve_chrome_trace", "",
                     "write serving spans as a chrome://tracing JSON "
                     "file at shutdown");
  flags.DefineString("profile", "",
                     "sample the daemon's CPU for its whole lifetime and "
                     "write folded stacks here at shutdown; live captures "
                     "are also available any time via GET "
                     "/debug/profile?seconds=N (DESIGN.md §17)");
  flags.DefineInt("profile_hz", 97,
                  "--profile sampling frequency in CPU-time samples per "
                  "second per busy thread");
  flags.DefineBool("counters", false,
                   "read hardware perf counters around every trace span and "
                   "expose per-kernel IPC/miss rates on /metrics and "
                   "/debug/counters (implies tracing; no-op when "
                   "perf_event_open is unavailable)");

  if (!flags.Parse(argc, argv)) {
    std::cerr << flags.error() << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpText(
        "Serve a trained EquiTensor over HTTP (batched, hot-reloadable).");
    return 0;
  }

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

  core::ServingService::Options options;
  options.checkpoint_path = flags.GetString("checkpoint");
  options.task.history = flags.GetInt("history");
  options.task.predictor.history = options.task.history;
  options.task.epochs = flags.GetInt("task_epochs");
  options.task.steps_per_epoch = flags.GetInt("task_steps");
  options.task.batch_size = flags.GetInt("task_batch");
  options.task.seed = static_cast<uint64_t>(flags.GetInt("task_seed"));
  options.batch.max_batch = flags.GetInt("max_batch");
  options.batch.window_ms = flags.GetInt("batch_window_ms");
  options.cache_capacity =
      static_cast<size_t>(std::max<int64_t>(0, flags.GetInt("cache_capacity")));
  options.http.worker_threads = static_cast<int>(flags.GetInt("workers"));
  options.observe = flags.GetBool("observe");
  options.observability.access_log_path = flags.GetString("access_log");
  options.observability.sample_every =
      static_cast<int>(std::max<int64_t>(0, flags.GetInt("access_log_every")));
  options.observability.slow_threshold_ms = flags.GetDouble("slow_ms");
  options.observability.ring_capacity = static_cast<size_t>(
      std::max<int64_t>(1, flags.GetInt("debug_ring")));
  if (const std::string layout = flags.GetString("latency_buckets");
      !layout.empty()) {
    double start_us = 0.0;
    double growth = 0.0;
    int count = 0;
    if (std::sscanf(layout.c_str(), "%lf:%lf:%d", &start_us, &growth,
                    &count) != 3 ||
        start_us <= 0.0 || growth <= 1.0 || count < 1) {
      std::cerr << "--latency_buckets=" << layout
                << " is not start_us:growth:count (e.g. 10:2:20)\n";
      return 2;
    }
    options.observability.latency_bounds =
        Histogram::ExponentialBounds(start_us * 1e-6, growth, count);
    // Keep the per-span kernel histograms on the same grid so /metrics
    // reads consistently (capped at the trace layer's 16 edges).
    ConfigureTraceHistogram(start_us * 1e-6, growth, count);
  }

  if (flags.GetBool("counters")) {
    SetTracingEnabled(true);
    SetPerfCountersEnabled(true);
    const std::string status = PerfCountersStatus();
    if (status != "ok") {
      std::cerr << "warning: --counters requested but hardware counters are "
                << status << "; spans will carry wall time only\n";
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
    std::string profile_error;
    if (!StartCpuProfile(profile_options, &profile_error)) {
      std::cerr << "failed to start --profile capture: " << profile_error
                << "\n";
      return 1;
    }
    std::cout << "CPU profiler sampling at " << profile_options.hz
              << " Hz -> " << profile_path << "\n";
  }

  const std::string chrome_trace = flags.GetString("serve_chrome_trace");
  if (!chrome_trace.empty()) {
    if (!TraceCompiledIn()) {
      std::cerr << "warning: --serve_chrome_trace requested but tracing is "
                   "compiled out (ET_DISABLE_TRACING); no trace will be "
                   "written\n";
    } else {
      SetTracingEnabled(true);
      StartTraceEventRecording();
    }
  }

  core::ServingService service(options);
  Stopwatch sw;
  std::cout << "Loading " << options.checkpoint_path
            << " (fitting predictor head)...\n";
  std::string error;
  if (!service.LoadInitial(&error)) {
    std::cerr << "failed to load serving checkpoint: " << error << "\n";
    return 1;
  }
  {
    const auto model = service.model();
    std::cout << "  generation 1: Z " << model->z().ShapeString() << ", "
              << model->parameter_count() << " parameters, predict t in ["
              << model->predict_t_min() << ", " << model->predict_t_max()
              << "], corr(Z,S) " << model->base_audit().correlation
              << " (loaded in " << sw.ElapsedSeconds() << " s)\n";
  }

  // SIGINT/SIGTERM wind the daemon down; SIGHUP bumps the reload
  // counter which the poll loop below turns into Reload().
  InstallShutdownSignalHandlers();
  InstallReloadSignalHandler();

  if (!service.Start(static_cast<int>(flags.GetInt("port")), &error)) {
    std::cerr << "failed to start server: " << error << "\n";
    return 1;
  }
  // Machine-read line (tests and scripts/check.sh grep it to find an
  // ephemeral --port=0 port); keep the format stable.
  std::cout << "Serving on port " << service.port() << "\n";
  std::cout.flush();

  uint64_t acted_reloads = ReloadRequestCount();
  while (!ShutdownRequested()) {
    const uint64_t pending = ReloadRequestCount();
    if (pending != acted_reloads) {
      // Coalesce: one reload covers every SIGHUP that arrived so far.
      acted_reloads = pending;
      sw.Restart();
      std::string why;
      if (service.Reload(&why)) {
        const auto model = service.model();
        std::cout << "Reloaded generation " << service.generation() << " in "
                  << sw.ElapsedSeconds() << " s (Z "
                  << model->z().ShapeString() << ")\n";
      } else {
        std::cout << "Reload failed, keeping generation "
                  << service.generation() << ": " << why << "\n";
      }
      std::cout.flush();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::cout << "Shutting down (served " << service.http().requests_served()
            << " requests, " << service.reloads() << " reloads)\n";
  service.Stop();

  if (!chrome_trace.empty() && TraceCompiledIn()) {
    const std::vector<TraceEvent> events = StopTraceEventRecording();
    if (WriteChromeTrace(chrome_trace, events, TraceThreadNames())) {
      std::cout << "Wrote " << events.size() << " trace events to "
                << chrome_trace << "\n";
    } else {
      std::cerr << "failed to write chrome trace: " << chrome_trace << "\n";
    }
  }

  if (!profile_path.empty()) {
    CpuProfile profile;
    std::string profile_error;
    if (!StopCpuProfile(&profile, &profile_error)) {
      std::cerr << "failed to stop --profile capture: " << profile_error
                << "\n";
    } else {
      std::ofstream out(profile_path,
                        std::ios::out | std::ios::trunc | std::ios::binary);
      out << profile.folded;
      if (!out) {
        std::cerr << "failed to write CPU profile to " << profile_path
                  << "\n";
      } else {
        std::cout << "Wrote CPU profile (" << profile.samples << " samples, "
                  << static_cast<int>(ProfileSymbolizedFraction(profile) *
                                      100.0)
                  << "% symbolized";
        if (profile.dropped_samples > 0) {
          std::cout << ", " << profile.dropped_samples << " dropped";
        }
        std::cout << ") -> " << profile_path << "\n";
        const std::string table = ProfileReportTable(profile.folded, 12);
        if (!table.empty()) std::cout << table;
      }
    }
  }
  return 0;
}
