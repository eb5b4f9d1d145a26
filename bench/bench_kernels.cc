// Micro-benchmarks (google-benchmark) for the numerical kernels that
// dominate EquiTensor training: the three convolutions (forward and
// backward-through-loss), matmul, the LSTM step, the rasterizers, and
// the pre-processing primitives.

#include <benchmark/benchmark.h>

#include <memory>

#include "autograd/conv_ops.h"
#include "autograd/hooks.h"
#include "autograd/ops.h"
#include "data/preprocess.h"
#include "geo/rasterize.h"
#include "models/cdae.h"
#include "nn/backend_registry.h"
#include "nn/kernels_simd.h"
#include "nn/layers.h"
#include "nn/lstm.h"
#include "tensor/tensor_ops.h"
#include "util/metrics.h"
#include "util/perf_counters.h"
#include "util/profiler.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace equitensor {
namespace {

// The conv/matmul benches sweep the pool size (Arg = thread count) so
// one run records the scaling curve; results are bitwise-identical
// across the sweep (see util/thread_pool.h). Each bench restores the
// serial default so later benches are unaffected.
class ThreadArg {
 public:
  explicit ThreadArg(const benchmark::State& state) {
    SetNumThreads(static_cast<int>(state.range(0)));
  }
  ~ThreadArg() { SetNumThreads(1); }
};

constexpr int kThreadSweep[] = {1, 2, 4, 8};

// Process-wide CPU time: the default CPU column only charges the main
// thread, which understates multi-thread cost. Real time stays the
// headline number for speedup comparisons.
void ThreadSweep(benchmark::internal::Benchmark* b) {
  for (int t : kThreadSweep) b->Arg(t);
  b->MeasureProcessCPUTime()->UseRealTime();
}

void BM_Conv1dForward(benchmark::State& state) {
  ThreadArg threads(state);
  Rng rng(1);
  Variable x(Tensor::RandomUniform({4, 16, 24}, rng), false);
  Variable w(Tensor::RandomUniform({32, 16, 3}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::Conv1d(x, w).value().data());
  }
}
BENCHMARK(BM_Conv1dForward)->Apply(ThreadSweep);

void BM_Conv1dBackward(benchmark::State& state) {
  ThreadArg threads(state);
  Rng rng(11);
  Tensor x = Tensor::RandomUniform({4, 16, 240}, rng);
  Variable w(Tensor::RandomUniform({32, 16, 3}, rng), true);
  Tensor target({4, 32, 240}, 0.1f);
  for (auto _ : state) {
    w.ZeroGrad();
    Variable xv(x, true);
    Variable loss = ag::MaeAgainst(ag::Conv1d(xv, w), target);
    Backward(loss);  // Exercises both the gx and gw passes.
    benchmark::DoNotOptimize(w.grad().data());
    benchmark::DoNotOptimize(xv.grad().data());
  }
}
BENCHMARK(BM_Conv1dBackward)->Apply(ThreadSweep);

void BM_Conv2dBackward(benchmark::State& state) {
  ThreadArg threads(state);
  Rng rng(12);
  Tensor x = Tensor::RandomUniform({4, 16, 12, 10}, rng);
  Variable w(Tensor::RandomUniform({32, 16, 3, 3}, rng), true);
  Tensor target({4, 32, 12, 10}, 0.1f);
  for (auto _ : state) {
    w.ZeroGrad();
    Variable xv(x, true);
    Variable loss = ag::MaeAgainst(ag::Conv2d(xv, w), target);
    Backward(loss);
    benchmark::DoNotOptimize(w.grad().data());
    benchmark::DoNotOptimize(xv.grad().data());
  }
}
BENCHMARK(BM_Conv2dBackward)->Apply(ThreadSweep);

// --- fast backend sweep --------------------------------------------
//
// The BM_*Fast benches pin the fast backend (im2col + blocked GEMM
// base kernels, fused graph schedule) whatever ET_BACKEND says; the
// unsuffixed conv benches above and the overhead probes below run the
// process default, which is also `fast` unless ET_BACKEND overrides
// it. Selection is restored so later benches keep the default.
class BackendArg {
 public:
  explicit BackendArg(backend::Backend b) : prev_(backend::CurrentBackend()) {
    backend::SetBackend(b);
  }
  ~BackendArg() { backend::SetBackend(prev_); }

 private:
  backend::Backend prev_;
};

void BM_Conv2dForwardFast(benchmark::State& state) {
  BackendArg be(backend::Backend::kFast);
  ThreadArg threads(state);
  Rng rng(2);
  Variable x(Tensor::RandomUniform({4, 16, 12, 10}, rng), false);
  Variable w(Tensor::RandomUniform({32, 16, 3, 3}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::Conv2d(x, w).value().data());
  }
}
BENCHMARK(BM_Conv2dForwardFast)->Apply(ThreadSweep);

void BM_Conv3dForwardFast(benchmark::State& state) {
  BackendArg be(backend::Backend::kFast);
  ThreadArg threads(state);
  Rng rng(3);
  Variable x(Tensor::RandomUniform({2, 8, 12, 10, 24}, rng), false);
  Variable w(Tensor::RandomUniform({16, 8, 3, 3, 3}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::Conv3d(x, w).value().data());
  }
}
BENCHMARK(BM_Conv3dForwardFast)->Apply(ThreadSweep);

void BM_Conv3dTrainStepFast(benchmark::State& state) {
  BackendArg be(backend::Backend::kFast);
  ThreadArg threads(state);
  Rng rng(4);
  Tensor x = Tensor::RandomUniform({2, 8, 12, 10, 24}, rng);
  Variable w(Tensor::RandomUniform({16, 8, 3, 3, 3}, rng), true);
  Tensor target({2, 16, 12, 10, 24}, 0.1f);
  for (auto _ : state) {
    w.ZeroGrad();
    Variable loss = ag::MaeAgainst(ag::Conv3d(Variable(x), w), target);
    Backward(loss);
    benchmark::DoNotOptimize(w.grad().data());
  }
}
BENCHMARK(BM_Conv3dTrainStepFast)->Apply(ThreadSweep);

// --- fused schedule ---------------------------------------------------
//
// BM_ConvBiasActFast runs conv+bias+activation as one fused kernel
// call; BM_ConvBiasActFastEager is the eager op chain over the same
// base kernels on the identical shape, so the pair isolates the
// epilogue fusion win. BM_CdaeTrainStepFast is the model-level number
// (the sealed graph schedule, with the CDAE's dataset concat folded
// into the shared encoder's input gather).

void BM_ConvBiasActFastEager(benchmark::State& state) {
  BackendArg be(backend::Backend::kFast);
  ThreadArg threads(state);
  Rng rng(5);
  Variable x(Tensor::RandomUniform({2, 8, 12, 10, 24}, rng), false);
  Variable w(Tensor::RandomUniform({16, 8, 3, 3, 3}, rng), false);
  Variable b(Tensor::RandomUniform({16}, rng), false);
  for (auto _ : state) {
    Variable y = nn::Activate(ag::AddBias(ag::Conv3d(x, w), b, 1),
                              nn::Activation::kRelu);
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_ConvBiasActFastEager)->Apply(ThreadSweep);

void BM_ConvBiasActFast(benchmark::State& state) {
  BackendArg be(backend::Backend::kFast);
  ThreadArg threads(state);
  Rng rng(5);
  Variable x(Tensor::RandomUniform({2, 8, 12, 10, 24}, rng), false);
  Variable w(Tensor::RandomUniform({16, 8, 3, 3, 3}, rng), false);
  Variable b(Tensor::RandomUniform({16}, rng), false);
  for (auto _ : state) {
    Variable y = ag::ConvBiasAct(x, w, b, backend::Act::kRelu);
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_ConvBiasActFast)->Apply(ThreadSweep);

// One full CDAE train step (encode through the per-dataset encoders,
// concat, shared encoder, decode, summed MAE, backward) on a
// paper-shaped grid, through the sealed graph schedule.
models::CdaeConfig BenchCdaeConfig() {
  models::CdaeConfig config;
  config.grid_w = 12;
  config.grid_h = 10;
  config.window = 24;
  config.latent_channels = 2;
  config.encoder_filters = {8, 1};
  config.shared_filters = {8};
  config.decoder_filters = {8};
  return config;
}

void BM_CdaeTrainStepFast(benchmark::State& state) {
  BackendArg be(backend::Backend::kFast);
  ThreadArg threads(state);
  Rng rng(6);
  const std::vector<models::DatasetSpec> specs = {
      {"temporal", data::DatasetKind::kTemporal, 1},
      {"spatiotemporal", data::DatasetKind::kSpatioTemporal, 2}};
  models::CoreCdae model(BenchCdaeConfig(), specs, rng);
  std::vector<Variable> params = model.Parameters();
  Rng data_rng(7);
  const std::vector<Variable> inputs = {
      Variable(Tensor::RandomUniform({2, 1, 24}, data_rng), false),
      Variable(Tensor::RandomUniform({2, 2, 12, 10, 24}, data_rng), false)};
  std::vector<Tensor> clean;
  for (const Variable& in : inputs) clean.push_back(in.value());
  for (auto _ : state) {
    for (Variable& p : params) p.ZeroGrad();
    const Variable z = model.Encode(inputs);
    const auto recons = model.Decode(z, Variable());
    const auto losses = model.ReconstructionLosses(recons, clean);
    Variable total = losses[0];
    for (size_t i = 1; i < losses.size(); ++i) total = ag::Add(total, losses[i]);
    Backward(total);
    benchmark::DoNotOptimize(params[0].grad().data());
  }
}
BENCHMARK(BM_CdaeTrainStepFast)->Apply(ThreadSweep);

void BM_GemmRowMajorFast(benchmark::State& state) {
  ThreadArg threads(state);
  const int64_t n = state.range(1);
  Rng rng(5);
  Tensor a = Tensor::RandomUniform({n, n}, rng);
  Tensor b = Tensor::RandomUniform({n, n}, rng);
  Tensor c({n, n});
  for (auto _ : state) {
    backend::GemmRowMajor(n, n, n, a.data(), n, b.data(), n, c.data(), n,
                          /*accumulate=*/false);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmRowMajorFast)
    ->ArgsProduct({{1, 2, 4, 8}, {64, 256}})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_MatMul(benchmark::State& state) {
  ThreadArg threads(state);
  const int64_t n = state.range(1);
  Rng rng(5);
  Tensor a = Tensor::RandomUniform({n, n}, rng);
  Tensor b = Tensor::RandomUniform({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).data());
  }
}
BENCHMARK(BM_MatMul)
    ->ArgsProduct({{1, 2, 4, 8}, {64, 256}})
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_LstmStep(benchmark::State& state) {
  Rng rng(6);
  nn::LstmCell cell(8, 32, rng);
  Variable x(Tensor::RandomUniform({8, 8}, rng), false);
  auto init = cell.InitialState(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.Step(x, init).h.value().data());
  }
}
BENCHMARK(BM_LstmStep);

void BM_RasterizePoints(benchmark::State& state) {
  Rng rng(7);
  geo::GridSpec grid{12, 10, 0.0, 0.0, 1.0};
  std::vector<geo::Point> points;
  for (int i = 0; i < 10000; ++i) {
    points.push_back({rng.Uniform(0.0, 12.0), rng.Uniform(0.0, 10.0)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::RasterizePoints(points, grid).data());
  }
}
BENCHMARK(BM_RasterizePoints);

void BM_RasterizeRegions(benchmark::State& state) {
  Rng rng(8);
  geo::GridSpec grid{12, 10, 0.0, 0.0, 1.0};
  std::vector<geo::ValuedRegion> regions;
  for (int i = 0; i < 30; ++i) {
    const double x = rng.Uniform(0.0, 10.0), y = rng.Uniform(0.0, 8.0);
    regions.push_back({{{x, y},
                        {x + 2.0, y + 0.3},
                        {x + 1.8, y + 2.1},
                        {x - 0.2, y + 1.7}},
                       rng.Uniform(0.0, 1.0)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(geo::RasterizeRegions(regions, grid).data());
  }
}
BENCHMARK(BM_RasterizeRegions);

void BM_ImputeLocalAverage(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) {
    state.PauseTiming();
    Tensor t = Tensor::RandomUniform({1, 12, 10, 240}, rng);
    data::InjectMissing(&t, 0.05, rng);
    state.ResumeTiming();
    benchmark::DoNotOptimize(data::ImputeLocalAverage(&t));
  }
}
BENCHMARK(BM_ImputeLocalAverage);

void BM_Corrupt(benchmark::State& state) {
  Rng rng(10);
  Tensor t = Tensor::RandomUniform({4, 1, 12, 10, 24}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::Corrupt(t, 0.15, rng).data());
  }
}
BENCHMARK(BM_Corrupt);

// Observability overhead (DESIGN.md §10 contract: runtime-disabled
// spans cost one relaxed load + branch). Arg 0 runs conv3d forward
// with tracing runtime-disabled, Arg 1 with it enabled — comparing the
// two against BM_Conv3dForwardFast/1 quantifies both levels.
void BM_Conv3dForwardTraced(benchmark::State& state) {
  SetTracingEnabled(state.range(0) != 0);
  Rng rng(3);
  Variable x(Tensor::RandomUniform({2, 8, 12, 10, 24}, rng), false);
  Variable w(Tensor::RandomUniform({16, 8, 3, 3, 3}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::Conv3d(x, w).value().data());
  }
  SetTracingEnabled(false);
}
BENCHMARK(BM_Conv3dForwardTraced)
    ->Arg(0)
    ->Arg(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Observation-hook overhead (DESIGN.md §11 contract: with no hooks
// registered, ag::Observe is one relaxed load and returns its input
// Variable untouched). Arg 0 wraps conv3d forward in an inactive
// observation point, Arg 1 registers a minimal hook; comparing Arg 0
// against BM_Conv3dForwardFast/1 is the "hooks disabled within 2%" probe
// that bench_results/run_all.sh reports on.
void BM_Conv3dForwardObserved(benchmark::State& state) {
  std::unique_ptr<ag::ScopedHook> hook;
  if (state.range(0) != 0) {
    hook = std::make_unique<ag::ScopedHook>([](const ag::HookContext&) {});
  }
  Rng rng(3);
  Variable x(Tensor::RandomUniform({2, 8, 12, 10, 24}, rng), false);
  Variable w(Tensor::RandomUniform({16, 8, 3, 3, 3}, rng), false);
  for (auto _ : state) {
    Variable y = ag::Observe("bench.conv3d", ag::Conv3d(x, w));
    benchmark::DoNotOptimize(y.value().data());
  }
}
BENCHMARK(BM_Conv3dForwardObserved)
    ->Arg(0)
    ->Arg(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Profiler overhead (DESIGN.md §17 contract: an active 97 Hz SIGPROF
// capture costs one signal delivery + bounded stack walk per sample
// and must keep conv3d forward within 2% of the bare kernel). Arg 0
// runs with no capture (the true zero-cost baseline: no handler, no
// timer), Arg 1 with a live capture at the default rate. scripts/
// bench_compare.sh and bench_results/run_all.sh compare the pair.
void BM_Conv3dForwardProfiled(benchmark::State& state) {
  CpuProfile discard;
  std::string error;
  if (state.range(0) != 0 &&
      !StartCpuProfile(CpuProfileOptions{}, &error)) {
    state.SkipWithError(("profiler unavailable: " + error).c_str());
    return;
  }
  Rng rng(3);
  Variable x(Tensor::RandomUniform({2, 8, 12, 10, 24}, rng), false);
  Variable w(Tensor::RandomUniform({16, 8, 3, 3, 3}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::Conv3d(x, w).value().data());
  }
  if (state.range(0) != 0) StopCpuProfile(&discard, &error);
}
BENCHMARK(BM_Conv3dForwardProfiled)
    ->Arg(0)
    ->Arg(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Hardware-counter overhead on the traced path (DESIGN.md §17: two
// perf_event_open group reads per span, within 2% of tracing alone).
// Both args run with tracing enabled so the pair isolates the counter
// cost; where perf_event_open is unavailable (most containers) Arg 1
// degrades to one extra relaxed load per span and the pair reads ~0%.
void BM_Conv3dForwardCounters(benchmark::State& state) {
  SetTracingEnabled(true);
  SetPerfCountersEnabled(state.range(0) != 0);
  Rng rng(3);
  Variable x(Tensor::RandomUniform({2, 8, 12, 10, 24}, rng), false);
  Variable w(Tensor::RandomUniform({16, 8, 3, 3, 3}, rng), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ag::Conv3d(x, w).value().data());
  }
  SetPerfCountersEnabled(false);
  SetTracingEnabled(false);
}
BENCHMARK(BM_Conv3dForwardCounters)
    ->Arg(0)
    ->Arg(1)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Raw span open/close cost with tracing enabled (worst case: a span
// around nothing).
void BM_TraceSpanEnabled(benchmark::State& state) {
  SetTracingEnabled(true);
  for (auto _ : state) {
    ET_TRACE_SPAN("bench.empty_span");
  }
  SetTracingEnabled(false);
}
BENCHMARK(BM_TraceSpanEnabled);

void BM_TraceSpanDisabled(benchmark::State& state) {
  SetTracingEnabled(false);
  for (auto _ : state) {
    ET_TRACE_SPAN("bench.empty_span_off");
  }
}
BENCHMARK(BM_TraceSpanDisabled);

// Counter fast path: one relaxed fetch_add on a cached pointer.
void BM_MetricCounterAdd(benchmark::State& state) {
  for (auto _ : state) {
    ET_METRIC_COUNTER_ADD("bench.counter", 1);
  }
}
BENCHMARK(BM_MetricCounterAdd);

}  // namespace
}  // namespace equitensor

// Expanded BENCHMARK_MAIN so the JSON context carries OUR build type.
// google-benchmark's own "library_build_type" reports how the
// *installed benchmark library* was compiled (the distro package says
// "debug"), which poisoned baseline comparisons: a Release build of
// the kernels was indistinguishable from a Debug one. The
// "equitensor_build_type" key is authoritative — bench_compare.sh and
// bench_results/run_all.sh refuse non-"release" artifacts.
int main(int argc, char** argv) {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  benchmark::AddCustomContext("equitensor_build_type", "release");
#else
  benchmark::AddCustomContext("equitensor_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
