// The traced run's per-layer metrics. Each layer is measured from
// outside, by timing calls into its public functions inside spans; the
// layer names follow the repository's modules (data, core.weighting,
// core.trainer, models, autograd, nn.optimizer, nn.kernels,
// util.thread_pool, util.arena, nn.serialize, core.serving,
// util.http_server).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <sys/stat.h>
#include <thread>

#include "common.h"
#include "core/serving.h"
#include "data/preprocess.h"
#include "data/windows.h"
#include "flops.h"
#include "inputs.h"
#include "loadgen.h"
#include "models/adversary.h"
#include "models/cdae.h"
#include "nn/backend_registry.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "util/arena.h"
#include "util/http_server.h"
#include "util/thread_pool.h"

namespace perfbench {

using equitensor::JsonValue;
using equitensor::Tensor;
using equitensor::Variable;
namespace backend = equitensor::backend;
namespace core = equitensor::core;
namespace data = equitensor::data;
namespace models = equitensor::models;
namespace nn = equitensor::nn;

namespace {

/// Runs `fn` inside a span and returns its wall time in ms.
double TimeMs(SpanLog* spans, const std::string& name,
              const std::function<void()>& fn) {
  ScopedSpan span(spans, name);
  const int64_t start = NowNs();
  fn();
  return (NowNs() - start) * 1e-6;
}

/// Median of `reps` timed calls (after one untimed warm-up when asked).
double MedianMs(SpanLog* spans, const std::string& name, int reps,
                const std::function<void()>& fn, bool warm_up = true) {
  if (warm_up) fn();
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(TimeMs(spans, name, fn));
  return Median(ms);
}

Tensor Random(std::vector<int64_t> shape, uint64_t seed) {
  int64_t volume = 1;
  for (int64_t d : shape) volume *= d;
  return Tensor::FromData(
      std::move(shape),
      GenerateData<float>(volume, seed,
                          std::uniform_real_distribution<float>(-1.0f, 1.0f)));
}

std::vector<int64_t> Dims(const ConvGeometry& g, int64_t channels) {
  std::vector<int64_t> shape = {g.batch, channels};
  for (int d = 0; d < g.rank; ++d) shape.push_back(g.extent[d]);
  return shape;
}

std::vector<int64_t> WeightDims(const ConvGeometry& g) {
  std::vector<int64_t> shape = {g.cout, g.cin};
  for (int d = 0; d < g.rank; ++d) shape.push_back(g.k);
  return shape;
}

struct KernelRow {
  std::string op;     // conv1d_fwd, cba3d_bwd, matmul, ...
  std::string shape;  // train_* or pred_* label
  ConvGeometry g;
  int64_t m = 0, k = 0, n = 0;  // matmul only
};

/// Shapes of the paper-grid CDAE train step (batch 4, 32x20, 24 h
/// windows, 8->16 filters) and of the serving predictor forward
/// (batch 8, 12x10, 24 h history).
std::vector<KernelRow> KernelRows() {
  auto conv = [](int rank, int64_t batch, int64_t cin, int64_t cout,
                 std::vector<int64_t> extent) {
    ConvGeometry g;
    g.rank = rank;
    g.batch = batch;
    g.cin = cin;
    g.cout = cout;
    for (int d = 0; d < rank; ++d) g.extent[d] = extent[static_cast<size_t>(d)];
    return g;
  };
  const int64_t tb = kTrainBatch, tw = kGridWidth, th = kGridHeight;
  const int64_t bw = kBundleWidth, bh = kBundleHeight;
  const ConvGeometry c1 = conv(1, tb, 8, 16, {24});
  const ConvGeometry c2 = conv(2, tb, 8, 16, {tw, th});
  const ConvGeometry c3 = conv(3, tb, 8, 16, {tw, th, 24});
  const ConvGeometry p3 = conv(3, 8, 8, 16, {bw, bh, 24});
  const ConvGeometry p2 = conv(2, 8, 16, 16, {bw, bh});
  const std::string train = "train_b" + std::to_string(tb) + "_c8x16_";
  const std::string dims2 = std::to_string(tw) + "x" + std::to_string(th);
  const std::string pred = "pred_b8_";
  const std::string pdims = std::to_string(bw) + "x" + std::to_string(bh);
  return {
      {"conv1d_fwd", train + "t24", c1},
      {"conv1d_bwd", train + "t24", c1},
      {"conv2d_fwd", train + dims2, c2},
      {"conv2d_bwd", train + dims2, c2},
      {"conv3d_fwd", train + dims2 + "x24", c3},
      {"conv3d_bwd", train + dims2 + "x24", c3},
      {"cba3d_fwd", train + dims2 + "x24", c3},
      {"cba3d_bwd", train + dims2 + "x24", c3},
      {"matmul", "train_m16_k216_n" + std::to_string(tw * th * 24), {}, 16,
       216, tw * th * 24},
      {"conv3d_fwd", pred + "c8x16_" + pdims + "x24", p3},
      {"cba3d_fwd", pred + "c8x16_" + pdims + "x24", p3},
      {"conv2d_fwd", pred + "c16x16_" + pdims, p2},
      {"matmul", "pred_m16_k216_n" + std::to_string(bw * bh * 24), {}, 16,
       216, bw * bh * 24},
  };
}

void MeasureKernel(const KernelRow& row, uint64_t seed, SpanLog* spans,
                   Result* r) {
  const ConvGeometry& g = row.g;
  const bool bwd = row.op.size() > 4 && row.op.substr(row.op.size() - 3) == "bwd";
  int64_t flops = 0, bytes = 0;
  std::function<void()> call;
  Tensor x, w, bias, y, gout, gx, gw, gb;
  std::vector<float> a, b, c;
  if (row.op == "matmul") {
    flops = MatMulFlops(row.m, row.k, row.n);
    bytes = MatMulBytes(row.m, row.k, row.n);
    a = GenerateData<float>(row.m * row.k, seed,
                            std::uniform_real_distribution<float>(-1, 1));
    b = GenerateData<float>(row.k * row.n, seed + 1,
                            std::uniform_real_distribution<float>(-1, 1));
    c.assign(static_cast<size_t>(row.m * row.n), 0.0f);
    const backend::MatMulSpec spec{row.m, row.k, row.n};
    call = [&, spec] { backend::MatMul(spec, a.data(), b.data(), c.data()); };
  } else {
    x = Random(Dims(g, g.cin), seed);
    w = Random(WeightDims(g), seed + 1);
    bias = Random({g.cout}, seed + 2);
    y = Tensor(Dims(g, g.cout));
    gout = Random(Dims(g, g.cout), seed + 3);
    gx = Tensor(x.shape());
    gw = Tensor(w.shape());
    gb = Tensor({g.cout});
    const bool cba = row.op.rfind("cba", 0) == 0;
    if (cba) {
      flops = bwd ? ConvBiasActBackwardFlops(g) : ConvBiasActForwardFlops(g);
      bytes = bwd ? ConvBiasActBackwardBytes(g) : ConvBiasActForwardBytes(g);
      backend::ConvBiasActDims d{};
      d.rank = g.rank;
      d.batch = g.batch;
      d.cin = g.cin;
      d.cout = g.cout;
      d.k = g.k;
      d.pad = g.pad;
      d.w = g.extent[0];
      d.h = g.rank >= 2 ? g.extent[1] : 1;
      d.t = g.rank == 3 ? g.extent[2] : 1;
      d.act = backend::Act::kRelu;
      backend::ConvBiasActForward(d, x, w, bias, &y);
      if (bwd) {
        call = [&, d] {
          backend::ConvBiasActBackward(d, x, w, y, gout, &gx, &gw, &gb);
        };
      } else {
        call = [&, d] { backend::ConvBiasActForward(d, x, w, bias, &y); };
      }
    } else {
      flops = bwd ? ConvBackwardFlops(g) : ConvForwardFlops(g);
      bytes = bwd ? ConvBackwardBytes(g) : ConvForwardBytes(g);
      if (g.rank == 1) {
        const backend::Conv1dDims d{g.batch, g.cin, g.extent[0], g.cout, g.k,
                                    g.pad};
        call = bwd ? std::function<void()>([&, d] {
          backend::Conv1dBackward(d, x, w, gout, &gx, &gw);
        })
                   : [&, d] { backend::Conv1dForward(d, x, w, &y); };
      } else if (g.rank == 2) {
        const backend::Conv2dDims d{g.batch, g.cin, g.extent[0], g.extent[1],
                                    g.cout, g.k, g.pad};
        call = bwd ? std::function<void()>([&, d] {
          backend::Conv2dBackward(d, x, w, gout, &gx, &gw);
        })
                   : [&, d] { backend::Conv2dForward(d, x, w, &y); };
      } else {
        const backend::Conv3dDims d{g.batch, g.cin, g.extent[0], g.extent[1],
                                    g.extent[2], g.cout, g.k, g.pad};
        call = bwd ? std::function<void()>([&, d] {
          backend::Conv3dBackward(d, x, w, gout, &gx, &gw);
        })
                   : [&, d] { backend::Conv3dForward(d, x, w, &y); };
      }
    }
  }
  // Repeat until ~0.2 s of calls (at least 5) and take the median.
  call();
  std::vector<double> ms;
  const std::string name = "kernels." + row.op + "." + row.shape;
  double total = 0.0;
  while (ms.size() < 5 || (total < 200.0 && ms.size() < 200)) {
    ms.push_back(TimeMs(spans, name, call));
    total += ms.back();
  }
  const double med = Median(ms);
  r->Set(name + ".ms", med, "ms");
  r->Set(name + ".flops", static_cast<double>(flops), "flop");
  r->Set(name + ".gflops", flops / (med * 1e-3) * 1e-9, "GFLOP/s");
  r->Set(name + ".bytes", static_cast<double>(bytes), "B_computed");
}

}  // namespace

void RunLayerSuite(const Options& o, SpanLog* spans, Result* r) {
  // data: the paper-grid city build.
  const data::CityConfig city_config =
      MakeCity(o.seed, "city", kGridWidth, kGridHeight, kGridDays);
  data::UrbanDataBundle city;
  const double build_ms = MedianMs(
      spans, "data.BuildSeattleAnalog", 3,
      [&] { city = data::BuildSeattleAnalog(city_config); }, false);
  r->Set("data.build_s", build_ms * 1e-3, "s");

  // core.weighting and core.trainer on the paper-grid recipe.
  core::EquiTensorConfig config = PaperConfig(o.seed);
  {
    core::EquiTensorTrainer estimator(config, &city.datasets, &city.race_map);
    r->Set("weighting.lopt_s",
           TimeMs(spans, "weighting.EstimateOptimalLosses",
                  [&] {
                    config.precomputed_optimal_losses =
                        estimator.EstimateOptimalLosses();
                  }) * 1e-3,
           "s");
  }
  config.epochs = 1;
  core::EquiTensorTrainer trainer(config, &city.datasets, &city.race_map);
  const double train_ms = TimeMs(spans, "trainer.Train", [&] { trainer.Train(); });
  r->Set("trainer.step_ms", train_ms / config.steps_per_epoch, "ms");
  const data::WindowSampler sampler(&city.datasets, config.cdae.window);
  const int64_t windows = sampler.hours() / config.cdae.window;
  r->Set("models.materialize_window_ms",
         TimeMs(spans, "trainer.Materialize", [&] { trainer.Materialize(); }) /
             static_cast<double>(windows),
         "ms");

  // models, autograd, nn.optimizer on one paper-grid batch.
  equitensor::Rng rng(StreamSeed(o.seed, "layer_models"));
  models::CoreCdae model(config.cdae,
                         core::EquiTensorTrainer::MakeSpecs(city.datasets), rng);
  models::AdversaryNet adversary(config.cdae.latent_channels, rng);
  nn::Adam adam(model.Parameters(), config.optimizer);
  const auto starts = UniformInts(config.batch_size, 0, sampler.NumWindows() - 1,
                                  StreamSeed(o.seed, "layer_batch"));
  const auto clean = sampler.MakeBatch(starts);
  std::vector<Variable> inputs;
  for (const Tensor& t : clean) {
    inputs.emplace_back(data::Corrupt(t, config.cdae.corruption, rng), false);
  }
  const Tensor s_tiled = models::TileSensitiveMap(
      city.race_map, config.batch_size, config.cdae.window);
  const Variable s_var(s_tiled, false);
  Variable z;
  std::vector<Variable> recons;
  Variable l_a;
  r->Set("models.encode_ms",
         MedianMs(spans, "models.Encode", 3, [&] { z = model.Encode(inputs); }),
         "ms");
  r->Set("models.decode_ms",
         MedianMs(spans, "models.Decode", 3,
                  [&] { recons = model.Decode(z, s_var); }),
         "ms");
  r->Set("models.adversary_ms",
         MedianMs(spans, "models.AdversaryLoss", 3,
                  [&] { l_a = adversary.Loss(z, s_tiled); }),
         "ms");
  std::vector<double> backward_ms, adam_ms;
  for (int rep = 0; rep < 4; ++rep) {
    // Eq. 5 on a fresh graph: sum_i L_i - lambda * L_A.
    z = model.Encode(inputs);
    recons = model.Decode(z, s_var);
    const auto losses = model.ReconstructionLosses(recons, clean);
    Variable total = losses[0];
    for (size_t i = 1; i < losses.size(); ++i) {
      total = equitensor::ag::Add(total, losses[i]);
    }
    total = equitensor::ag::Add(
        total, equitensor::ag::MulScalar(adversary.Loss(z, s_tiled),
                                         -static_cast<float>(config.lambda)));
    const double b = TimeMs(spans, "autograd.Backward",
                            [&] { equitensor::Backward(total); });
    const double s = TimeMs(spans, "optimizer.Adam.Step", [&] { adam.Step(); });
    adam.ZeroGrad();
    if (rep > 0) {  // the first pass warms caches and the arena
      backward_ms.push_back(b);
      adam_ms.push_back(s);
    }
  }
  r->Set("autograd.backward_ms", Median(backward_ms), "ms");
  r->Set("optimizer.adam_step_ms", Median(adam_ms), "ms");

  // nn.kernels through the public backend:: dispatch entry points.
  uint64_t kernel_seed = StreamSeed(o.seed, "kernels");
  for (const KernelRow& row : KernelRows()) {
    MeasureKernel(row, kernel_seed, spans, r);
    kernel_seed += 4;
  }

  // util.thread_pool: an empty region across NumThreads(), timed in
  // blocks of 100.
  const int threads = equitensor::NumThreads();
  std::vector<double> region_us;
  for (int rep = 0; rep < 50; ++rep) {
    region_us.push_back(TimeMs(spans, "pool.ParallelFor_x100", [&] {
                          for (int i = 0; i < 100; ++i) {
                            equitensor::ParallelFor(0, threads, 1,
                                                    [](int64_t, int64_t) {});
                          }
                        }) * 10.0);
  }
  r->Set("pool.region_us", Median(region_us), "us");

  // util.arena: the global arena after the training-side layers ran.
  const auto& arena = equitensor::Arena::Global();
  const auto stats = arena.stats();
  const double acquires = static_cast<double>(stats.allocations + stats.reuses);
  r->Set("arena.reuse_ratio",
         acquires > 0 ? static_cast<double>(stats.reuses) / acquires : 0.0,
         "ratio");
  double high_bytes = 0.0;
  for (const auto& c : arena.class_stats()) {
    high_bytes += static_cast<double>(c.high_watermark) *
                  static_cast<double>(c.size_class) * sizeof(float);
  }
  r->Set("arena.high_watermark_mb", high_bytes / (1024.0 * 1024.0), "MB");

  // nn.serialize and core.serving on the serving bundle.
  Bundle bundle;
  std::string error;
  if (!BuildBundle(o.seed, o.work_dir + "/layer_serving.etck", &bundle,
                   &error)) {
    r->Fail(error);
    return;
  }
  nn::Checkpoint checkpoint;
  nn::LoadCheckpoint(bundle.path, &checkpoint);
  const std::string copy = o.work_dir + "/layer_copy.etck";
  r->Set("serialize.save_ms",
         MedianMs(spans, "serialize.SaveCheckpoint", 5,
                  [&] { nn::SaveCheckpoint(copy, checkpoint); }),
         "ms");
  struct stat st {};
  stat(copy.c_str(), &st);
  r->Set("serialize.save_bytes", static_cast<double>(st.st_size), "B");
  r->Set("serialize.load_ms",
         MedianMs(spans, "serialize.LoadCheckpoint", 5,
                  [&] {
                    nn::Checkpoint loaded;
                    nn::LoadCheckpoint(copy, &loaded);
                  }),
         "ms");
  std::remove(copy.c_str());

  std::shared_ptr<const core::ServingModel> serving;
  r->Set("serving.fit_s",
         TimeMs(spans, "serving.LoadServingModel",
                [&] {
                  serving = core::LoadServingModel(
                      bundle.path, DefaultServeTask(), 1, &error);
                }) * 1e-3,
         "s");
  if (!serving) {
    r->Fail("LoadServingModel: " + error);
    return;
  }
  const auto hours =
      UniformInts(4096, serving->predict_t_min(), serving->predict_t_max(),
                  StreamSeed(o.seed, "hours"));
  double predict_ms[9] = {};
  for (int64_t n = 1; n <= 8; ++n) {
    std::vector<int64_t> batch(hours.begin(), hours.begin() + n);
    predict_ms[n] = MedianMs(spans, "serving.Predict.b" + std::to_string(n), 15,
                             [&] { serving->Predict(batch); });
  }
  for (int n : {1, 2, 4, 8}) {
    r->Set("serving.predict_ms.b" + std::to_string(n), predict_ms[n], "ms");
  }

  // core.serving batcher: nproc closed-loop callers of Predict.
  core::PredictBatcher batcher(core::PredictBatcher::Options{},
                               [&serving] { return serving; });
  batcher.Start();
  std::vector<std::vector<double>> call_ms(static_cast<size_t>(o.nproc));
  {
    std::atomic<size_t> next{0};
    const auto end = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(1500);
    std::vector<std::thread> callers;
    for (int i = 0; i < o.nproc; ++i) {
      callers.emplace_back([&, i] {
        while (std::chrono::steady_clock::now() < end) {
          const int64_t t = hours[next.fetch_add(1) % hours.size()];
          call_ms[static_cast<size_t>(i)].push_back(TimeMs(
              spans, "batcher.Predict", [&] { batcher.Predict(t); }));
        }
      });
    }
    for (std::thread& t : callers) t.join();
  }
  batcher.Stop();
  std::vector<double> all_calls;
  for (const auto& v : call_ms) all_calls.insert(all_calls.end(), v.begin(), v.end());
  const double mean_batch =
      batcher.batches_run() == 0
          ? 0.0
          : static_cast<double>(batcher.requests_batched()) /
                static_cast<double>(batcher.batches_run());
  const int64_t observed =
      std::clamp<int64_t>(static_cast<int64_t>(mean_batch + 0.5), 1, 8);
  r->Set("batcher.mean_batch", mean_batch, "requests");
  r->Set("batcher.wait_ms", Median(all_calls) - predict_ms[observed], "ms");

  // core.serving cache: Zipf(1)-skewed (cx, cy, t) keys over all of Z
  // (several times the LRU's size, so the hit ratio is between 0 and
  // 1) replayed into an LRU of the daemon's default capacity.
  core::EmbeddingCache cache(4096);
  const int64_t key_space = bundle.z.dim(1) * bundle.z.dim(2) * bundle.z.dim(3);
  const auto keys =
      ZipfKeys(200000, key_space, 1.0, StreamSeed(o.seed, "cache_keys"));
  const std::string payload(160, 'x');  // a typical /embed body size
  double get_ns = 0.0, put_ns = 0.0;
  int64_t puts = 0;
  {
    ScopedSpan span(spans, "cache.replay");
    std::string out;
    for (int64_t key : keys) {
      const int64_t t0 = NowNs();
      const bool hit = cache.Get(key, &out);
      const int64_t t1 = NowNs();
      get_ns += static_cast<double>(t1 - t0);
      if (!hit) {
        cache.Put(key, payload);
        put_ns += static_cast<double>(NowNs() - t1);
        ++puts;
      }
    }
  }
  const double lookups = static_cast<double>(cache.hits() + cache.misses());
  r->Set("cache.hit_ratio", static_cast<double>(cache.hits()) / lookups, "ratio");
  r->Set("cache.get_us", get_ns / lookups * 1e-3, "us");
  r->Set("cache.put_us", puts > 0 ? put_ns / static_cast<double>(puts) * 1e-3 : 0.0,
         "us");

  // util.http_server: /healthz round trips on an in-process server.
  equitensor::HttpServer::Options http_options;
  http_options.worker_threads = o.nproc + 1;
  equitensor::HttpServer server(http_options);
  server.Handle("/healthz", [](const equitensor::HttpRequest&) {
    equitensor::HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  if (!server.Start(0, &error)) {
    r->Fail("HttpServer::Start: " + error);
    return;
  }
  const int healthz = server.port();
  const std::vector<Op> probe = {Op{Op::kHealthz, 0}};
  for (const int conns : {1, o.nproc}) {
    std::vector<double> us;
    for (const ClientStats& s : ClosedLoop(healthz, conns, probe, 0.5, spans)) {
      for (double ms : s.latency_ms) us.push_back(ms * 1e3);
    }
    r->Set(conns == 1 ? "http.rtt_us.c1" : "http.rtt_us.cnproc", Median(us),
           "us");
  }

  // Generator lateness: serve_predict reports its own open-loop phases;
  // elsewhere a 1 s, 1000/s Poisson probe against /healthz.
  double late_p99 = 0.0;
  if (const JsonValue* serve_late = r->detail.Find("generator_late_ms")) {
    late_p99 = serve_late->Find("tail")->number();
  } else {
    const auto schedule =
        PoissonSchedule(1000.0, 1.0, StreamSeed(o.seed, "poisson_probe"));
    std::vector<double> late;
    for (const ClientStats& s :
         OpenLoop(healthz, o.nproc, probe, schedule,
                  std::chrono::steady_clock::now(), spans)) {
      late.insert(late.end(), s.late_ms.begin(), s.late_ms.end());
    }
    late_p99 = Summarize(late).tail;
  }
  server.Stop();
  r->Set("gen.late_ms", late_p99, "ms");
}

}  // namespace perfbench
