#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "autograd/conv_ops.h"
#include "autograd/hooks.h"
#include "autograd/ops.h"
#include "models/cdae.h"
#include "models/early_fusion.h"
#include "nn/backend_registry.h"
#include "nn/graph_fuser.h"
#include "nn/graph_ir.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace equitensor {
namespace {

// Differential suite for the fused kernels of the fast backend
// (DESIGN.md §15): the fused conv+bias+activation and concat-folding
// kernels against the eager op chain — loose (CheckTolerance) against
// the reference backend, and BITWISE against the eager chain over the
// fast base kernels, whose conv lowering the fused kernels share.
// Shapes, activations, and dataset counts come from a seeded fuzzer so
// every run covers the same cases.

class FusionParityTest : public ::testing::Test {
 protected:
  ~FusionParityTest() override {
    backend::SetBackend(backend::Backend::kFast);
    SetNumThreads(0);
  }
};

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

void ExpectClose(const Tensor& ref, const Tensor& got, int64_t reduction,
                 const std::string& what) {
  ASSERT_TRUE(ref.SameShape(got)) << what;
  const float tol = backend::CheckTolerance(reduction, ref.AbsMax());
  float max_diff = 0.0f;
  for (int64_t i = 0; i < ref.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(ref[i] - got[i]));
  }
  EXPECT_LE(max_diff, tol) << what << ": max diff " << max_diff
                           << " exceeds tolerance " << tol;
}

// One fuzzed conv+bias+act instance: geometry, inputs, and activation
// drawn from `rng`.
struct FuzzCase {
  std::vector<int64_t> x_shape, w_shape;
  backend::Act act;
  int rank;
};

FuzzCase DrawCase(Rng& rng) {
  FuzzCase c;
  c.rank = 1 + static_cast<int>(rng.UniformInt(3));
  const int64_t batch = 1 + rng.UniformInt(3);
  const int64_t cin = 1 + rng.UniformInt(6);
  const int64_t cout = 1 + rng.UniformInt(5);
  const int64_t k = 2 * rng.UniformInt(3) + 1;  // 1, 3, 5
  c.x_shape = {batch, cin};
  for (int d = 0; d < c.rank; ++d) c.x_shape.push_back(1 + rng.UniformInt(6));
  c.w_shape = {cout, cin};
  for (int d = 0; d < c.rank; ++d) c.w_shape.push_back(k);
  c.act = static_cast<backend::Act>(rng.UniformInt(4));
  return c;
}

struct FusedResult {
  Tensor y, gx, gw, gb;
};

// Forward + full backward of the FUSED op on the current backend.
FusedResult RunFused(const FuzzCase& c, uint64_t seed) {
  Rng rng(seed);
  Variable x(Tensor::RandomUniform(c.x_shape, rng, -1.0f, 1.0f), true);
  Variable w(Tensor::RandomUniform(c.w_shape, rng, -0.5f, 0.5f), true);
  Variable b(Tensor::RandomUniform({c.w_shape[0]}, rng, -0.5f, 0.5f), true);
  Variable y = ag::ConvBiasAct(x, w, b, c.act);
  Backward(ag::SumAll(y));
  return {y.value(), x.grad(), w.grad(), b.grad()};
}

// Forward + full backward of the equivalent EAGER chain on the current
// backend (what the fused op must reproduce).
FusedResult RunEagerChain(const FuzzCase& c, uint64_t seed) {
  Rng rng(seed);
  Variable x(Tensor::RandomUniform(c.x_shape, rng, -1.0f, 1.0f), true);
  Variable w(Tensor::RandomUniform(c.w_shape, rng, -0.5f, 0.5f), true);
  Variable b(Tensor::RandomUniform({c.w_shape[0]}, rng, -0.5f, 0.5f), true);
  Variable y;
  switch (c.rank) {
    case 1:
      y = ag::Conv1d(x, w);
      break;
    case 2:
      y = ag::Conv2d(x, w);
      break;
    default:
      y = ag::Conv3d(x, w);
      break;
  }
  y = ag::AddBias(y, b, /*channel_axis=*/1);
  y = nn::Activate(y, static_cast<nn::Activation>(c.act));
  Backward(ag::SumAll(y));
  return {y.value(), x.grad(), w.grad(), b.grad()};
}

int64_t KernelVolume(const FuzzCase& c) {
  int64_t kv = 1;
  for (int d = 0; d < c.rank; ++d) kv *= c.w_shape[2];
  return kv;
}

TEST_F(FusionParityTest, FuzzedFusedMatchesReferenceWithinTolerance) {
  Rng fuzz(0xF05EDu);
  for (int i = 0; i < 24; ++i) {
    const FuzzCase c = DrawCase(fuzz);
    const uint64_t seed = 1000 + static_cast<uint64_t>(i);
    backend::SetBackend(backend::Backend::kReference);
    const FusedResult ref = RunEagerChain(c, seed);
    backend::SetBackend(backend::Backend::kFast);
    const FusedResult fused = RunFused(c, seed);
    const std::string tag = "fuzz case " + std::to_string(i) + " rank " +
                            std::to_string(c.rank) + " act " +
                            std::to_string(static_cast<int>(c.act));
    const int64_t kv = KernelVolume(c);
    const int64_t fwd_red = c.x_shape[1] * kv + 1;
    // gx reduces over cout * k^d; gw / gb over batch * spatial volume.
    int64_t pvol = 1;
    for (int d = 0; d < c.rank; ++d) pvol *= c.x_shape[2 + d];
    const int64_t bwd_red =
        std::max(c.w_shape[0] * kv, c.x_shape[0] * pvol);
    ExpectClose(ref.y, fused.y, fwd_red, tag + " y");
    ExpectClose(ref.gx, fused.gx, bwd_red, tag + " gx");
    ExpectClose(ref.gw, fused.gw, bwd_red, tag + " gw");
    ExpectClose(ref.gb, fused.gb, bwd_red, tag + " gb");
  }
}

TEST_F(FusionParityTest, FusedBitwiseEqualsSimdEagerChain) {
  // The heart of the bitwise story: the fused conv IS the base conv
  // (identical im2col values into the identical blocked GEMM) and the
  // epilogues replicate the eager float expressions element for
  // element, so fused == eager exactly, not just within tolerance.
  backend::SetBackend(backend::Backend::kFast);
  Rng fuzz(0xB17Eu);
  for (int i = 0; i < 12; ++i) {
    const FuzzCase c = DrawCase(fuzz);
    const uint64_t seed = 2000 + static_cast<uint64_t>(i);
    const FusedResult simd = RunEagerChain(c, seed);
    const FusedResult fused = RunFused(c, seed);
    EXPECT_TRUE(BitwiseEqual(simd.y, fused.y)) << "y, case " << i;
    EXPECT_TRUE(BitwiseEqual(simd.gx, fused.gx)) << "gx, case " << i;
    EXPECT_TRUE(BitwiseEqual(simd.gw, fused.gw)) << "gw, case " << i;
    EXPECT_TRUE(BitwiseEqual(simd.gb, fused.gb)) << "gb, case " << i;
  }
}

TEST_F(FusionParityTest, DecompositionBitwiseEqualsEagerChainPerBackend) {
  // On reference a fused dispatch runs the registry's decomposition,
  // on fast the fused kernel; either must equal the eager op chain of
  // that backend BITWISE so the graph schedule is safe on both.
  Rng fuzz(0xDECu);
  for (const backend::Backend b :
       {backend::Backend::kReference, backend::Backend::kFast}) {
    for (int i = 0; i < 6; ++i) {
      const FuzzCase c = DrawCase(fuzz);
      const uint64_t seed = 3000 + static_cast<uint64_t>(i);
      backend::SetBackend(b);
      const FusedResult eager = RunEagerChain(c, seed);
      const FusedResult decomposed = RunFused(c, seed);
      const std::string tag = std::string(backend::BackendName(b)) +
                              " case " + std::to_string(i);
      EXPECT_TRUE(BitwiseEqual(eager.y, decomposed.y)) << tag << " y";
      EXPECT_TRUE(BitwiseEqual(eager.gx, decomposed.gx)) << tag << " gx";
      EXPECT_TRUE(BitwiseEqual(eager.gw, decomposed.gw)) << tag << " gw";
      EXPECT_TRUE(BitwiseEqual(eager.gb, decomposed.gb)) << tag << " gb";
    }
  }
}

// Concat-folding variant: random part counts and channel splits.
struct ConcatResult {
  Tensor y;
  std::vector<Tensor> gparts;
  Tensor gw, gb;
};

ConcatResult RunConcatFused(int parts_n, const std::vector<int64_t>& chans,
                            const std::vector<int64_t>& spatial,
                            backend::Act act, uint64_t seed, bool fused) {
  Rng rng(seed);
  int64_t cin = 0;
  std::vector<Variable> parts;
  for (int p = 0; p < parts_n; ++p) {
    std::vector<int64_t> shape = {2, chans[p], spatial[0], spatial[1],
                                  spatial[2]};
    parts.emplace_back(Tensor::RandomUniform(shape, rng, -1.0f, 1.0f), true);
    cin += chans[p];
  }
  Variable w(Tensor::RandomUniform({3, cin, 3, 3, 3}, rng, -0.5f, 0.5f), true);
  Variable b(Tensor::RandomUniform({3}, rng, -0.5f, 0.5f), true);
  Variable y;
  if (fused) {
    y = ag::ConcatConvBiasAct(parts, w, b, act);
  } else {
    Variable merged = ag::Concat(parts, /*axis=*/1);
    y = ag::Conv3d(merged, w);
    y = ag::AddBias(y, b, /*channel_axis=*/1);
    y = nn::Activate(y, static_cast<nn::Activation>(act));
  }
  Backward(ag::SumAll(y));
  ConcatResult r;
  r.y = y.value();
  for (const Variable& p : parts) r.gparts.push_back(p.grad());
  r.gw = w.grad();
  r.gb = b.grad();
  return r;
}

TEST_F(FusionParityTest, ConcatFoldBitwiseEqualsSimdConcatChain) {
  Rng fuzz(0xC0CAu);
  for (int i = 0; i < 8; ++i) {
    const int parts_n = 1 + static_cast<int>(fuzz.UniformInt(4));
    std::vector<int64_t> chans;
    for (int p = 0; p < parts_n; ++p) chans.push_back(1 + fuzz.UniformInt(4));
    const std::vector<int64_t> spatial = {
        static_cast<int64_t>(1 + fuzz.UniformInt(4)),
        static_cast<int64_t>(1 + fuzz.UniformInt(4)),
        static_cast<int64_t>(1 + fuzz.UniformInt(5))};
    const backend::Act act = static_cast<backend::Act>(fuzz.UniformInt(4));
    const uint64_t seed = 4000 + static_cast<uint64_t>(i);
    backend::SetBackend(backend::Backend::kFast);
    const ConcatResult simd =
        RunConcatFused(parts_n, chans, spatial, act, seed, /*fused=*/false);
    const ConcatResult fused =
        RunConcatFused(parts_n, chans, spatial, act, seed, /*fused=*/true);
    EXPECT_TRUE(BitwiseEqual(simd.y, fused.y)) << "y, case " << i;
    ASSERT_EQ(simd.gparts.size(), fused.gparts.size());
    for (size_t p = 0; p < simd.gparts.size(); ++p) {
      EXPECT_TRUE(BitwiseEqual(simd.gparts[p], fused.gparts[p]))
          << "gpart " << p << ", case " << i;
    }
    EXPECT_TRUE(BitwiseEqual(simd.gw, fused.gw)) << "gw, case " << i;
    EXPECT_TRUE(BitwiseEqual(simd.gb, fused.gb)) << "gb, case " << i;
  }
}

TEST_F(FusionParityTest, FusedBitwiseDeterministicAcrossThreadCounts) {
  backend::SetBackend(backend::Backend::kFast);
  Rng fuzz(0x7EADu);
  const FuzzCase c = DrawCase(fuzz);
  SetNumThreads(1);
  const FusedResult base = RunFused(c, 555);
  for (int threads : {2, 8}) {
    SetNumThreads(threads);
    const FusedResult got = RunFused(c, 555);
    EXPECT_TRUE(BitwiseEqual(base.y, got.y)) << threads << " threads y";
    EXPECT_TRUE(BitwiseEqual(base.gx, got.gx)) << threads << " threads gx";
    EXPECT_TRUE(BitwiseEqual(base.gw, got.gw)) << threads << " threads gw";
    EXPECT_TRUE(BitwiseEqual(base.gb, got.gb)) << threads << " threads gb";
  }
}

// ---------------------------------------------------------------------------
// Model-level parity: full CDAE train steps through the sealed graph
// schedule, observed by a hook vs unobserved, and against reference.
// ---------------------------------------------------------------------------

models::CdaeConfig TinyConfig() {
  models::CdaeConfig config;
  config.grid_w = 4;
  config.grid_h = 3;
  config.window = 6;
  config.latent_channels = 2;
  config.encoder_filters = {4, 1};
  config.shared_filters = {4};
  config.decoder_filters = {4};
  return config;
}

std::vector<models::DatasetSpec> TinySpecs() {
  return {{"weather", data::DatasetKind::kTemporal, 1},
          {"streets", data::DatasetKind::kSpatial, 1},
          {"events", data::DatasetKind::kSpatioTemporal, 2}};
}

// Runs `steps` full train steps (encode → decode → summed MAE →
// backward → Adam) from a fixed seed on the current backend; returns
// the per-step losses followed by every final parameter tensor.
std::vector<Tensor> TrainSteps(int steps, uint64_t seed) {
  Rng init_rng(seed);
  models::CoreCdae model(TinyConfig(), TinySpecs(), init_rng);
  nn::Adam optimizer(model.Parameters(), {});
  Rng data_rng(seed + 1);
  std::vector<Tensor> out;
  for (int s = 0; s < steps; ++s) {
    std::vector<Variable> inputs = {
        Variable(Tensor::RandomUniform({2, 1, 6}, data_rng), false),
        Variable(Tensor::RandomUniform({2, 1, 4, 3}, data_rng), false),
        Variable(Tensor::RandomUniform({2, 2, 4, 3, 6}, data_rng), false)};
    Variable z = model.Encode(inputs);
    const auto recons = model.Decode(z, Variable());
    std::vector<Tensor> clean;
    for (const auto& in : inputs) clean.push_back(in.value());
    const auto losses = model.ReconstructionLosses(recons, clean);
    Variable total = losses[0];
    for (size_t i = 1; i < losses.size(); ++i) {
      total = ag::Add(total, losses[i]);
    }
    out.push_back(total.value());
    Backward(total);
    optimizer.Step();
  }
  for (const Variable& p : model.Parameters()) out.push_back(p.value());
  return out;
}

TEST_F(FusionParityTest, CdaeTrainStepsBitwiseEqualSimdAndCloseToReference) {
  // A registered hook inserts identity observation nodes at every
  // labeled layer output; the trajectory must not move by one bit.
  backend::SetBackend(backend::Backend::kFast);
  std::vector<Tensor> observed;
  int events = 0;
  {
    ag::ScopedHook hook([&](const ag::HookContext&) { ++events; });
    observed = TrainSteps(3, 77);
  }
  EXPECT_GT(events, 0);
  const auto fused = TrainSteps(3, 77);
  ASSERT_EQ(observed.size(), fused.size());
  for (size_t i = 0; i < observed.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(observed[i], fused[i]))
        << "tensor " << i << " (losses first, then parameters)";
  }
  backend::SetBackend(backend::Backend::kReference);
  const auto ref = TrainSteps(3, 77);
  // Cross-backend drift compounds over optimizer steps; this is a
  // sanity bound, not the bitwise contract.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(ref[i][0], fused[i][0], 1e-3f * (1.0f + std::fabs(ref[i][0])))
        << "loss step " << i;
  }
}

TEST_F(FusionParityTest, CdaeTrainStepsBitwiseAcrossThreadCountsWhenFused) {
  backend::SetBackend(backend::Backend::kFast);
  SetNumThreads(1);
  const auto base = TrainSteps(2, 31);
  for (int threads : {2, 8}) {
    SetNumThreads(threads);
    const auto got = TrainSteps(2, 31);
    ASSERT_EQ(base.size(), got.size());
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(base[i], got[i]))
          << "tensor " << i << " at " << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Structural checks on the IR and the fuser.
// ---------------------------------------------------------------------------

TEST_F(FusionParityTest, CdaeEncodeIrFusesEveryChainAndFoldsTheConcat) {
  Rng rng(5);
  models::CoreCdae model(TinyConfig(), TinySpecs(), rng);
  const nn::FusionStats& stats = model.encode_ir().fusion_stats();
  // 3 encoders x 2 layers + shared x 2 layers = 8 conv chains, and the
  // dataset concat folds into the shared encoder's first conv.
  EXPECT_EQ(stats.conv_bias_act, 8);
  EXPECT_EQ(stats.concat_folds, 1);
  EXPECT_LT(stats.nodes_after, stats.nodes_before);
  // Live schedule: 8 fused conv nodes + 3 tiles (2 temporal + 1
  // spatial); concat and all bias/act nodes are gone.
  int fused_nodes = 0, concat_nodes = 0, bias_nodes = 0;
  for (int id : model.encode_ir().schedule()) {
    const nn::IrNode& n = model.encode_ir().nodes()[id];
    fused_nodes += (n.op == nn::IrOp::kFusedConvBiasAct ||
                    n.op == nn::IrOp::kFusedConcatConvBiasAct);
    concat_nodes += (n.op == nn::IrOp::kConcat);
    bias_nodes += (n.op == nn::IrOp::kBias);
  }
  EXPECT_EQ(fused_nodes, 8);
  EXPECT_EQ(concat_nodes, 0);
  EXPECT_EQ(bias_nodes, 0);
}

TEST_F(FusionParityTest, FuserSkipsMultiUseAndOutputProducers) {
  // A conv that feeds two consumers (or is itself an output) must stay
  // materialized — fusing it would change what downstream nodes see.
  Rng rng(9);
  nn::Conv conv(2, 1, 2, 3, rng);
  {
    // conv output marked as a graph output: no fusion.
    nn::GraphIr ir;
    const int in = ir.AddInput(1);
    const int c = ir.AddConv(in, 2, conv.weight());
    const int b = ir.AddBias(c, conv.bias());
    ir.MarkOutput(c);
    ir.MarkOutput(b);
    ir.Seal();
    EXPECT_EQ(ir.fusion_stats().conv_bias_act, 0);
  }
  {
    // Same chain, interior-only: fuses.
    nn::GraphIr ir;
    const int in = ir.AddInput(1);
    const int c = ir.AddConv(in, 2, conv.weight());
    const int b = ir.AddBias(c, conv.bias());
    const int a = ir.AddAct(b, nn::Activation::kRelu);
    ir.MarkOutput(a);
    ir.Seal();
    EXPECT_EQ(ir.fusion_stats().conv_bias_act, 1);
    EXPECT_EQ(ir.materialized_intermediates(), 0);
  }
  {
    // A labeled interior node stays (a hook must see it); a labeled
    // chain terminal fuses in place and keeps its label.
    nn::GraphIr ir;
    const int in = ir.AddInput(1);
    const int c = ir.AddConv(in, 2, conv.weight());
    const int b = ir.AddBias(c, conv.bias());
    ir.SetObserve(c, "probe.conv");
    const int a = ir.AddAct(b, nn::Activation::kRelu);
    const int c2 = ir.AddConv(a, 2, conv.weight());
    const int b2 = ir.AddBias(c2, conv.bias());
    ir.SetObserve(b2, "probe.out");
    ir.MarkOutput(b2);
    ir.Seal();
    EXPECT_EQ(ir.fusion_stats().conv_bias_act, 1);
    EXPECT_EQ(ir.nodes()[c].op, nn::IrOp::kConv);
    EXPECT_EQ(ir.nodes()[b2].op, nn::IrOp::kFusedConvBiasAct);
    EXPECT_EQ(ir.nodes()[b2].observe, "probe.out");
  }
}

TEST_F(FusionParityTest, EarlyFusionEncodePartsMatchesEagerBitwiseOnSimd) {
  // EncodeParts folds the input concat into the encoder's first conv;
  // Encode(FuseInputs(...)) materializes it first. Same bits.
  backend::SetBackend(backend::Backend::kFast);
  Rng rng(13);
  models::EarlyFusionCdae model(TinyConfig(), TinySpecs(), rng);
  Rng data_rng(14);
  const std::vector<Variable> inputs = {
      Variable(Tensor::RandomUniform({2, 1, 6}, data_rng), false),
      Variable(Tensor::RandomUniform({2, 1, 4, 3}, data_rng), false),
      Variable(Tensor::RandomUniform({2, 2, 4, 3, 6}, data_rng), false)};
  const Tensor parts = model.EncodeParts(inputs).value();
  const Tensor fused_inputs = model.Encode(model.FuseInputs(inputs)).value();
  EXPECT_TRUE(BitwiseEqual(parts, fused_inputs));
}

}  // namespace
}  // namespace equitensor
