#include <cstring>

#include <gtest/gtest.h>

#include "autograd/conv_ops.h"
#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "models/adversary.h"
#include "nn/backend_registry.h"
#include "nn/lstm.h"
#include "util/thread_pool.h"

namespace equitensor {
namespace {

// Finite-difference validation of every non-convolution op. Each case
// builds a scalar loss from randomized inputs and compares analytic
// gradients to central differences.

using LossFn = std::function<Variable(std::vector<Variable>&)>;

struct GradCase {
  const char* name;
  std::vector<std::vector<int64_t>> input_shapes;
  LossFn fn;
  float input_scale = 1.0f;
};

void PrintTo(const GradCase& c, std::ostream* os) { *os << c.name; }

class OpGradTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(OpGradTest, MatchesFiniteDifferences) {
  const GradCase& c = GetParam();
  Rng rng(1234);
  std::vector<Tensor> inputs;
  std::vector<bool> requires_grad;
  for (const auto& shape : c.input_shapes) {
    inputs.push_back(
        Tensor::RandomUniform(shape, rng, -c.input_scale, c.input_scale));
    requires_grad.push_back(true);
  }
  const GradCheckResult result = CheckGradients(c.fn, inputs, requires_grad);
  EXPECT_TRUE(result.ok) << c.name << ": " << result.detail;
}

// Smooth-ish losses: sum of sigmoid keeps |f'| bounded and avoids the
// MAE kink landing on a sample point.
Variable SmoothLoss(const Variable& v) {
  return ag::SumAll(ag::Sigmoid(v));
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradTest,
    ::testing::Values(
        GradCase{"add", {{2, 3}, {2, 3}},
                 [](std::vector<Variable>& v) {
                   return SmoothLoss(ag::Add(v[0], v[1]));
                 }},
        GradCase{"sub", {{2, 3}, {2, 3}},
                 [](std::vector<Variable>& v) {
                   return SmoothLoss(ag::Sub(v[0], v[1]));
                 }},
        GradCase{"mul", {{2, 3}, {2, 3}},
                 [](std::vector<Variable>& v) {
                   return SmoothLoss(ag::Mul(v[0], v[1]));
                 }},
        GradCase{"add_scalar", {{4}},
                 [](std::vector<Variable>& v) {
                   return SmoothLoss(ag::AddScalar(v[0], 0.37f));
                 }},
        GradCase{"mul_scalar", {{4}},
                 [](std::vector<Variable>& v) {
                   return SmoothLoss(ag::MulScalar(v[0], -1.7f));
                 }},
        GradCase{"neg", {{4}},
                 [](std::vector<Variable>& v) {
                   return SmoothLoss(ag::Neg(v[0]));
                 }},
        GradCase{"sigmoid", {{3, 2}},
                 [](std::vector<Variable>& v) {
                   return ag::SumAll(ag::Sigmoid(v[0]));
                 }},
        GradCase{"exp", {{3, 2}},
                 [](std::vector<Variable>& v) {
                   return ag::SumAll(ag::Exp(v[0]));
                 }},
        GradCase{"tanh", {{3, 2}},
                 [](std::vector<Variable>& v) {
                   return ag::SumAll(ag::Tanh(v[0]));
                 }},
        GradCase{"matmul", {{3, 4}, {4, 2}},
                 [](std::vector<Variable>& v) {
                   return SmoothLoss(ag::MatMul(v[0], v[1]));
                 }},
        GradCase{"add_bias", {{2, 3, 4}, {3}},
                 [](std::vector<Variable>& v) {
                   return SmoothLoss(ag::AddBias(v[0], v[1], 1));
                 }},
        GradCase{"concat_axis1", {{2, 2}, {2, 3}},
                 [](std::vector<Variable>& v) {
                   return SmoothLoss(ag::Concat({v[0], v[1]}, 1));
                 }},
        GradCase{"slice", {{3, 4}},
                 [](std::vector<Variable>& v) {
                   return SmoothLoss(ag::Slice(v[0], {1, 1}, {2, 2}));
                 }},
        GradCase{"tile_at", {{2, 3}},
                 [](std::vector<Variable>& v) {
                   return SmoothLoss(ag::TileAt(v[0], 1, 4));
                 }},
        GradCase{"mean_axis", {{2, 3, 2}},
                 [](std::vector<Variable>& v) {
                   return SmoothLoss(ag::MeanAxis(v[0], 1));
                 }},
        GradCase{"mean_all", {{3, 3}},
                 [](std::vector<Variable>& v) {
                   return ag::MeanAll(ag::Sigmoid(v[0]));
                 }},
        GradCase{"reshape", {{2, 6}},
                 [](std::vector<Variable>& v) {
                   return SmoothLoss(ag::Reshape(v[0], {3, 4}));
                 }},
        GradCase{"relu_shifted", {{3, 3}},
                 // Shift inputs away from the kink at 0.
                 [](std::vector<Variable>& v) {
                   return SmoothLoss(ag::Relu(ag::AddScalar(v[0], 2.0f)));
                 }},
        GradCase{"grad_reverse_via_smooth", {{4}},
                 [](std::vector<Variable>& v) {
                   // A single reversal would make analytic = -numeric,
                   // which finite differences cannot verify; two
                   // reversals multiply the gradient by
                   // (-1)·(-1) = +1 and must match exactly.
                   return SmoothLoss(
                       ag::GradReverse(ag::GradReverse(v[0], 1.0f), 1.0f));
                 }},
        GradCase{"mae_between_vars", {{6}, {6}},
                 [](std::vector<Variable>& v) {
                   // Offset to keep |x - y| away from zero kinks.
                   return ag::Mae(ag::AddScalar(v[0], 3.0f), v[1]);
                 }},
        GradCase{"composite_deep", {{2, 4}, {4, 3}, {3}},
                 [](std::vector<Variable>& v) {
                   Variable h = ag::Tanh(ag::MatMul(v[0], v[1]));
                   h = ag::AddBias(h, v[2], 1);
                   return ag::MeanAll(ag::Sigmoid(h));
                 }}),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      return std::string(info.param.name);
    });

TEST(GradCheckTest, MaeAgainstConstantTarget) {
  Rng rng(5);
  Tensor x = Tensor::RandomUniform({5}, rng, 2.0f, 3.0f);
  Tensor target({5}, 0.0f);  // Far from x: no kink crossings.
  const auto fn = [&target](std::vector<Variable>& v) {
    return ag::MaeAgainst(v[0], target);
  };
  const auto result = CheckGradients(fn, {x}, {true});
  EXPECT_TRUE(result.ok) << result.detail;
}

// Analytic gradients must still match finite differences when the
// kernels run on the thread pool. The conv shape is big enough that
// forward and both backward passes split into multiple chunks at 4
// threads (cost-based grains; see util/thread_pool.h).
TEST(GradCheckTest, PoolEnabledGradCheckMatchesFiniteDifferences) {
  SetNumThreads(4);
  Rng rng(4242);
  {
    const Tensor x = Tensor::RandomUniform({2, 3, 14, 14}, rng, -1.0f, 1.0f);
    const Tensor w = Tensor::RandomUniform({6, 3, 3, 3}, rng, -0.5f, 0.5f);
    const auto fn = [](std::vector<Variable>& v) {
      return ag::SumAll(ag::Sigmoid(ag::Conv2d(v[0], v[1])));
    };
    // This loss sums ~2400 sigmoids (~1e3 magnitude), so the float32
    // scalar resolution (~1e-4) dominates central differences at the
    // default epsilon; a wider step keeps the quotient well above it.
    const auto result =
        CheckGradients(fn, {x, w}, {true, true}, /*epsilon=*/1e-2);
    EXPECT_TRUE(result.ok) << "conv2d on pool: " << result.detail;
  }
  {
    const Tensor a = Tensor::RandomUniform({3, 4}, rng, -1.0f, 1.0f);
    const Tensor b = Tensor::RandomUniform({4, 2}, rng, -1.0f, 1.0f);
    const auto fn = [](std::vector<Variable>& v) {
      return ag::SumAll(ag::Sigmoid(ag::MatMul(v[0], v[1])));
    };
    const auto result = CheckGradients(fn, {a, b}, {true, true});
    EXPECT_TRUE(result.ok) << "matmul on pool: " << result.detail;
  }
  SetNumThreads(0);
}

// ---------------------------------------------------------------------------
// Model-level gradients across pool sizes. The determinism contract
// (DESIGN.md §8) promises bitwise-identical results for any thread
// count; here that promise is checked end to end through Backward()
// for the LSTM cell and the adversary head.
// ---------------------------------------------------------------------------

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

// Builds a fresh two-step LSTM loss from identical seeds and returns
// every gradient (weight, bias, input) computed at `threads` workers.
std::vector<Tensor> LstmGradientsAt(int threads) {
  SetNumThreads(threads);
  Rng rng(7177);
  nn::LstmCell cell(6, 8, rng);
  Variable x(Tensor::RandomUniform({4, 6}, rng, -1.0f, 1.0f),
             /*requires_grad=*/true);
  nn::LstmState state = cell.InitialState(4);
  state = cell.Step(x, state);
  state = cell.Step(x, state);  // two steps: weight reuse across time
  Variable loss = ag::SumAll(ag::Sigmoid(state.h));
  Backward(loss);
  std::vector<Tensor> grads;
  for (const Variable& p : cell.Parameters()) grads.push_back(p.grad());
  grads.push_back(x.grad());
  SetNumThreads(0);
  return grads;
}

// Adversary loss L_A (Eq. 4) from a fixed latent and target; returns
// gradients of every conv-stack parameter and the latent input.
std::vector<Tensor> AdversaryGradientsAt(int threads) {
  SetNumThreads(threads);
  Rng rng(9919);
  models::AdversaryNet adversary(/*latent_channels=*/3, rng, /*kernel=*/3,
                                 /*filters=*/{4, 1});
  Variable z(Tensor::RandomUniform({2, 3, 6, 5, 8}, rng, -1.0f, 1.0f),
             /*requires_grad=*/true);
  const Tensor s_tiled = Tensor::RandomUniform({2, 1, 6, 5, 8}, rng);
  Variable loss = adversary.Loss(z, s_tiled);
  Backward(loss);
  std::vector<Tensor> grads;
  for (const Variable& p : adversary.Parameters()) grads.push_back(p.grad());
  grads.push_back(z.grad());
  SetNumThreads(0);
  return grads;
}

TEST(GradCheckTest, LstmGradientsBitwiseIdenticalAcrossThreadCounts) {
  const std::vector<Tensor> serial = LstmGradientsAt(1);
  ASSERT_FALSE(serial.empty());
  for (const int threads : {2, 8}) {
    const std::vector<Tensor> pooled = LstmGradientsAt(threads);
    ASSERT_EQ(pooled.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(serial[i], pooled[i]))
          << "lstm grad " << i << " differs at " << threads << " threads";
    }
  }
}

TEST(GradCheckTest, AdversaryGradientsBitwiseIdenticalAcrossThreadCounts) {
  const std::vector<Tensor> serial = AdversaryGradientsAt(1);
  ASSERT_FALSE(serial.empty());
  for (const int threads : {2, 8}) {
    const std::vector<Tensor> pooled = AdversaryGradientsAt(threads);
    ASSERT_EQ(pooled.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(serial[i], pooled[i]))
          << "adversary grad " << i << " differs at " << threads << " threads";
    }
  }
}

// Finite-difference validation of the same two models (serial pool is
// enough: the bitwise tests above extend the verdict to any count).
TEST(GradCheckTest, LstmStepMatchesFiniteDifferences) {
  Rng rng(515);
  nn::LstmCell cell(3, 4, rng);
  const Tensor x = Tensor::RandomUniform({2, 3}, rng, -1.0f, 1.0f);
  const auto fn = [&cell](std::vector<Variable>& v) {
    nn::LstmState state = cell.InitialState(2);
    state = cell.Step(v[0], state);
    return ag::SumAll(ag::Sigmoid(state.h));
  };
  const GradCheckResult result = CheckGradients(fn, {x}, {true});
  EXPECT_TRUE(result.ok) << "lstm input grad: " << result.detail;
}

TEST(GradCheckTest, AdversaryLossMatchesFiniteDifferences) {
  Rng rng(616);
  models::AdversaryNet adversary(/*latent_channels=*/2, rng, /*kernel=*/3,
                                 /*filters=*/{2, 1});
  const Tensor z = Tensor::RandomUniform({1, 2, 4, 4, 6}, rng, -1.0f, 1.0f);
  const Tensor s_tiled = Tensor::RandomUniform({1, 1, 4, 4, 6}, rng, 2.0f,
                                               3.0f);  // keeps MAE off kinks
  const auto fn = [&adversary, &s_tiled](std::vector<Variable>& v) {
    return adversary.Loss(v[0], s_tiled);
  };
  const GradCheckResult result = CheckGradients(fn, {z}, {true});
  EXPECT_TRUE(result.ok) << "adversary latent grad: " << result.detail;
}

// ---------------------------------------------------------------------------
// Fused backward paths (DESIGN.md §15). The fused ops compute their
// whole backward — act' from the output, bias reduction, conv
// gather/scatter — inside one kernel; finite differences validate that
// composition directly under the fast backend. Activations stay
// smooth (sigmoid/tanh/linear) so the quotients are well conditioned;
// the relu epilogue's parity with eager is covered by
// fusion_parity_test's differential fuzz.
// ---------------------------------------------------------------------------

struct ScopedBackend {
  explicit ScopedBackend(backend::Backend b) { backend::SetBackend(b); }
  ~ScopedBackend() { backend::SetBackend(backend::Backend::kFast); }
};

TEST(GradCheckTest, FusedConvBiasActMatchesFiniteDifferences) {
  ScopedBackend scoped(backend::Backend::kFast);
  struct FusedCase {
    const char* name;
    std::vector<int64_t> x_shape, w_shape;
    backend::Act act;
  };
  const FusedCase cases[] = {
      {"rank1_sigmoid", {2, 3, 6}, {4, 3, 3}, backend::Act::kSigmoid},
      {"rank2_tanh", {2, 2, 5, 4}, {3, 2, 3, 3}, backend::Act::kTanh},
      {"rank3_sigmoid", {1, 2, 3, 3, 4}, {2, 2, 3, 3, 3},
       backend::Act::kSigmoid},
      {"rank3_linear", {2, 2, 3, 2, 3}, {3, 2, 3, 3, 3},
       backend::Act::kLinear},
      // 1x1x1 kernel: the im2col degenerates to a channel gather.
      {"rank3_pointwise", {2, 3, 4, 3, 5}, {2, 3, 1, 1, 1},
       backend::Act::kTanh},
      // Kernel larger than the input: every window hangs over the edge
      // and most im2col columns are padding.
      {"rank2_kernel_gt_input", {1, 1, 2, 2}, {2, 1, 5, 5},
       backend::Act::kSigmoid},
      // Singleton spatial dims stress the unified w=h=1 geometry.
      {"rank3_singleton", {1, 1, 1, 1, 3}, {1, 1, 3, 3, 3},
       backend::Act::kSigmoid},
  };
  Rng rng(2026);
  for (const FusedCase& c : cases) {
    const Tensor x = Tensor::RandomUniform(c.x_shape, rng, -1.0f, 1.0f);
    const Tensor w = Tensor::RandomUniform(c.w_shape, rng, -0.5f, 0.5f);
    const Tensor b = Tensor::RandomUniform({c.w_shape[0]}, rng, -0.5f, 0.5f);
    const backend::Act act = c.act;
    const auto fn = [act](std::vector<Variable>& v) {
      return ag::SumAll(ag::Sigmoid(ag::ConvBiasAct(v[0], v[1], v[2], act)));
    };
    const auto result = CheckGradients(fn, {x, w, b}, {true, true, true});
    EXPECT_TRUE(result.ok) << c.name << ": " << result.detail;
  }
}

TEST(GradCheckTest, FusedConcatConvBiasActMatchesFiniteDifferences) {
  ScopedBackend scoped(backend::Backend::kFast);
  Rng rng(3033);
  // Three parts with distinct channel counts; the fused kernel gathers
  // them as a virtual [1, 6, 3, 2, 4] input.
  const Tensor p0 = Tensor::RandomUniform({1, 2, 3, 2, 4}, rng, -1.0f, 1.0f);
  const Tensor p1 = Tensor::RandomUniform({1, 1, 3, 2, 4}, rng, -1.0f, 1.0f);
  const Tensor p2 = Tensor::RandomUniform({1, 3, 3, 2, 4}, rng, -1.0f, 1.0f);
  const Tensor w = Tensor::RandomUniform({2, 6, 3, 3, 3}, rng, -0.5f, 0.5f);
  const Tensor b = Tensor::RandomUniform({2}, rng, -0.5f, 0.5f);
  const auto fn = [](std::vector<Variable>& v) {
    return ag::SumAll(ag::Sigmoid(ag::ConcatConvBiasAct(
        {v[0], v[1], v[2]}, v[3], v[4], backend::Act::kTanh)));
  };
  {
    const auto result = CheckGradients(fn, {p0, p1, p2, w, b},
                                       {true, true, true, true, true});
    EXPECT_TRUE(result.ok) << "all grads: " << result.detail;
  }
  {
    // Skipped middle part exercises the null-entry scatter path.
    const auto result = CheckGradients(fn, {p0, p1, p2, w, b},
                                       {true, false, true, true, true});
    EXPECT_TRUE(result.ok) << "skipped part grad: " << result.detail;
  }
}

TEST(GradCheckTest, DetectsWrongGradient) {
  // A deliberately wrong "op": forward x^2 but gradient of x.
  const auto bad = [](std::vector<Variable>& v) {
    Variable sq = ag::Mul(ag::Detach(v[0]), v[0]);  // grad wrt v[0] = x, not 2x
    return ag::SumAll(sq);
  };
  Rng rng(6);
  Tensor x = Tensor::RandomUniform({3}, rng, 1.0f, 2.0f);
  const auto result = CheckGradients(bad, {x}, {true});
  EXPECT_FALSE(result.ok);
}

}  // namespace
}  // namespace equitensor
