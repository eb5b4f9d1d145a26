#include <gtest/gtest.h>

#include <cmath>

#include "autograd/ops.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/optimizer.h"

namespace equitensor {
namespace {

TEST(InitTest, GlorotUniformWithinLimit) {
  Rng rng(1);
  const Tensor w = nn::GlorotUniform({100, 50}, 100, 50, rng);
  const float limit = std::sqrt(6.0f / 150.0f);
  EXPECT_LE(w.AbsMax(), limit);
  EXPECT_NEAR(w.Mean(), 0.0, 0.01);
}

TEST(LinearTest, ForwardShapeAndBias) {
  Rng rng(2);
  nn::Linear layer(4, 3, rng);
  Variable x(Tensor({2, 4}, 0.0f), false);
  Variable y = layer.Forward(x);
  EXPECT_EQ(y.value().dim(0), 2);
  EXPECT_EQ(y.value().dim(1), 3);
  // Zero input -> output equals bias (initialized to zero).
  for (int64_t i = 0; i < y.value().size(); ++i) {
    EXPECT_FLOAT_EQ(y.value()[i], 0.0f);
  }
}

TEST(LinearTest, ParameterCount) {
  Rng rng(3);
  nn::Linear layer(4, 3, rng);
  EXPECT_EQ(layer.ParameterCount(), 4 * 3 + 3);
}

TEST(ConvLayerTest, ShapesAcrossRanks) {
  Rng rng(4);
  nn::ConvStack c1(1, 2, {5}, 3, rng);
  nn::ConvStack c2(2, 2, {5}, 3, rng);
  nn::ConvStack c3(3, 2, {5}, 3, rng);
  Variable x1(Tensor({1, 2, 8}), false);
  Variable x2(Tensor({1, 2, 4, 6}), false);
  Variable x3(Tensor({1, 2, 4, 6, 8}), false);
  EXPECT_EQ(c1.Forward(x1).value().shape(), (std::vector<int64_t>{1, 5, 8}));
  EXPECT_EQ(c2.Forward(x2).value().shape(),
            (std::vector<int64_t>{1, 5, 4, 6}));
  EXPECT_EQ(c3.Forward(x3).value().shape(),
            (std::vector<int64_t>{1, 5, 4, 6, 8}));
}

TEST(ConvStackTest, PaperStack) {
  // The paper's 16/32/1 stack maps C channels to a single feature.
  Rng rng(5);
  nn::ConvStack stack(2, 3, {16, 32, 1}, 3, rng);
  Variable x(Tensor({2, 3, 5, 4}), false);
  Variable y = stack.Forward(x);
  EXPECT_EQ(y.value().shape(), (std::vector<int64_t>{2, 1, 5, 4}));
  EXPECT_EQ(stack.out_channels(), 1);
}

TEST(ConvStackTest, ParameterCountMatchesFormula) {
  Rng rng(6);
  nn::ConvStack stack(1, 2, {4, 3}, 3, rng);
  // layer1: 4*2*3 + 4 ; layer2: 3*4*3 + 3.
  EXPECT_EQ(stack.ParameterCount(), (4 * 2 * 3 + 4) + (3 * 4 * 3 + 3));
}

TEST(ActivationTest, SigmoidRange) {
  Rng rng(7);
  Variable x(Tensor::RandomUniform({100}, rng, -10.0f, 10.0f), false);
  Variable y = nn::Activate(x, nn::Activation::kSigmoid);
  EXPECT_GT(y.value().Min(), 0.0f);
  EXPECT_LT(y.value().Max(), 1.0f);
}

TEST(AdamTest, MinimizesQuadratic) {
  // Minimize (x - 3)^2 elementwise.
  Variable x(Tensor({4}, 0.0f), true);
  nn::AdamOptions options;
  options.learning_rate = 0.1;
  options.decay_rate = 1.0;  // no decay
  nn::Adam adam({x}, options);
  for (int step = 0; step < 300; ++step) {
    Variable d = ag::AddScalar(x, -3.0f);
    Variable loss = ag::SumAll(ag::Mul(d, d));
    Backward(loss);
    adam.Step();
  }
  for (int64_t i = 0; i < 4; ++i) EXPECT_NEAR(x.value()[i], 3.0f, 0.01f);
}

TEST(AdamTest, LearningRateDecays) {
  Variable x(Tensor({1}, 0.0f), true);
  nn::AdamOptions options;
  options.learning_rate = 1.0;
  options.decay_rate = 0.5;
  options.decay_steps = 10;
  nn::Adam adam({x}, options);
  EXPECT_DOUBLE_EQ(adam.CurrentLearningRate(), 1.0);
  for (int step = 0; step < 10; ++step) {
    Backward(ag::SumAll(x));
    adam.Step();
  }
  EXPECT_NEAR(adam.CurrentLearningRate(), 0.5, 1e-12);
}

TEST(AdamTest, SkipsParamsWithoutGrad) {
  Variable x(Tensor({1}, 1.0f), true);
  Variable unused(Tensor({1}, 5.0f), true);
  nn::Adam adam({x, unused}, {});
  Backward(ag::SumAll(x));
  adam.Step();
  EXPECT_FLOAT_EQ(unused.value()[0], 5.0f);  // untouched
  EXPECT_NE(x.value()[0], 1.0f);
}

TEST(AdamTest, GradientClippingBoundsUpdate) {
  Variable x(Tensor({1}, 0.0f), true);
  nn::AdamOptions options;
  options.learning_rate = 1.0;
  options.decay_rate = 1.0;
  options.clip_norm = 1e-3;  // Essentially freezes progress per step.
  nn::Adam adam({x}, options);
  Variable loss = ag::SumAll(ag::MulScalar(x, 1000.0f));
  Backward(loss);
  adam.Step();
  // Adam normalizes by sqrt(v), so even clipped the step is bounded by
  // lr; verify no explosion.
  EXPECT_LE(std::fabs(x.value()[0]), 1.5f);
}

TEST(SgdTest, DescendsLinearLoss) {
  Variable x(Tensor({2}, 1.0f), true);
  nn::Sgd sgd({x}, 0.1);
  Backward(ag::SumAll(x));  // grad = 1
  sgd.Step();
  EXPECT_FLOAT_EQ(x.value()[0], 0.9f);
}

TEST(TrainingTest, LinearRegressionConverges) {
  // y = 2x + 1 learned by a Linear layer via Adam on MAE... use MSE-ish
  // via Mul for smoothness.
  Rng rng(8);
  nn::Linear layer(1, 1, rng);
  nn::AdamOptions options;
  options.learning_rate = 0.05;
  options.decay_rate = 1.0;
  nn::Adam adam(layer.Parameters(), options);
  for (int step = 0; step < 400; ++step) {
    Tensor xs({8, 1});
    Tensor ys({8, 1});
    for (int i = 0; i < 8; ++i) {
      const float x = static_cast<float>(rng.Uniform(-1.0, 1.0));
      xs[i] = x;
      ys[i] = 2.0f * x + 1.0f;
    }
    Variable pred = layer.Forward(Variable(xs));
    Variable err = ag::Sub(pred, Variable(ys));
    Backward(ag::MeanAll(ag::Mul(err, err)));
    adam.Step();
  }
  EXPECT_NEAR(layer.weight().value()[0], 2.0f, 0.1f);
  EXPECT_NEAR(layer.bias().value()[0], 1.0f, 0.1f);
}

TEST(ModuleTest, JoinParameters) {
  Rng rng(9);
  nn::Linear a(2, 2, rng), b(2, 2, rng);
  const auto params = nn::JoinParameters({&a, &b});
  EXPECT_EQ(params.size(), 4u);
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(10);
  nn::Linear layer(2, 1, rng);
  Variable x(Tensor({1, 2}, 1.0f), false);
  Backward(ag::SumAll(layer.Forward(x)));
  EXPECT_TRUE(layer.Parameters()[0].grad_ready());
  layer.ZeroGrad();
  EXPECT_FALSE(layer.Parameters()[0].grad_ready());
}

}  // namespace
}  // namespace equitensor
