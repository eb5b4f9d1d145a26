#include <gtest/gtest.h>

#include "autograd/conv_ops.h"
#include "autograd/grad_check.h"
#include "autograd/ops.h"

namespace equitensor {
namespace {

TEST(Conv1dTest, IdentityKernel) {
  // Kernel [0, 1, 0] reproduces the input.
  Variable x(Tensor::FromData({1, 1, 5}, {1, 2, 3, 4, 5}), false);
  Variable w(Tensor::FromData({1, 1, 3}, {0, 1, 0}), false);
  Variable y = ag::Conv1d(x, w);
  EXPECT_TRUE(AllClose(y.value(), x.value()));
}

TEST(Conv1dTest, ShiftKernelZeroPads) {
  // Kernel [1, 0, 0] shifts left neighbor in; boundary sees zero pad.
  Variable x(Tensor::FromData({1, 1, 4}, {1, 2, 3, 4}), false);
  Variable w(Tensor::FromData({1, 1, 3}, {1, 0, 0}), false);
  Variable y = ag::Conv1d(x, w);
  EXPECT_TRUE(AllClose(y.value(), Tensor::FromData({1, 1, 4}, {0, 1, 2, 3})));
}

TEST(Conv1dTest, MultiChannelSumsContributions) {
  Variable x(Tensor::FromData({1, 2, 3}, {1, 2, 3, 10, 20, 30}), false);
  // One output channel, identity on both input channels.
  Variable w(Tensor::FromData({1, 2, 3}, {0, 1, 0, 0, 1, 0}), false);
  Variable y = ag::Conv1d(x, w);
  EXPECT_TRUE(AllClose(y.value(), Tensor::FromData({1, 1, 3}, {11, 22, 33})));
}

TEST(Conv1dTest, BatchIndependence) {
  Rng rng(3);
  Tensor batch = Tensor::RandomUniform({2, 1, 6}, rng);
  Tensor weights = Tensor::RandomUniform({2, 1, 3}, rng);
  Variable y_batch = ag::Conv1d(Variable(batch), Variable(weights));
  // Each sample convolved alone must match its batched row.
  for (int64_t n = 0; n < 2; ++n) {
    Tensor single({1, 1, 6});
    std::copy(batch.data() + n * 6, batch.data() + (n + 1) * 6, single.data());
    Variable y_single = ag::Conv1d(Variable(single), Variable(weights));
    for (int64_t i = 0; i < y_single.value().size(); ++i) {
      EXPECT_FLOAT_EQ(y_single.value()[i], y_batch.value()[n * 2 * 6 + i]);
    }
  }
}

TEST(Conv2dTest, IdentityKernel) {
  Rng rng(4);
  Tensor input = Tensor::RandomUniform({1, 1, 4, 5}, rng);
  Tensor w({1, 1, 3, 3});
  w.at({0, 0, 1, 1}) = 1.0f;
  Variable y = ag::Conv2d(Variable(input), Variable(w));
  EXPECT_TRUE(AllClose(y.value(), input));
}

TEST(Conv2dTest, BoxFilterCenter) {
  // All-ones 3x3 kernel on all-ones input: interior cells see 9,
  // corners 4, edges 6.
  Tensor input({1, 1, 3, 3}, 1.0f);
  Tensor w({1, 1, 3, 3}, 1.0f);
  Variable y = ag::Conv2d(Variable(input), Variable(w));
  EXPECT_FLOAT_EQ(y.value().at({0, 0, 1, 1}), 9.0f);
  EXPECT_FLOAT_EQ(y.value().at({0, 0, 0, 0}), 4.0f);
  EXPECT_FLOAT_EQ(y.value().at({0, 0, 0, 1}), 6.0f);
}

TEST(Conv3dTest, IdentityKernel) {
  Rng rng(5);
  Tensor input = Tensor::RandomUniform({1, 1, 3, 4, 5}, rng);
  Tensor w({1, 1, 3, 3, 3});
  w.at({0, 0, 1, 1, 1}) = 1.0f;
  Variable y = ag::Conv3d(Variable(input), Variable(w));
  EXPECT_TRUE(AllClose(y.value(), input));
}

TEST(Conv3dTest, AllOnesCenterCount) {
  Tensor input({1, 1, 3, 3, 3}, 1.0f);
  Tensor w({1, 1, 3, 3, 3}, 1.0f);
  Variable y = ag::Conv3d(Variable(input), Variable(w));
  EXPECT_FLOAT_EQ(y.value().at({0, 0, 1, 1, 1}), 27.0f);
  EXPECT_FLOAT_EQ(y.value().at({0, 0, 0, 0, 0}), 8.0f);
}

TEST(Conv3dTest, OutputShape) {
  Rng rng(6);
  Variable x(Tensor::RandomUniform({2, 3, 4, 5, 6}, rng), false);
  Variable w(Tensor::RandomUniform({7, 3, 3, 3, 3}, rng), false);
  Variable y = ag::Conv3d(x, w);
  const std::vector<int64_t> expected = {2, 7, 4, 5, 6};
  EXPECT_EQ(y.value().shape(), expected);
}

// --- Finite-difference checks for all three convolutions ---

struct ConvGradCase {
  const char* name;
  std::vector<int64_t> x_shape;
  std::vector<int64_t> w_shape;
  int rank;
};

// Prints the case name, so test names carry no pointer bytes.
void PrintTo(const ConvGradCase& c, std::ostream* os) { *os << c.name; }

class ConvGradTest : public ::testing::TestWithParam<ConvGradCase> {};

TEST_P(ConvGradTest, MatchesFiniteDifferences) {
  const ConvGradCase& c = GetParam();
  Rng rng(77);
  Tensor x = Tensor::RandomUniform(c.x_shape, rng, -1.0f, 1.0f);
  Tensor w = Tensor::RandomUniform(c.w_shape, rng, -0.5f, 0.5f);
  const int rank = c.rank;
  const auto fn = [rank](std::vector<Variable>& v) {
    Variable y;
    switch (rank) {
      case 1:
        y = ag::Conv1d(v[0], v[1]);
        break;
      case 2:
        y = ag::Conv2d(v[0], v[1]);
        break;
      default:
        y = ag::Conv3d(v[0], v[1]);
        break;
    }
    return ag::SumAll(ag::Sigmoid(y));
  };
  const auto result = CheckGradients(fn, {x, w}, {true, true});
  EXPECT_TRUE(result.ok) << c.name << ": " << result.detail;
}

INSTANTIATE_TEST_SUITE_P(
    AllConvs, ConvGradTest,
    ::testing::Values(
        ConvGradCase{"conv1d_k3", {2, 2, 6}, {3, 2, 3}, 1},
        ConvGradCase{"conv1d_k5", {1, 1, 7}, {2, 1, 5}, 1},
        ConvGradCase{"conv2d_k3", {2, 2, 4, 3}, {2, 2, 3, 3}, 2},
        ConvGradCase{"conv2d_small_grid", {1, 1, 2, 2}, {1, 1, 3, 3}, 2},
        ConvGradCase{"conv3d_k3", {1, 2, 3, 3, 4}, {2, 2, 3, 3, 3}, 3},
        ConvGradCase{"conv3d_tiny", {1, 1, 2, 2, 3}, {1, 1, 3, 3, 3}, 3}),
    [](const ::testing::TestParamInfo<ConvGradCase>& info) {
      return std::string(info.param.name);
    });

TEST(ConvDeathTest, EvenKernelAborts) {
  Variable x(Tensor({1, 1, 4}), false);
  Variable w(Tensor({1, 1, 2}), false);
  EXPECT_DEATH(ag::Conv1d(x, w), "odd kernel");
}

TEST(ConvDeathTest, ChannelMismatchAborts) {
  Variable x(Tensor({1, 2, 4}), false);
  Variable w(Tensor({1, 3, 3}), false);
  EXPECT_DEATH(ag::Conv1d(x, w), "Cin mismatch");
}

}  // namespace
}  // namespace equitensor
