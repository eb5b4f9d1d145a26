#include <gtest/gtest.h>

#include <cstring>

#include "autograd/conv_ops.h"
#include "autograd/ops.h"
#include "util/thread_pool.h"

namespace equitensor {
namespace {

// The execution layer's determinism contract (util/thread_pool.h,
// DESIGN.md §8): convolution outputs AND gradients are bitwise
// identical for any thread count, and identical to the serial
// reference (threads = 1 never touches the pool). The shapes are
// chosen large enough that the 2- and 8-thread runs genuinely
// partition the index space into multiple chunks.

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

struct ConvRun {
  Tensor y, gx, gw;
};

// Forward + backward with d(loss)/dy fixed by `seed_grad` so gradient
// values are identical across runs: loss = sum(y * seed_grad).
ConvRun RunConv(int rank, const Tensor& x, const Tensor& w,
                const Tensor& seed_grad, int threads) {
  SetNumThreads(threads);
  Variable xv(x, true), wv(w, true);
  Variable y;
  switch (rank) {
    case 1:
      y = ag::Conv1d(xv, wv);
      break;
    case 2:
      y = ag::Conv2d(xv, wv);
      break;
    default:
      y = ag::Conv3d(xv, wv);
      break;
  }
  Variable loss = ag::SumAll(ag::Mul(y, Variable(seed_grad)));
  Backward(loss);
  SetNumThreads(1);
  return {y.value(), xv.grad(), wv.grad()};
}

struct DeterminismCase {
  const char* name;
  int rank;
  std::vector<int64_t> x_shape;
  std::vector<int64_t> w_shape;
};

// Prints the case name, so test names carry no pointer bytes.
void PrintTo(const DeterminismCase& c, std::ostream* os) { *os << c.name; }

class ConvDeterminismTest : public ::testing::TestWithParam<DeterminismCase> {
 protected:
  ~ConvDeterminismTest() override { SetNumThreads(0); }
};

TEST_P(ConvDeterminismTest, BitwiseEqualAcrossThreadCounts) {
  const DeterminismCase& c = GetParam();
  Rng rng(314);
  const Tensor x = Tensor::RandomUniform(c.x_shape, rng, -1.0f, 1.0f);
  const Tensor w = Tensor::RandomUniform(c.w_shape, rng, -0.5f, 0.5f);
  std::vector<int64_t> y_shape = c.x_shape;
  y_shape[1] = c.w_shape[0];
  const Tensor seed_grad = Tensor::RandomUniform(y_shape, rng, -1.0f, 1.0f);

  const ConvRun serial = RunConv(c.rank, x, w, seed_grad, 1);
  for (int threads : {2, 8}) {
    const ConvRun parallel = RunConv(c.rank, x, w, seed_grad, threads);
    EXPECT_TRUE(BitwiseEqual(parallel.y, serial.y))
        << c.name << ": forward differs at " << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(parallel.gx, serial.gx))
        << c.name << ": input gradient differs at " << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(parallel.gw, serial.gw))
        << c.name << ": weight gradient differs at " << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllConvs, ConvDeterminismTest,
    ::testing::Values(
        DeterminismCase{"conv1d", 1, {4, 6, 512}, {8, 6, 5}},
        DeterminismCase{"conv2d", 2, {3, 4, 24, 20}, {8, 4, 3, 3}},
        DeterminismCase{"conv3d", 3, {2, 4, 10, 8, 12}, {6, 4, 3, 3, 3}}),
    [](const ::testing::TestParamInfo<DeterminismCase>& info) {
      return std::string(info.param.name);
    });

// A full two-step training loop (parameter update feeding the second
// forward) must also be bitwise-reproducible across thread counts.
TEST(ConvDeterminismTest, TwoStepSgdTrajectoryMatchesSerial) {
  Rng rng(2718);
  const Tensor x = Tensor::RandomUniform({2, 4, 10, 8, 12}, rng, -1.0f, 1.0f);
  const Tensor w0 = Tensor::RandomUniform({6, 4, 3, 3, 3}, rng, -0.5f, 0.5f);
  const Tensor target({2, 6, 10, 8, 12}, 0.1f);

  auto train = [&](int threads) {
    SetNumThreads(threads);
    Variable w(w0, true);
    for (int step = 0; step < 2; ++step) {
      w.ZeroGrad();
      Variable loss = ag::MaeAgainst(ag::Conv3d(Variable(x), w), target);
      Backward(loss);
      for (int64_t i = 0; i < w.size(); ++i) {
        w.mutable_value()[i] -= 0.05f * w.grad()[i];
      }
    }
    SetNumThreads(1);
    return w.value();
  };

  const Tensor serial = train(1);
  for (int threads : {2, 8}) {
    EXPECT_TRUE(BitwiseEqual(train(threads), serial))
        << "trajectory diverged at " << threads << " threads";
  }
  SetNumThreads(0);
}

}  // namespace
}  // namespace equitensor
