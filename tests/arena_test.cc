#include <gtest/gtest.h>

#include "autograd/conv_ops.h"
#include "autograd/ops.h"
#include "nn/backend_registry.h"
#include "tensor/tensor.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace equitensor {
namespace {

// Allocation-count probe for the scratch arena (DESIGN.md §13): after
// one warm-up pass has planned every scratch shape, the conv/GEMM
// kernels must run arbitrarily many more steps without a single fresh
// heap allocation from the arena — acquires are all free-list reuses.

class ArenaTest : public ::testing::Test {
 protected:
  void SetUp() override { Arena::Global().ResetForTesting(); }
  void TearDown() override {
    backend::SetBackend(backend::Backend::kFast);
    SetNumThreads(0);
  }
};

TEST_F(ArenaTest, AcquireReusesSameSizeClass) {
  Arena arena;
  {
    ArenaBuffer a(arena, 100);
    ASSERT_NE(a.data(), nullptr);
    EXPECT_GE(a.count(), 100);
  }
  EXPECT_EQ(arena.stats().allocations, 1u);
  {
    // 100 and 200 round up to the same power-of-two class (min 256).
    ArenaBuffer b(arena, 200);
    ASSERT_NE(b.data(), nullptr);
  }
  EXPECT_EQ(arena.stats().allocations, 1u);
  EXPECT_EQ(arena.stats().reuses, 1u);
  EXPECT_EQ(arena.stats().outstanding, 0u);
}

TEST_F(ArenaTest, ClassStatsTrackHeatPerSizeClass) {
  // Per-class heat stats (DESIGN.md §17): refills vs reuses, live
  // leases, and the high watermark that sizes the class's steady-state
  // footprint — all surfaced on /debug/counters.
  Arena arena;
  EXPECT_TRUE(arena.class_stats().empty());
  {
    ArenaBuffer a(arena, 100);
    ArenaBuffer b(arena, 120);  // same power-of-two class as a
    ArenaBuffer big(arena, 1 << 20);
    std::vector<Arena::ClassStats> classes = arena.class_stats();
    ASSERT_EQ(classes.size(), 2u);
    // Sorted by size_class ascending: the small class first.
    EXPECT_LT(classes[0].size_class, classes[1].size_class);
    EXPECT_EQ(classes[0].refills, 2u);
    EXPECT_EQ(classes[0].reuses, 0u);
    EXPECT_EQ(classes[0].outstanding, 2u);
    EXPECT_EQ(classes[0].high_watermark, 2u);
    EXPECT_EQ(classes[1].refills, 1u);
    EXPECT_EQ(classes[1].outstanding, 1u);
  }
  {
    // Both small leases returned; re-acquiring one is a pure reuse and
    // must not move the watermark.
    ArenaBuffer c(arena, 90);
    const std::vector<Arena::ClassStats> classes = arena.class_stats();
    ASSERT_EQ(classes.size(), 2u);
    EXPECT_EQ(classes[0].refills, 2u);
    EXPECT_EQ(classes[0].reuses, 1u);
    EXPECT_EQ(classes[0].outstanding, 1u);
    EXPECT_EQ(classes[0].high_watermark, 2u);
    EXPECT_DOUBLE_EQ(classes[0].ReuseRate(), 1.0 / 3.0);
    EXPECT_EQ(classes[1].outstanding, 0u);
    EXPECT_EQ(classes[1].high_watermark, 1u);
    // bytes_reserved counts refills only — reuse is free.
    EXPECT_EQ(classes[0].bytes_reserved,
              classes[0].refills * static_cast<uint64_t>(
                                       classes[0].size_class) *
                  sizeof(float));
  }
  arena.ResetForTesting();
  EXPECT_TRUE(arena.class_stats().empty());
}

TEST_F(ArenaTest, DistinctClassesAllocateSeparately) {
  Arena arena;
  {
    ArenaBuffer small(arena, 10);
    ArenaBuffer big(arena, 1 << 20);
    EXPECT_EQ(arena.stats().outstanding, 2u);
  }
  EXPECT_EQ(arena.stats().allocations, 2u);
  {
    ArenaBuffer small(arena, 10);
    ArenaBuffer big(arena, 1 << 20);
  }
  EXPECT_EQ(arena.stats().allocations, 2u);
  EXPECT_EQ(arena.stats().reuses, 2u);
}

TEST_F(ArenaTest, ZeroClearsLeasedSpanOnly) {
  Arena arena;
  ArenaBuffer buf(arena, 64);
  for (int64_t i = 0; i < 64; ++i) buf.data()[i] = 3.0f;
  buf.Zero();
  for (int64_t i = 0; i < 64; ++i) EXPECT_EQ(buf.data()[i], 0.0f);
}

TEST_F(ArenaTest, MoveTransfersOwnership) {
  Arena arena;
  ArenaBuffer a(arena, 32);
  float* p = a.data();
  ArenaBuffer b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(arena.stats().outstanding, 1u);
  a = std::move(b);
  EXPECT_EQ(a.data(), p);
  EXPECT_EQ(arena.stats().outstanding, 1u);
}

// One forward+backward conv3d step plus a MatMul layer — the shapes a
// training loop repeats every step.
void TrainStep(const Tensor& x, const Tensor& w, const Tensor& a,
               const Tensor& b) {
  Variable xv(x, true);
  Variable wv(w, true);
  Variable loss = ag::SumAll(ag::Conv3d(xv, wv));
  Backward(loss);
  Variable av(a, true);
  Variable bv(b, true);
  Variable mm = ag::SumAll(ag::MatMul(av, bv));
  Backward(mm);
}

TEST_F(ArenaTest, SteadyStateTrainingLoopStopsAllocating) {
  backend::SetBackend(backend::Backend::kFast);
  SetNumThreads(2);
  Rng rng(5);
  Tensor x = Tensor::RandomUniform({2, 3, 6, 5, 4}, rng);
  Tensor w = Tensor::RandomUniform({4, 3, 3, 3, 3}, rng);
  Tensor a = Tensor::RandomUniform({24, 40}, rng);
  Tensor b = Tensor::RandomUniform({40, 16}, rng);

  TrainStep(x, w, a, b);  // warm-up plans every scratch shape
  const uint64_t warm = Arena::Global().stats().allocations;
  EXPECT_GT(warm, 0u) << "fast kernels should lease arena scratch";

  for (int step = 0; step < 5; ++step) TrainStep(x, w, a, b);
  const Arena::Stats after = Arena::Global().stats();
  EXPECT_EQ(after.allocations, warm)
      << "steady-state conv/GEMM kernels must not allocate";
  EXPECT_GT(after.reuses, 0u);
  EXPECT_EQ(after.outstanding, 0u) << "scratch leaked past the op";
}

TEST_F(ArenaTest, ReferenceBackendMatMulPackingReusesArena) {
  backend::SetBackend(backend::Backend::kReference);
  Rng rng(6);
  // Gradient GEMMs pack transposed operands through the arena.
  Tensor a = Tensor::RandomUniform({12, 20}, rng);
  Tensor b = Tensor::RandomUniform({20, 8}, rng);
  Variable av(a, true);
  Variable bv(b, true);
  Backward(ag::SumAll(ag::MatMul(av, bv)));
  const uint64_t warm = Arena::Global().stats().allocations;
  for (int step = 0; step < 3; ++step) {
    Variable av2(a, true);
    Variable bv2(b, true);
    Backward(ag::SumAll(ag::MatMul(av2, bv2)));
  }
  EXPECT_EQ(Arena::Global().stats().allocations, warm);
}

}  // namespace
}  // namespace equitensor
