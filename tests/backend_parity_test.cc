#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "autograd/conv_ops.h"
#include "autograd/grad_check.h"
#include "autograd/ops.h"
#include "nn/backend_registry.h"
#include "nn/kernels_simd.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace equitensor {
namespace {

// Parity suite for the kernel backend registry (DESIGN.md §13): the
// fast backend's SIMD base kernels (im2col + blocked GEMM) must match
// the reference scalar loops within CheckTolerance on every shape —
// including degenerate ones the blocking logic could mishandle — at
// any thread count, and must be bitwise-deterministic across thread
// counts on their own.

class BackendParityTest : public ::testing::Test {
 protected:
  ~BackendParityTest() override {
    backend::SetBackend(backend::Backend::kFast);
    SetNumThreads(0);
  }
};

void ExpectClose(const Tensor& ref, const Tensor& got, int64_t reduction,
                 const std::string& what) {
  ASSERT_TRUE(ref.SameShape(got)) << what;
  const float tol = backend::CheckTolerance(reduction, ref.AbsMax());
  float max_diff = 0.0f;
  for (int64_t i = 0; i < ref.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(ref[i] - got[i]));
  }
  EXPECT_LE(max_diff, tol) << what << ": max elementwise diff " << max_diff
                           << " exceeds tolerance " << tol;
}

struct ParityCase {
  const char* name;
  std::vector<int64_t> x_shape;  // rank decides conv1d/2d/3d
  std::vector<int64_t> w_shape;
};

// Shapes chosen to stress the lowering: kernel larger than the input
// (pure padding columns in im2col), channel counts that don't divide
// the 6x16 micro-tile (1 / 3 / 17), batch 1 vs N, and 24-long t lines,
// whose 16-column tiles alternate between one line and two (read in
// place as two 8-column halves).
const ParityCase kCases[] = {
    {"conv1d_basic", {2, 3, 8}, {4, 3, 3}},
    {"conv1d_kernel_gt_input", {1, 1, 2}, {2, 1, 5}},
    {"conv2d_c1", {1, 1, 5, 4}, {3, 1, 3, 3}},
    {"conv2d_c3_batch4", {4, 3, 6, 5}, {5, 3, 3, 3}},
    {"conv2d_c17", {2, 17, 4, 4}, {6, 17, 3, 3}},
    {"conv2d_kernel_gt_input", {1, 2, 2, 2}, {2, 2, 5, 5}},
    {"conv3d_c1_batch1", {1, 1, 3, 3, 3}, {1, 1, 3, 3, 3}},
    {"conv3d_c3", {2, 3, 4, 3, 5}, {4, 3, 3, 3, 3}},
    {"conv3d_c17", {1, 17, 3, 3, 3}, {2, 17, 3, 3, 3}},
    {"conv3d_kernel_gt_input", {2, 2, 2, 2, 2}, {3, 2, 5, 5, 5}},
    {"conv3d_batch5", {5, 2, 3, 4, 3}, {3, 2, 3, 3, 3}},
    {"conv3d_t24_lines", {2, 2, 3, 2, 24}, {3, 2, 3, 3, 3}},
};

struct ConvResult {
  Tensor y, gx, gw;
};

// Runs forward + full backward (upstream gradient = 1) for one case on
// the currently selected backend.
ConvResult RunConv(const ParityCase& c, unsigned seed) {
  Rng rng(seed);
  Tensor x = Tensor::RandomUniform(c.x_shape, rng, -1.0f, 1.0f);
  Tensor w = Tensor::RandomUniform(c.w_shape, rng, -1.0f, 1.0f);
  Variable xv(x, true);
  Variable wv(w, true);
  Variable y;
  switch (static_cast<int>(c.x_shape.size())) {
    case 3:
      y = ag::Conv1d(xv, wv);
      break;
    case 4:
      y = ag::Conv2d(xv, wv);
      break;
    default:
      y = ag::Conv3d(xv, wv);
      break;
  }
  Variable loss = ag::SumAll(y);
  Backward(loss);
  return {y.value(), xv.grad(), wv.grad()};
}

int64_t ReductionFor(const ParityCase& c) {
  int64_t r = c.w_shape[1];
  for (size_t i = 2; i < c.w_shape.size(); ++i) r *= c.w_shape[i];
  return r;
}

TEST_F(BackendParityTest, SimdMatchesReferenceAcrossShapesAndThreads) {
  for (int threads : {1, 2, 8}) {
    SetNumThreads(threads);
    for (const ParityCase& c : kCases) {
      backend::SetBackend(backend::Backend::kReference);
      const ConvResult ref = RunConv(c, 99);
      backend::SetBackend(backend::Backend::kFast);
      const ConvResult simd = RunConv(c, 99);
      const std::string tag =
          std::string(c.name) + " @" + std::to_string(threads) + "t";
      const int64_t red = ReductionFor(c);
      ExpectClose(ref.y, simd.y, red, tag + " forward");
      // gx reduces over cout * k^d; gw over batch * spatial. Use the
      // larger so one bound covers both.
      const int64_t bwd_red =
          std::max<int64_t>(red * c.w_shape[0] / c.w_shape[1],
                            ref.gx.size() / c.x_shape[1]);
      ExpectClose(ref.gx, simd.gx, bwd_red, tag + " gx");
      ExpectClose(ref.gw, simd.gw, bwd_red, tag + " gw");
    }
  }
}

TEST_F(BackendParityTest, SimdBitwiseDeterministicAcrossThreadCounts) {
  backend::SetBackend(backend::Backend::kFast);
  SetNumThreads(1);
  const ConvResult base = RunConv(kCases[7], 123);  // conv3d_c3
  for (int threads : {2, 8}) {
    SetNumThreads(threads);
    const ConvResult got = RunConv(kCases[7], 123);
    const auto expect_bitwise = [threads](const Tensor& want, const Tensor& have,
                                          const char* what) {
      ASSERT_EQ(want.size(), have.size());
      ASSERT_EQ(std::memcmp(want.data(), have.data(),
                            sizeof(float) * want.size()),
                0)
          << what << " not bitwise at " << threads << " threads";
    };
    expect_bitwise(base.y, got.y, "forward");
    expect_bitwise(base.gx, got.gx, "gx");
    expect_bitwise(base.gw, got.gw, "gw");
  }
}

TEST_F(BackendParityTest, GradCheckThroughSimdBackward) {
  backend::SetBackend(backend::Backend::kFast);
  Rng rng(7);
  Tensor x = Tensor::RandomUniform({1, 2, 3, 3, 4}, rng, -1.0f, 1.0f);
  Tensor w = Tensor::RandomUniform({2, 2, 3, 3, 3}, rng, -0.5f, 0.5f);
  const auto fn = [](std::vector<Variable>& v) {
    return ag::SumAll(ag::Sigmoid(ag::Conv3d(v[0], v[1])));
  };
  const auto result = CheckGradients(fn, {x, w}, {true, true});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST_F(BackendParityTest, GradCheckThroughSimdMatMul) {
  backend::SetBackend(backend::Backend::kFast);
  Rng rng(8);
  Tensor a = Tensor::RandomUniform({5, 7}, rng, -1.0f, 1.0f);
  Tensor b = Tensor::RandomUniform({7, 4}, rng, -1.0f, 1.0f);
  const auto fn = [](std::vector<Variable>& v) {
    return ag::SumAll(ag::Sigmoid(ag::MatMul(v[0], v[1])));
  };
  const auto result = CheckGradients(fn, {a, b}, {true, true});
  EXPECT_TRUE(result.ok) << result.detail;
}

TEST_F(BackendParityTest, MatMulParityIncludingTransposedOperands) {
  Rng rng(31);
  // Odd sizes so both the 6-row and 16-column micro-tile edges run.
  const int64_t m = 23, k = 19, n = 37;
  Tensor a = Tensor::RandomUniform({m, k}, rng, -1.0f, 1.0f);
  Tensor b = Tensor::RandomUniform({k, n}, rng, -1.0f, 1.0f);
  Tensor at = Transpose2d(a);
  Tensor bt = Transpose2d(b);
  const backend::MatMulSpec specs[] = {
      {m, k, n, false, false, false},
      {m, k, n, false, true, false},
      {m, k, n, true, false, false},
      {m, k, n, true, true, false},
      {m, k, n, false, false, true},
  };
  for (const backend::MatMulSpec& spec : specs) {
    const float* pa = spec.trans_a ? at.data() : a.data();
    const float* pb = spec.trans_b ? bt.data() : b.data();
    Tensor ref({m, n}, spec.accumulate ? 0.5f : 0.0f);
    Tensor simd({m, n}, spec.accumulate ? 0.5f : 0.0f);
    backend::ResolveKernelFn<backend::MatMulFn>("matmul", "reference")(
        spec, pa, pb, ref.data());
    backend::ResolveKernelFn<backend::MatMulFn>("matmul", "fast")(
        spec, pa, pb, simd.data());
    ExpectClose(ref, simd, k,
                std::string("matmul ta=") + (spec.trans_a ? "1" : "0") +
                    " tb=" + (spec.trans_b ? "1" : "0") +
                    " acc=" + (spec.accumulate ? "1" : "0"));
  }
}

TEST_F(BackendParityTest, GemmRowMajorMatchesNaiveOnTileEdges) {
  Rng rng(57);
  for (int64_t m : {1, 5, 6, 7, 96, 97}) {
    for (int64_t n : {1, 15, 16, 17, 240}) {
      const int64_t k = 33;
      Tensor a = Tensor::RandomUniform({m, k}, rng, -1.0f, 1.0f);
      Tensor b = Tensor::RandomUniform({k, n}, rng, -1.0f, 1.0f);
      Tensor c({m, n});
      backend::GemmRowMajor(m, n, k, a.data(), k, b.data(), n, c.data(), n,
                            /*accumulate=*/false);
      Tensor ref = MatMul(a, b);
      ExpectClose(ref, c,
                  k, "gemm " + std::to_string(m) + "x" + std::to_string(n));
    }
  }
}

TEST_F(BackendParityTest, CheckModeRunsAndKeepsSimdResult) {
  backend::SetBackend(backend::Backend::kCheck);
  SetNumThreads(2);
  for (const ParityCase& c : {kCases[3], kCases[7]}) {
    const ConvResult got = RunConv(c, 11);  // aborts on divergence
    backend::SetBackend(backend::Backend::kFast);
    const ConvResult fast = RunConv(c, 11);
    backend::SetBackend(backend::Backend::kCheck);
    for (int64_t i = 0; i < got.y.size(); ++i) {
      ASSERT_EQ(got.y[i], fast.y[i]) << "check mode must keep the fast result";
    }
  }
}

TEST_F(BackendParityTest, RegistryListsAllBuiltinKernels) {
  const auto kernels = backend::ListKernels();
  const auto registered = [&](const char* op, const char* be) {
    for (const auto& [k_op, k_be] : kernels) {
      if (k_op == op && k_be == be) return true;
    }
    return false;
  };
  const char* ops[] = {"conv1d_fwd", "conv1d_bwd", "conv2d_fwd", "conv2d_bwd",
                       "conv3d_fwd", "conv3d_bwd", "matmul"};
  // Every selectable backend except check (which composes the others)
  // owns a full base-op table.
  for (const std::string& be : backend::BackendNames()) {
    if (be == "check") continue;
    for (const char* op : ops) {
      EXPECT_TRUE(registered(op, be.c_str())) << op << "/" << be
                                              << " not registered";
    }
  }
  // The fused op keys exist only under "fast"; reference reaches them
  // through the registry's decomposition path.
  const char* fused_ops[] = {"conv_bias_act_fwd", "conv_bias_act_bwd",
                             "concat_conv_bias_act_fwd",
                             "concat_conv_bias_act_bwd"};
  for (const char* op : fused_ops) {
    EXPECT_TRUE(registered(op, "fast")) << op << "/fast not registered";
    EXPECT_FALSE(registered(op, "reference")) << op << " should be fast-only";
  }
  // Nothing is registered under a name the selector does not accept.
  const std::vector<std::string> names = backend::BackendNames();
  for (const auto& [op, be] : kernels) {
    EXPECT_NE(std::find(names.begin(), names.end(), be), names.end())
        << op << " registered under unknown backend " << be;
  }
}

TEST_F(BackendParityTest, ParseBackendRoundTrips) {
  backend::Backend b;
  const std::vector<std::string> names = backend::BackendNames();
  EXPECT_EQ(backend::BackendNameList(), "reference | fast | check");
  for (const std::string& name : names) {
    ASSERT_TRUE(backend::ParseBackend(name, &b)) << name;
    EXPECT_EQ(backend::BackendName(b), name);
  }
  // The retired names are gone, with no aliases.
  for (const char* retired : {"parallel", "simd", "fused", "cuda"}) {
    EXPECT_FALSE(backend::ParseBackend(retired, &b)) << retired;
  }
}

TEST(BackendSelectionDeathTest, DefaultIsFastWhenEnvUnset) {
  // The selection is resolved once per process, so probe it in a
  // freshly executed child where nothing has called SetBackend yet.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        unsetenv("ET_BACKEND");
        const backend::Backend b = backend::CurrentBackend();
        std::fprintf(stderr, "default backend: %s\n", backend::BackendName(b));
        std::exit(b == backend::Backend::kFast ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "default backend: fast");
}

TEST(BackendSelectionDeathTest, RetiredEnvNameAbortsWithTheNameList) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        setenv("ET_BACKEND", "parallel", 1);
        backend::CurrentBackend();
      },
      "ET_BACKEND=parallel is not a backend \\(reference \\| fast \\| "
      "check\\)");
}

TEST_F(BackendParityTest, ReRegisteredKernelTakesEffectOnNextDispatch) {
  backend::SetBackend(backend::Backend::kFast);
  const backend::MatMulFn original =
      backend::ResolveKernelFn<backend::MatMulFn>("matmul", "fast");
  const backend::MatMulSpec spec{1, 1, 1};
  const float a = 2.0f, b = 3.0f;
  float c = 0.0f;
  backend::MatMul(spec, &a, &b, &c);
  EXPECT_EQ(c, 6.0f);
  backend::RegisterKernelFn<backend::MatMulFn>(
      "matmul", "fast",
      +[](const backend::MatMulSpec&, const float*, const float*, float* out) {
        out[0] = -1.0f;
      });
  backend::MatMul(spec, &a, &b, &c);
  EXPECT_EQ(c, -1.0f) << "the shim must be visible on the next dispatch";
  backend::RegisterKernelFn<backend::MatMulFn>("matmul", "fast", original);
  backend::MatMul(spec, &a, &b, &c);
  EXPECT_EQ(c, 6.0f);
}

TEST_F(BackendParityTest, DispatchRacesReRegistrationSafely) {
  // Dispatch reads the published tables without a lock while another
  // thread re-registers a kernel (each registration forces a rebuild
  // on the next dispatch). Every dispatch must see a complete table:
  // the original kernel or the equivalent shim, never a torn one.
  backend::SetBackend(backend::Backend::kFast);
  const backend::MatMulFn original =
      backend::ResolveKernelFn<backend::MatMulFn>("matmul", "fast");
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::vector<std::thread> dispatchers;
  for (int t = 0; t < 3; ++t) {
    dispatchers.emplace_back([&] {
      const backend::MatMulSpec spec{1, 1, 1};
      const float a = 2.0f, b = 3.0f;
      while (!stop.load()) {
        float c = 0.0f;
        backend::MatMul(spec, &a, &b, &c);
        if (c != 6.0f) wrong.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 500; ++i) {
    backend::RegisterKernelFn<backend::MatMulFn>(
        "matmul", "fast",
        +[](const backend::MatMulSpec&, const float* a, const float* b,
            float* c) { c[0] = a[0] * b[0]; });
    backend::RegisterKernelFn<backend::MatMulFn>("matmul", "fast", original);
  }
  stop.store(true);
  for (std::thread& t : dispatchers) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

// A deliberately wrong fast kernel, for the check-mode failure text.
void BrokenConvBiasActFwd(const backend::ConvBiasActDims&, const Tensor&,
                          const Tensor&, const Tensor&, Tensor* out) {
  out->Fill(1e6f);
}
void BrokenConv3dFwd(const backend::Conv3dDims&, const Tensor&, const Tensor&,
                     Tensor* out) {
  out->Fill(1e6f);
}

TEST(BackendCheckDeathTest, FailureTextNamesTheComparedFastPath) {
  // Built-in kernels register on the registry's first use; do that
  // now so the shims below replace them rather than being replaced.
  backend::ListKernels();
  Rng rng(4);
  const Tensor x = Tensor::RandomUniform({1, 2, 3, 3, 3}, rng, -1.0f, 1.0f);
  const Tensor w = Tensor::RandomUniform({2, 2, 3, 3, 3}, rng, -0.5f, 0.5f);
  const Tensor b = Tensor::RandomUniform({2}, rng, -0.5f, 0.5f);
  EXPECT_DEATH(
      {
        backend::RegisterKernelFn<backend::ConvBiasActFwdFn>(
            "conv_bias_act_fwd", "fast", BrokenConvBiasActFwd);
        backend::SetBackend(backend::Backend::kCheck);
        ag::ConvBiasAct(Variable(x), Variable(w), Variable(b),
                        backend::Act::kLinear);
      },
      "conv_bias_act_fwd: the fused fast kernel diverges from its reference "
      "decomposition");
  EXPECT_DEATH(
      {
        backend::RegisterKernelFn<backend::Conv3dFwdFn>("conv3d_fwd", "fast",
                                                        BrokenConv3dFwd);
        backend::SetBackend(backend::Backend::kCheck);
        ag::Conv3d(Variable(x), Variable(w));
      },
      "conv3d_fwd: the fast kernel diverges from the reference kernel");
}

TEST_F(BackendParityTest, CheckModeDecomposesFusedDispatch) {
  // Under check, a fused dispatch must run the fused kernel AND its
  // reference decomposition, abort on divergence, and keep the fused
  // result (bitwise what the fast backend produces).
  Rng rng(21);
  Tensor x = Tensor::RandomUniform({2, 3, 4, 3, 5}, rng, -1.0f, 1.0f);
  Tensor w = Tensor::RandomUniform({4, 3, 3, 3, 3}, rng, -0.5f, 0.5f);
  Tensor b = Tensor::RandomUniform({4}, rng, -0.5f, 0.5f);
  const auto run = [&] {
    Variable xv(x, true), wv(w, true), bv(b, true);
    Variable y = ag::ConvBiasAct(xv, wv, bv, backend::Act::kRelu);
    Backward(ag::SumAll(y));
    return std::vector<Tensor>{y.value(), xv.grad(), wv.grad(), bv.grad()};
  };
  backend::SetBackend(backend::Backend::kFast);
  const auto fused = run();
  backend::SetBackend(backend::Backend::kCheck);
  const auto checked = run();  // aborts if fused diverges from reference
  for (size_t i = 0; i < fused.size(); ++i) {
    ASSERT_EQ(std::memcmp(fused[i].data(), checked[i].data(),
                          sizeof(float) * fused[i].size()),
              0)
        << "check mode must keep the fused result (tensor " << i << ")";
  }
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

TEST_F(BackendParityTest, Avx2EdgeTileMatchesScalarBitwise) {
  if (!backend::SimdAcceleratorActive()) {
    GTEST_SKIP() << "no avx2/fma: only the scalar edge tile exists";
  }
  constexpr int64_t kRows = backend::kGemmTileRows;
  constexpr int64_t kCols = backend::kGemmTileCols;
  constexpr int64_t kLdc = kCols + 3;  // columns past nr hold sentinels
  Rng rng(606);
  for (const int64_t kc : {1, 37}) {
    for (int64_t mr = 1; mr <= kRows; ++mr) {
      for (int64_t nr = 1; nr < kCols; ++nr) {
        for (const bool first : {true, false}) {
          const Tensor a =
              Tensor::RandomUniform({kc * kRows}, rng, -1.0f, 1.0f);
          Tensor b = Tensor::RandomUniform({kc * kCols}, rng, -1.0f, 1.0f);
          for (int64_t kk = 0; kk < kc; ++kk) {
            for (int64_t j = nr; j < kCols; ++j) b[kk * kCols + j] = 0.0f;
          }
          const Tensor c0 = Tensor::RandomUniform({kRows * kLdc}, rng);
          Tensor scalar = c0, vector = c0;
          backend::GemmEdgeTile(false, mr, nr, kc, a.data(), b.data(),
                                scalar.data(), kLdc, first);
          backend::GemmEdgeTile(true, mr, nr, kc, a.data(), b.data(),
                                vector.data(), kLdc, first);
          ASSERT_TRUE(BitwiseEqual(scalar, vector))
              << "mr=" << mr << " nr=" << nr << " kc=" << kc
              << " first=" << first;
          // Only the mr x nr window may change.
          for (int64_t i = 0; i < kRows; ++i) {
            for (int64_t j = 0; j < kLdc; ++j) {
              if (i < mr && j < nr) continue;
              ASSERT_EQ(vector[i * kLdc + j], c0[i * kLdc + j])
                  << "wrote outside the tile at (" << i << ", " << j << ")";
            }
          }
        }
      }
    }
  }
}

// Unified conv geometry for the oracle below: rank-1/2 convs are 3D
// ones with unit extents (and unit kernel extents) on the missing axes.
struct WeightGradCase {
  int rank;
  int64_t batch, cin, cout, w, h, t, k;
};

// The weight gradient as the GEMM over a materialized im2col matrix
// and transposed gY — the operands the fast kernel no longer builds —
// accumulated over the batch like the kernel, then transposed onto gw.
Tensor MaterializedWeightGrad(const WeightGradCase& c, const Tensor& x,
                              const Tensor& gout, const Tensor& w) {
  const int64_t kw = c.rank >= 2 ? c.k : 1, kh = c.rank >= 2 ? c.k : 1;
  const int64_t kt = c.rank != 2 ? c.k : 1;
  const int64_t p = c.w * c.h * c.t, ck = c.cin * kw * kh * kt;
  Tensor col({ck, p}), gyt({p, c.cout}), gwt({ck, c.cout});
  for (int64_t n = 0; n < c.batch; ++n) {
    for (int64_t r = 0; r < ck; ++r) {
      const int64_t ci = r / (kw * kh * kt), rem = r % (kw * kh * kt);
      const int64_t dx = rem / (kh * kt) - kw / 2;
      const int64_t dy = (rem / kt) % kh - kh / 2;
      const int64_t dt = rem % kt - kt / 2;
      for (int64_t q = 0; q < p; ++q) {
        const int64_t sx = q / (c.h * c.t) + dx, sy = (q / c.t) % c.h + dy;
        const int64_t st = q % c.t + dt;
        const bool inside = sx >= 0 && sx < c.w && sy >= 0 && sy < c.h &&
                            st >= 0 && st < c.t;
        col[r * p + q] =
            inside ? x[(n * c.cin + ci) * p + (sx * c.h + sy) * c.t + st]
                   : 0.0f;
      }
    }
    for (int64_t co = 0; co < c.cout; ++co) {
      for (int64_t q = 0; q < p; ++q) {
        gyt[q * c.cout + co] = gout[(n * c.cout + co) * p + q];
      }
    }
    backend::GemmRowMajor(ck, c.cout, p, col.data(), p, gyt.data(), c.cout,
                          gwt.data(), c.cout, /*accumulate=*/true);
  }
  Tensor gw(w.shape());
  for (int64_t co = 0; co < c.cout; ++co) {
    for (int64_t r = 0; r < ck; ++r) gw[co * ck + r] += gwt[r * c.cout + co];
  }
  return gw;
}

// Runs the fast conv backward of `c` at 1/2/4/8 threads: gw must equal
// the materialized oracle bit for bit, gx must not depend on threads.
void ExpectWeightGradBitwise(const WeightGradCase& c, unsigned seed) {
  Rng rng(seed);
  std::vector<int64_t> x_shape = {c.batch, c.cin}, y_shape = {c.batch, c.cout};
  std::vector<int64_t> w_shape = {c.cout, c.cin};
  const std::vector<int64_t> extents =
      c.rank == 1 ? std::vector<int64_t>{c.t}
      : c.rank == 2 ? std::vector<int64_t>{c.w, c.h}
                    : std::vector<int64_t>{c.w, c.h, c.t};
  for (const int64_t e : extents) {
    x_shape.push_back(e);
    y_shape.push_back(e);
    w_shape.push_back(c.k);
  }
  const Tensor x = Tensor::RandomUniform(x_shape, rng, -1.0f, 1.0f);
  const Tensor w = Tensor::RandomUniform(w_shape, rng, -0.5f, 0.5f);
  const Tensor gout = Tensor::RandomUniform(y_shape, rng, -1.0f, 1.0f);
  const int64_t pad = c.k / 2;
  const auto run = [&](Tensor* gx, Tensor* gw) {
    switch (c.rank) {
      case 1:
        backend::ResolveKernelFn<backend::Conv1dBwdFn>("conv1d_bwd", "fast")(
            {c.batch, c.cin, c.t, c.cout, c.k, pad}, x, w, gout, gx, gw);
        return;
      case 2:
        backend::ResolveKernelFn<backend::Conv2dBwdFn>("conv2d_bwd", "fast")(
            {c.batch, c.cin, c.w, c.h, c.cout, c.k, pad}, x, w, gout, gx, gw);
        return;
      default:
        backend::ResolveKernelFn<backend::Conv3dBwdFn>("conv3d_bwd", "fast")(
            {c.batch, c.cin, c.w, c.h, c.t, c.cout, c.k, pad}, x, w, gout, gx,
            gw);
    }
  };
  SetNumThreads(1);
  const Tensor oracle = MaterializedWeightGrad(c, x, gout, w);
  Tensor base_gx;
  for (const int threads : {1, 2, 4, 8}) {
    SetNumThreads(threads);
    Tensor gx(x.shape()), gw(w.shape());
    run(&gx, &gw);
    const std::string tag = "rank " + std::to_string(c.rank) + " cin " +
                            std::to_string(c.cin) + " cout " +
                            std::to_string(c.cout) + " @" +
                            std::to_string(threads) + "t";
    EXPECT_TRUE(BitwiseEqual(oracle, gw)) << tag << " gw vs materialized";
    if (threads == 1) {
      base_gx = gx;
    } else {
      EXPECT_TRUE(BitwiseEqual(base_gx, gx)) << tag << " gx";
    }
  }
}

// The CDAE's narrow output convs (3D, one input channel, Cout = 1 / 5
// / 8): every weight-gradient tile is an edge tile, and with 27 rows
// the larger two split their rows across threads. p = 16 * 12 * 25 =
// 4800 positions: nine full k blocks of 512 plus a partial one.
TEST_F(BackendParityTest, NarrowConvBackwardBitwiseAcrossThreads) {
  for (const int64_t cout : {1, 5, 8}) {
    ExpectWeightGradBitwise({3, 4, 1, cout, 16, 12, 25, 3},
                            700 + static_cast<unsigned>(cout));
  }
}

// The same contract on the other geometries the staged operand must
// get right: full (Cout = 16) and full + edge (Cout = 19) column
// tiles, many input channels, rank 2 (one-position t lines) and rank 1
// (one line), and a kernel wider than the input.
TEST_F(BackendParityTest, ConvWeightGradMatchesMaterializedGemmBitwise) {
  const WeightGradCase cases[] = {
      {3, 2, 3, 16, 6, 5, 20, 3},  {3, 1, 17, 19, 4, 5, 6, 3},
      {2, 3, 4, 5, 20, 30, 1, 3},  {2, 2, 2, 16, 3, 2, 1, 5},
      {1, 2, 5, 7, 1, 1, 600, 3},  {1, 1, 2, 3, 1, 1, 2, 5},
  };
  unsigned seed = 800;
  for (const WeightGradCase& c : cases) ExpectWeightGradBitwise(c, ++seed);
}

}  // namespace
}  // namespace equitensor
