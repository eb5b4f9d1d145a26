#include "nn/kernels_fused.h"

#include <cmath>
#include <vector>

#include "nn/backend_registry.h"
#include "nn/kernels_simd.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace equitensor {
namespace backend {
namespace {

// Fused conv+bias+activation kernels of the `fast` backend (DESIGN.md
// §15). The conv body is the im2col + GEMM lowering of kernels_simd.cc
// driven through its gather-table entry points; what fusion adds is
// (a) the bias/activation epilogue applied in place on the conv
// output — the pre-activation tensor never exists — and (b) the
// concat fold: the gather tables point input channels straight at the
// per-dataset source parts, so the concatenated input (and its
// gradient) are never materialized either.
//
// Float semantics are copied verbatim from the eager ops so a fused
// dispatch is BITWISE equal to the eager chain over the same base
// kernels: AddBias's `src + bv`, the activation expressions of
// autograd/ops.cc, and AddBias-backward's per-(channel, sample) double
// accumulator.

SimdConvGeom GeomFromFused(const ConvBiasActDims& d) {
  switch (d.rank) {
    case 1:
      return {d.batch, d.cin, d.cout, 1, 1, d.t, 1, 1, d.k, 0, 0, d.pad};
    case 2:
      return {d.batch, d.cin, d.cout, d.w,   d.h,   1,
              d.k,     d.k,   1,      d.pad, d.pad, 0};
    default:
      return {d.batch, d.cin,  d.cout, d.w,   d.h,   d.t,
              d.k,     d.k,    d.k,    d.pad, d.pad, d.pad};
  }
}

int64_t SpatialVolumeOf(const ConvBiasActDims& d) { return d.w * d.h * d.t; }

template <Act A>
inline float ActApply(float v) {
  if constexpr (A == Act::kRelu) return v > 0.0f ? v : 0.0f;
  if constexpr (A == Act::kSigmoid) return 1.0f / (1.0f + std::exp(-v));
  if constexpr (A == Act::kTanh) return std::tanh(v);
  return v;
}

template <Act A>
inline float ActGradFromOut(float out) {
  if constexpr (A == Act::kRelu) return out > 0.0f ? 1.0f : 0.0f;
  if constexpr (A == Act::kSigmoid) return out * (1.0f - out);
  if constexpr (A == Act::kTanh) return 1.0f - out * out;
  return 1.0f;
}

// In-place epilogue y[i] = act(y[i] + bias[channel]): the same
// per-element expressions as eager AddBias followed by Activate, so
// chunking cannot change a single bit.
template <Act A>
void BiasActEpilogueT(int64_t batch, int64_t channels, int64_t inner,
                      const float* bias, float* y) {
  ParallelFor(0, batch * channels, GrainForCost(inner),
              [&](int64_t b0, int64_t b1) {
                for (int64_t b = b0; b < b1; ++b) {
                  const float bv = bias[b % channels];
                  float* dst = y + b * inner;
                  for (int64_t i = 0; i < inner; ++i) {
                    dst[i] = ActApply<A>(dst[i] + bv);
                  }
                }
              });
}

}  // namespace

void FusedBiasActEpilogue(Act act, int64_t batch, int64_t channels,
                          int64_t inner, const float* bias, float* y) {
  switch (act) {
    case Act::kLinear:
      BiasActEpilogueT<Act::kLinear>(batch, channels, inner, bias, y);
      return;
    case Act::kRelu:
      BiasActEpilogueT<Act::kRelu>(batch, channels, inner, bias, y);
      return;
    case Act::kSigmoid:
      BiasActEpilogueT<Act::kSigmoid>(batch, channels, inner, bias, y);
      return;
    case Act::kTanh:
      BiasActEpilogueT<Act::kTanh>(batch, channels, inner, bias, y);
      return;
  }
  ET_CHECK(false) << "unknown fused activation";
}

namespace {

// g_pre[i] = gout[i] * act'(y[i]) — eager UnaryFromOutput backward.
template <Act A>
void GradPreActT(const float* gout, const float* y, int64_t size, float* gpre) {
  ParallelFor(0, size, GrainForCost(1), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      gpre[i] = gout[i] * ActGradFromOut<A>(y[i]);
    }
  });
}

}  // namespace

void FusedGradPreAct(Act act, const float* gout, const float* y, int64_t size,
                     float* gpre) {
  switch (act) {
    case Act::kLinear:
      GradPreActT<Act::kLinear>(gout, y, size, gpre);
      return;
    case Act::kRelu:
      GradPreActT<Act::kRelu>(gout, y, size, gpre);
      return;
    case Act::kSigmoid:
      GradPreActT<Act::kSigmoid>(gout, y, size, gpre);
      return;
    case Act::kTanh:
      GradPreActT<Act::kTanh>(gout, y, size, gpre);
      return;
  }
  ET_CHECK(false) << "unknown fused activation";
}

// gb[c] += Σ_n Σ_i g_pre[n, c, i], each (c, n) slice summed in a
// serial double — the exact association of eager AddBias backward.
void FusedAccumulateBiasGrad(int64_t batch, int64_t channels, int64_t inner,
                             const float* gpre, float* gb) {
  ParallelFor(0, channels, GrainForCost(batch * inner),
              [&](int64_t c0, int64_t c1) {
                for (int64_t c = c0; c < c1; ++c) {
                  for (int64_t o = 0; o < batch; ++o) {
                    const float* g = gpre + (o * channels + c) * inner;
                    double sum = 0.0;
                    for (int64_t i = 0; i < inner; ++i) sum += g[i];
                    gb[c] += static_cast<float>(sum);
                  }
                }
              });
}

namespace {

// Gather tables addressing the virtual concat input: global channel
// ci reads part pi's local channel plane. A single tensor is the
// one-part special case.
struct GatherTables {
  std::vector<const float*> base;
  std::vector<int64_t> stride;
};

GatherTables TablesFor(const std::vector<const Tensor*>& parts, int64_t pvol) {
  GatherTables t;
  for (const Tensor* part : parts) {
    const int64_t c_part = part->dim(1);
    for (int64_t c = 0; c < c_part; ++c) {
      t.base.push_back(part->data() + c * pvol);
      t.stride.push_back(c_part * pvol);
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Fused dispatch bodies (shared by the single-input and concat ops).

void FusedForwardImpl(const ConvBiasActDims& d,
                      const std::vector<const Tensor*>& parts, const Tensor& w,
                      const Tensor& bias, Tensor* out) {
  const int64_t pvol = SpatialVolumeOf(d);
  const GatherTables t = TablesFor(parts, pvol);
  ET_CHECK_EQ(static_cast<int64_t>(t.base.size()), d.cin);
  SimdConvForwardGather(GeomFromFused(d), t.base.data(), t.stride.data(),
                        w.data(), out->data());
  FusedBiasActEpilogue(d.act, d.batch, d.cout, pvol, bias.data(), out->data());
}

void FusedBackwardImpl(const ConvBiasActDims& d,
                       const std::vector<const Tensor*>& parts, const Tensor& w,
                       const Tensor& y, const Tensor& gout,
                       const std::vector<Tensor*>& gparts, Tensor* gw,
                       Tensor* gb) {
  const int64_t pvol = SpatialVolumeOf(d);
  // g_pre = gout · act'(y), staged once in arena scratch (for a linear
  // activation gout IS g_pre — no copy).
  ArenaBuffer gpre_buf;
  const float* gpre = gout.data();
  if (d.act != Act::kLinear) {
    gpre_buf = ArenaBuffer(Arena::Global(), gout.size());
    FusedGradPreAct(d.act, gout.data(), y.data(), gout.size(), gpre_buf.data());
    gpre = gpre_buf.data();
  }
  if (gb != nullptr) {
    FusedAccumulateBiasGrad(d.batch, d.cout, pvol, gpre, gb->data());
  }
  bool any_gx = false;
  for (const Tensor* gp : gparts) any_gx |= (gp != nullptr);
  if (!any_gx && gw == nullptr) return;

  const GatherTables t = TablesFor(parts, pvol);
  std::vector<float*> gx_base;
  std::vector<int64_t> gx_stride;
  if (any_gx) {
    for (size_t pi = 0; pi < parts.size(); ++pi) {
      const int64_t c_part = parts[pi]->dim(1);
      for (int64_t c = 0; c < c_part; ++c) {
        gx_base.push_back(gparts[pi] ? gparts[pi]->data() + c * pvol : nullptr);
        gx_stride.push_back(c_part * pvol);
      }
    }
  }
  SimdConvBackwardGather(GeomFromFused(d), t.base.data(), t.stride.data(),
                         w.data(), gpre, any_gx ? gx_base.data() : nullptr,
                         any_gx ? gx_stride.data() : nullptr,
                         gw ? gw->data() : nullptr);
}

// ---------------------------------------------------------------------------
// Registered entry points.

void FusedConvBiasActFwd(const ConvBiasActDims& d, const Tensor& x,
                         const Tensor& w, const Tensor& bias, Tensor* out) {
  ET_TRACE_SPAN("conv_bias_act.fwd.fast");
  ET_METRIC_COUNTER_ADD("kernel.conv_bias_act_fwd.fast", 1);
  FusedForwardImpl(d, {&x}, w, bias, out);
}

void FusedConvBiasActBwd(const ConvBiasActDims& d, const Tensor& x,
                         const Tensor& w, const Tensor& y, const Tensor& gout,
                         Tensor* gx, Tensor* gw, Tensor* gb) {
  ET_TRACE_SPAN("conv_bias_act.bwd.fast");
  ET_METRIC_COUNTER_ADD("kernel.conv_bias_act_bwd.fast", 1);
  FusedBackwardImpl(d, {&x}, w, y, gout, {gx}, gw, gb);
}

void FusedConcatConvBiasActFwd(const ConvBiasActDims& d,
                               const std::vector<const Tensor*>& parts,
                               const Tensor& w, const Tensor& bias,
                               Tensor* out) {
  ET_TRACE_SPAN("concat_conv_bias_act.fwd.fast");
  ET_METRIC_COUNTER_ADD("kernel.concat_conv_bias_act_fwd.fast", 1);
  FusedForwardImpl(d, parts, w, bias, out);
}

void FusedConcatConvBiasActBwd(const ConvBiasActDims& d,
                               const std::vector<const Tensor*>& parts,
                               const Tensor& w, const Tensor& y,
                               const Tensor& gout,
                               const std::vector<Tensor*>& gparts, Tensor* gw,
                               Tensor* gb) {
  ET_TRACE_SPAN("concat_conv_bias_act.bwd.fast");
  ET_METRIC_COUNTER_ADD("kernel.concat_conv_bias_act_bwd.fast", 1);
  FusedBackwardImpl(d, parts, w, y, gout, gparts, gw, gb);
}

}  // namespace

void RegisterFusedKernels() {
  static const bool registered = [] {
    RegisterKernelFn<ConvBiasActFwdFn>("conv_bias_act_fwd", "fast",
                                       FusedConvBiasActFwd);
    RegisterKernelFn<ConvBiasActBwdFn>("conv_bias_act_bwd", "fast",
                                       FusedConvBiasActBwd);
    RegisterKernelFn<ConcatConvBiasActFwdFn>("concat_conv_bias_act_fwd",
                                             "fast", FusedConcatConvBiasActFwd);
    RegisterKernelFn<ConcatConvBiasActBwdFn>("concat_conv_bias_act_bwd",
                                             "fast", FusedConcatConvBiasActBwd);
    return true;
  }();
  (void)registered;
}

}  // namespace backend
}  // namespace equitensor
