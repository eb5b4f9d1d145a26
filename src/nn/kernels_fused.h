#ifndef EQUITENSOR_NN_KERNELS_FUSED_H_
#define EQUITENSOR_NN_KERNELS_FUSED_H_

#include <cstdint>

namespace equitensor {
namespace backend {

enum class Act : int32_t;

/// Registers the fused op keys of the `fast` backend (DESIGN.md §15):
///  - conv_bias_act_{fwd,bwd}: one dispatch for conv → +bias →
///    activation. Forward drives the im2col + GEMM conv lowering and
///    applies the bias/activation as an in-place epilogue on the conv
///    output, so the pre-activation tensor is never materialized;
///    backward forms g_pre = gout · act'(y) once in arena scratch and
///    feeds the conv backward directly.
///  - concat_conv_bias_act_{fwd,bwd}: the same kernel reading its
///    input through per-channel gather tables that point straight at
///    the concatenated source parts, so the concat intermediate (and
///    its gradient) never exist.
///
/// Bitwise story: the fused conv IS the fast base conv (identical
/// im2col values, identical blocked GEMM), and the epilogues replicate
/// the eager ops' float expressions element for element, so a
/// fused-graph trajectory is bitwise equal to the eager trajectory over
/// the fast base kernels at any thread count. Idempotent; called by
/// the registry.
void RegisterFusedKernels();

/// Elementwise pieces of the fusion, exposed so the registry's
/// decomposed dispatch path (the reference backend and the check-mode
/// oracle) replays the exact same float expressions:
///  - epilogue: y[i] = act(y[i] + bias[channel]), in place — eager
///    AddBias followed by Activate, element for element;
///  - grad-pre: gpre[i] = gout[i] * act'(y[i]) — the eager activation
///    backward (derivative from the OUTPUT value);
///  - bias grad: gb[c] += per-(channel, sample) double-accumulated
///    sums of gpre — the eager AddBias backward association.
void FusedBiasActEpilogue(Act act, int64_t batch, int64_t channels,
                          int64_t inner, const float* bias, float* y);
void FusedGradPreAct(Act act, const float* gout, const float* y, int64_t size,
                     float* gpre);
void FusedAccumulateBiasGrad(int64_t batch, int64_t channels, int64_t inner,
                             const float* gpre, float* gb);

}  // namespace backend
}  // namespace equitensor

#endif  // EQUITENSOR_NN_KERNELS_FUSED_H_
