#ifndef EQUITENSOR_NN_KERNELS_SIMD_H_
#define EQUITENSOR_NN_KERNELS_SIMD_H_

#include <cstdint>

namespace equitensor {
namespace backend {

/// Registers the base ops of the `fast` backend: conv1d/2d/3d forward
/// and backward lowered to im2col + blocked GEMM, and the GEMM itself
/// with an AVX2/FMA 6x16 micro-kernel and masked-AVX2 partial-width
/// tiles (runtime cpu dispatch; portable blocked fallback elsewhere).
/// All scratch — packed operand panels, transpose packs — is leased
/// from util/arena, so steady-state execution does no heap allocation.
/// Idempotent; called by the registry on first use.
void RegisterSimdKernels();

/// True when the AVX2/FMA micro-kernel was selected at startup; false
/// means the portable blocked fallback is in use.
bool SimdKernelsUseAvx2();

/// Blocked row-major single-precision GEMM, exposed for tests and
/// benches: C[m, n] = A[m, k] · B[k, n] (+= when `accumulate`).
/// Deterministic for any thread count: the column tiles and k blocks
/// are a pure function of (m, n, k), every C element accumulates in a
/// fixed serial k order, and threads only split whole row blocks.
void GemmRowMajor(int64_t m, int64_t n, int64_t k, const float* a,
                  int64_t lda, const float* b, int64_t ldb, float* c,
                  int64_t ldc, bool accumulate);

/// Micro-tile extents of the GEMM: packed A holds kGemmTileRows rows
/// per k step, packed B kGemmTileCols columns.
inline constexpr int64_t kGemmTileRows = 6;
inline constexpr int64_t kGemmTileCols = 16;

/// The GEMM's partial-width tile (nr < kGemmTileCols live columns),
/// exposed for tests: writes (`first`) or adds the mr x nr product of
/// packed operands into C — A as kc groups of kGemmTileRows, B as kc
/// lines of kGemmTileCols, zero past column nr. `vectorized` selects
/// the masked-AVX2 tile (requires SimdKernelsUseAvx2()), otherwise the
/// scalar fallback. Both round each multiply and each add separately,
/// in the same k order, so they agree bit for bit.
void GemmEdgeTile(bool vectorized, int64_t mr, int64_t nr, int64_t kc,
                  const float* a, const float* b, float* c, int64_t ldc,
                  bool first);

/// Unified conv geometry shared by the im2col lowering and the fused
/// kernels: a 1d conv is a 3d conv with w = h = 1 and a temporal-only
/// kernel, a 2d conv one with t = 1.
struct SimdConvGeom {
  int64_t batch, cin, cout;
  int64_t w, h, t;     // spatial extents (1 where the rank lacks them)
  int64_t kw, kh, kt;  // kernel extents
  int64_t pw, ph, pt;  // "same" pads per axis
};

/// Gather-source conv forward: input channel ci of sample n reads the
/// plane at chan_base[ci] + n * chan_stride[ci] (spatial volume
/// w*h*t floats, dense). A single dense tensor is the special case
/// chan_base[ci] = x + ci*p, chan_stride[ci] = cin*p; a channel
/// concat folds in by pointing channels at the source parts instead —
/// the im2col values it reads are IDENTICAL either way, so the folded
/// conv is bitwise equal to conv-after-materialized-concat. `out`
/// ([batch, cout, p]) is overwritten.
void SimdConvForwardGather(const SimdConvGeom& g, const float* const* chan_base,
                           const int64_t* chan_stride, const float* w,
                           float* out);

/// Gather/scatter conv backward. gx scatters per input channel through
/// gx_base[ci] + n * gx_stride[ci], ACCUMULATING (pass gx_base ==
/// nullptr to skip gx entirely; individual null entries skip that
/// channel). gw ([cout, ck]) accumulates as well (nullptr skips).
/// `gout` is dense [batch, cout, p].
void SimdConvBackwardGather(const SimdConvGeom& g,
                            const float* const* chan_base,
                            const int64_t* chan_stride, const float* w,
                            const float* gout, float* const* gx_base,
                            const int64_t* gx_stride, float* gw);

}  // namespace backend
}  // namespace equitensor

#endif  // EQUITENSOR_NN_KERNELS_SIMD_H_
