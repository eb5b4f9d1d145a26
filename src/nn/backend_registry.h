#ifndef EQUITENSOR_NN_BACKEND_REGISTRY_H_
#define EQUITENSOR_NN_BACKEND_REGISTRY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace equitensor {
namespace backend {

/// Runtime kernel-backend layer (DESIGN.md §13). The numerical ops
/// that dominate training — the three convolutions and MatMul — are
/// resolved at runtime from a registry mapping (op key, backend name)
/// to an implementation:
///
///   reference — serial scalar loops; the semantics oracle.
///   fast      — the default. Models route their forward through the
///               static-graph executor (nn/graph_ir.h), whose
///               conv+bias+activation chains and encoder concats
///               collapse into single fused dispatches
///               (kernels_fused.cc); the base ops underneath are
///               im2col + blocked AVX2/FMA GEMM with arena-planned
///               scratch (kernels_simd.cc). Deterministic per thread
///               count, equal to reference within CheckTolerance.
///   check     — self-verifying mode: every dispatch runs the fast
///               kernel and a reference decomposition and CHECK-fails
///               if they diverge beyond CheckTolerance; the fast
///               result is kept, so the fast path is what executes.
///
/// Selection: `SetBackend` (wired to the tools' `--backend` flag),
/// else the `ET_BACKEND` environment variable read once at startup,
/// else `fast`. Every future kernel optimization is an additive
/// `RegisterKernel` call instead of a rewrite; this is also the seam
/// an external-BLAS or GPU backend would plug into.

enum class Backend { kReference, kFast, kCheck };

/// Pre-validated convolution geometry ("same" zero padding, stride 1,
/// odd kernels — see autograd/conv_ops.h for the layout conventions).
/// Shape validation happens once in the autograd wrappers; kernels
/// never re-derive or re-check dims.
struct Conv1dDims {
  int64_t batch, cin, t, cout, k, pad;
};
struct Conv2dDims {
  int64_t batch, cin, w, h, cout, k, pad;
};
struct Conv3dDims {
  int64_t batch, cin, w, h, t, cout, k, pad;
};

/// GEMM geometry: C[m, n] = op(A) · op(B), row-major, where op is an
/// optional transpose. A is [m, k] (or [k, m] when trans_a), B is
/// [k, n] (or [n, k] when trans_b). `accumulate` adds into C instead
/// of overwriting it.
struct MatMulSpec {
  int64_t m, k, n;
  bool trans_a = false;
  bool trans_b = false;
  bool accumulate = false;
};

/// Kernel contracts shared by every backend:
///  - forward kernels require `out` zero-filled on entry and add the
///    convolution sum into it;
///  - backward kernels ACCUMULATE into gx / gw; either may be null to
///    skip that gradient;
///  - all reductions for one output element run in a fixed serial
///    order, so each backend is bitwise-deterministic for any thread
///    count (the cross-backend story is CheckTolerance, below).
using Conv1dFwdFn = void (*)(const Conv1dDims&, const Tensor& x,
                             const Tensor& w, Tensor* out);
using Conv1dBwdFn = void (*)(const Conv1dDims&, const Tensor& x,
                             const Tensor& w, const Tensor& gout, Tensor* gx,
                             Tensor* gw);
using Conv2dFwdFn = void (*)(const Conv2dDims&, const Tensor& x,
                             const Tensor& w, Tensor* out);
using Conv2dBwdFn = void (*)(const Conv2dDims&, const Tensor& x,
                             const Tensor& w, const Tensor& gout, Tensor* gx,
                             Tensor* gw);
using Conv3dFwdFn = void (*)(const Conv3dDims&, const Tensor& x,
                             const Tensor& w, Tensor* out);
using Conv3dBwdFn = void (*)(const Conv3dDims&, const Tensor& x,
                             const Tensor& w, const Tensor& gout, Tensor* gx,
                             Tensor* gw);
using MatMulFn = void (*)(const MatMulSpec&, const float* a, const float* b,
                          float* c);

/// Pointwise activation folded into a fused conv epilogue. Values
/// mirror nn::Activation; semantics are bit-for-bit the eager ops
/// (relu `x > 0 ? x : 0`, sigmoid `1/(1+exp(-x))`, tanh `std::tanh`).
enum class Act : int32_t { kLinear = 0, kRelu = 1, kSigmoid = 2, kTanh = 3 };

/// Pre-validated geometry of a fused conv+bias+activation dispatch.
/// One struct covers all three spatial ranks with the same unification
/// the im2col lowering uses: rank 1 sets w = h = 1 (t is the time axis),
/// rank 2 sets t = 1. For the concat-folding variant `cin` is the SUM
/// of the part channel counts; per-part layout rides in the dispatch
/// arguments, not here.
struct ConvBiasActDims {
  int64_t rank;  // spatial rank: 1, 2, or 3
  int64_t batch, cin, cout, k, pad;
  int64_t w, h, t;  // unified extents (see above)
  Act act;
};

/// Fused-kernel contracts (kernels_fused.cc):
///  - forward OVERWRITES `out` = act(conv(x, w) + bias) — unlike the
///    base conv kernels there is no zero-fill precondition;
///  - backward ACCUMULATES into gx / gw / gb, any of which may be null
///    to skip that gradient, and receives the forward OUTPUT `y` so
///    activation derivatives are computed from the produced values
///    (matching the eager autograd ops bit for bit);
///  - the concat variant reads the virtual input from `parts` (their
///    channels stacked on axis 1, the fold described in DESIGN.md §15)
///    and scatters gx into `gparts`; null entries skip that part.
using ConvBiasActFwdFn = void (*)(const ConvBiasActDims&, const Tensor& x,
                                  const Tensor& w, const Tensor& bias,
                                  Tensor* out);
using ConvBiasActBwdFn = void (*)(const ConvBiasActDims&, const Tensor& x,
                                  const Tensor& w, const Tensor& y,
                                  const Tensor& gout, Tensor* gx, Tensor* gw,
                                  Tensor* gb);
using ConcatConvBiasActFwdFn = void (*)(const ConvBiasActDims&,
                                        const std::vector<const Tensor*>& parts,
                                        const Tensor& w, const Tensor& bias,
                                        Tensor* out);
using ConcatConvBiasActBwdFn = void (*)(const ConvBiasActDims&,
                                        const std::vector<const Tensor*>& parts,
                                        const Tensor& w, const Tensor& y,
                                        const Tensor& gout,
                                        const std::vector<Tensor*>& gparts,
                                        Tensor* gw, Tensor* gb);

/// Registers `fn` (one of the Fn types above) for (`op_key`,
/// `backend`). Op keys: conv1d_fwd, conv1d_bwd, conv2d_fwd, conv2d_bwd,
/// conv3d_fwd, conv3d_bwd, matmul, and (fast only) the four fused op
/// keys. Re-registering an existing pair replaces it (last wins) and
/// takes effect on the next dispatch, so tests can shim kernels. The
/// built-in sets register on the registry's first use (any resolve,
/// list or dispatch call), so a shim must come after that to survive.
void RegisterKernel(const std::string& op_key, const std::string& backend,
                    void (*fn)());

/// Typed registration convenience.
template <typename Fn>
void RegisterKernelFn(const std::string& op_key, const std::string& backend,
                      Fn fn) {
  RegisterKernel(op_key, backend, reinterpret_cast<void (*)()>(fn));
}

/// Resolves a registered kernel; aborts if the (op, backend) pair is
/// missing — selection validates availability up front, so a miss here
/// is a programmer error.
void* ResolveKernel(const std::string& op_key, const std::string& backend);

template <typename Fn>
Fn ResolveKernelFn(const std::string& op_key, const std::string& backend) {
  return reinterpret_cast<Fn>(
      reinterpret_cast<void (*)()>(ResolveKernel(op_key, backend)));
}

/// All registered (op_key, backend) pairs, sorted, for diagnostics.
std::vector<std::pair<std::string, std::string>> ListKernels();

/// Backend-name round trip over BackendNames(). ParseBackend returns
/// false on unknown names.
bool ParseBackend(const std::string& name, Backend* out);
const char* BackendName(Backend b);

/// Every selectable backend name, in enum order — the one list that
/// flag help, error text and tests derive from.
std::vector<std::string> BackendNames();

/// BackendNames() joined as "reference | fast | check", for help and
/// error text.
std::string BackendNameList();

/// Runtime selection. CurrentBackend resolves, in priority order:
/// SetBackend, the ET_BACKEND env var (read once), kFast.
void SetBackend(Backend b);
Backend CurrentBackend();

/// True when the CPU executes the AVX2/FMA micro-kernels; false means
/// the fast backend is running its portable blocked fallback.
bool SimdAcceleratorActive();

/// Documented cross-backend tolerance (DESIGN.md §13): the fast GEMM
/// accumulates in a different association than the reference loops, so
/// elementwise |fast - ref| is bounded by
///   kCheckRelTol * sqrt(reduction_length) * max(1, |ref|_max)
/// with kCheckRelTol = 1e-5 (float mantissa epsilon headroom).
/// `reduction_length` is the number of fused multiply-adds feeding one
/// output element (cin * k^d for conv, k for matmul).
float CheckTolerance(int64_t reduction_length, float ref_absmax);

/// Dispatch entry points used by the autograd layer and the eager
/// MatMul hot path. These apply CurrentBackend(), including the
/// self-verifying check mode.
void Conv1dForward(const Conv1dDims& d, const Tensor& x, const Tensor& w,
                   Tensor* out);
void Conv1dBackward(const Conv1dDims& d, const Tensor& x, const Tensor& w,
                    const Tensor& gout, Tensor* gx, Tensor* gw);
void Conv2dForward(const Conv2dDims& d, const Tensor& x, const Tensor& w,
                   Tensor* out);
void Conv2dBackward(const Conv2dDims& d, const Tensor& x, const Tensor& w,
                    const Tensor& gout, Tensor* gx, Tensor* gw);
void Conv3dForward(const Conv3dDims& d, const Tensor& x, const Tensor& w,
                   Tensor* out);
void Conv3dBackward(const Conv3dDims& d, const Tensor& x, const Tensor& w,
                    const Tensor& gout, Tensor* gx, Tensor* gw);
void MatMul(const MatMulSpec& spec, const float* a, const float* b, float* c);

/// Fused-op dispatch. Under `fast` (and `check`) these run the fused
/// kernels; under `reference` they DECOMPOSE into the constituent
/// reference ops — conv via its kernel table plus the eager
/// bias/activation loops — producing values bitwise equal to the eager
/// op chain, so the fused graph schedule can run on either backend.
/// Check mode runs the fused kernel AND the reference decomposition and
/// aborts beyond CheckTolerance.
void ConvBiasActForward(const ConvBiasActDims& d, const Tensor& x,
                        const Tensor& w, const Tensor& bias, Tensor* out);
void ConvBiasActBackward(const ConvBiasActDims& d, const Tensor& x,
                         const Tensor& w, const Tensor& y, const Tensor& gout,
                         Tensor* gx, Tensor* gw, Tensor* gb);
void ConcatConvBiasActForward(const ConvBiasActDims& d,
                              const std::vector<const Tensor*>& parts,
                              const Tensor& w, const Tensor& bias, Tensor* out);
void ConcatConvBiasActBackward(const ConvBiasActDims& d,
                               const std::vector<const Tensor*>& parts,
                               const Tensor& w, const Tensor& y,
                               const Tensor& gout,
                               const std::vector<Tensor*>& gparts, Tensor* gw,
                               Tensor* gb);

}  // namespace backend
}  // namespace equitensor

#endif  // EQUITENSOR_NN_BACKEND_REGISTRY_H_
