#ifndef PERFBENCH_FLOPS_H_
#define PERFBENCH_FLOPS_H_

// Exact operation counts and computed bytes for the kernel rows. FLOPs
// count every multiply-add of a stride-1 convolution as 2, padded taps
// included (the dense count the kernels' GEMM formulation performs).
// Bytes are computed from tensor sizes (fp32, each operand read or
// written once); they are not measured traffic.

#include <cstdint>

namespace perfbench {

struct ConvGeometry {
  int rank = 1;  // spatial rank: 1, 2 or 3
  int64_t batch = 1, cin = 1, cout = 1, k = 3, pad = 1;
  int64_t extent[3] = {1, 1, 1};  // input spatial extents (unused = 1)
};

inline int64_t OutExtent(int64_t in, int64_t k, int64_t pad) {
  return in + 2 * pad - k + 1;
}

inline int64_t InVolume(const ConvGeometry& g) {
  int64_t v = 1;
  for (int d = 0; d < g.rank; ++d) v *= g.extent[d];
  return v;
}

inline int64_t OutVolume(const ConvGeometry& g) {
  int64_t v = 1;
  for (int d = 0; d < g.rank; ++d) v *= OutExtent(g.extent[d], g.k, g.pad);
  return v;
}

inline int64_t KernelVolume(const ConvGeometry& g) {
  int64_t v = 1;
  for (int d = 0; d < g.rank; ++d) v *= g.k;
  return v;
}

inline int64_t ConvForwardFlops(const ConvGeometry& g) {
  return 2 * g.batch * g.cout * OutVolume(g) * g.cin * KernelVolume(g);
}

/// Input gradient plus weight gradient: two forward-sized reductions.
inline int64_t ConvBackwardFlops(const ConvGeometry& g) {
  return 2 * ConvForwardFlops(g);
}

inline int64_t XElems(const ConvGeometry& g) {
  return g.batch * g.cin * InVolume(g);
}
inline int64_t WElems(const ConvGeometry& g) {
  return g.cout * g.cin * KernelVolume(g);
}
inline int64_t YElems(const ConvGeometry& g) {
  return g.batch * g.cout * OutVolume(g);
}

/// Reads x and w, writes y.
inline int64_t ConvForwardBytes(const ConvGeometry& g) {
  return 4 * (XElems(g) + WElems(g) + YElems(g));
}

/// Reads x, w and the output gradient; writes the x and w gradients.
inline int64_t ConvBackwardBytes(const ConvGeometry& g) {
  return 4 * (2 * XElems(g) + 2 * WElems(g) + YElems(g));
}

/// Conv plus one add per output for the bias (the activation is a
/// comparison or a transcendental and is not counted).
inline int64_t ConvBiasActForwardFlops(const ConvGeometry& g) {
  return ConvForwardFlops(g) + YElems(g);
}

/// Conv backward, one multiply per output for the activation
/// derivative, and one add per output for the bias gradient.
inline int64_t ConvBiasActBackwardFlops(const ConvGeometry& g) {
  return ConvBackwardFlops(g) + 2 * YElems(g);
}

/// Forward bytes plus the bias vector.
inline int64_t ConvBiasActForwardBytes(const ConvGeometry& g) {
  return ConvForwardBytes(g) + 4 * g.cout;
}

/// Backward bytes plus the saved output y, and the bias gradient.
inline int64_t ConvBiasActBackwardBytes(const ConvGeometry& g) {
  return ConvBackwardBytes(g) + 4 * (YElems(g) + g.cout);
}

inline int64_t MatMulFlops(int64_t m, int64_t k, int64_t n) {
  return 2 * m * k * n;
}

inline int64_t MatMulBytes(int64_t m, int64_t k, int64_t n) {
  return 4 * (m * k + k * n + m * n);
}

}  // namespace perfbench

#endif  // PERFBENCH_FLOPS_H_
