#include "nn/kernels_naive.h"

#include <algorithm>

#include "nn/backend_registry.h"
#include "util/arena.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace equitensor {
namespace backend {
namespace {

// The `reference` kernels: the original eager conv loops (moved here
// from autograd/conv_ops.cc), run serially on the calling thread. Every
// output element is reduced in a fixed serial order, which makes these
// the semantics oracle that `check` compares the fast kernels against.
// The bodies keep the chunked (i0, i1) shape of the owner-computes
// scheme of DESIGN.md §8 they were written for.

template <typename Body>
void Serial(int64_t begin, int64_t end, const Body& body) {
  if (begin < end) body(begin, end);
}

void Conv1dFwdImpl(const Conv1dDims& d, const Tensor& x, const Tensor& w,
                   Tensor* out) {
  Serial(0, d.batch * d.cout, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const int64_t n = i / d.cout;
      const int64_t co = i % d.cout;
      float* dst = out->data() + (n * d.cout + co) * d.t;
      for (int64_t ci = 0; ci < d.cin; ++ci) {
        const float* src = x.data() + (n * d.cin + ci) * d.t;
        const float* wrow = w.data() + (co * d.cin + ci) * d.k;
        for (int64_t kk = 0; kk < d.k; ++kk) {
          const float wv = wrow[kk];
          const int64_t dt = kk - d.pad;
          const int64_t t0 = std::max<int64_t>(0, -dt);
          const int64_t t1 = std::min<int64_t>(d.t, d.t - dt);
          for (int64_t t = t0; t < t1; ++t) dst[t] += wv * src[t + dt];
        }
      }
    }
  });
}

void Conv1dBwdImpl(const Conv1dDims& d, const Tensor& x, const Tensor& w,
                   const Tensor& gout, Tensor* gx, Tensor* gw) {
  if (gx) {
    Serial(0, d.batch * d.cin, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        const int64_t n = i / d.cin;
        const int64_t ci = i % d.cin;
        float* gsrc = gx->data() + (n * d.cin + ci) * d.t;
        for (int64_t co = 0; co < d.cout; ++co) {
          const float* g = gout.data() + (n * d.cout + co) * d.t;
          const float* wrow = w.data() + (co * d.cin + ci) * d.k;
          for (int64_t kk = 0; kk < d.k; ++kk) {
            const float wv = wrow[kk];
            const int64_t dt = kk - d.pad;
            const int64_t t0 = std::max<int64_t>(0, -dt);
            const int64_t t1 = std::min<int64_t>(d.t, d.t - dt);
            for (int64_t t = t0; t < t1; ++t) gsrc[t + dt] += wv * g[t];
          }
        }
      }
    });
  }
  if (gw) {
    Serial(0, d.cout * d.cin, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        const int64_t co = i / d.cin;
        const int64_t ci = i % d.cin;
        float* gwrow = gw->data() + (co * d.cin + ci) * d.k;
        for (int64_t n = 0; n < d.batch; ++n) {
          const float* g = gout.data() + (n * d.cout + co) * d.t;
          const float* src = x.data() + (n * d.cin + ci) * d.t;
          for (int64_t kk = 0; kk < d.k; ++kk) {
            const int64_t dt = kk - d.pad;
            const int64_t t0 = std::max<int64_t>(0, -dt);
            const int64_t t1 = std::min<int64_t>(d.t, d.t - dt);
            double acc = 0.0;
            for (int64_t t = t0; t < t1; ++t) acc += g[t] * src[t + dt];
            gwrow[kk] += static_cast<float>(acc);
          }
        }
      }
    });
  }
}

void Conv2dFwdImpl(const Conv2dDims& d, const Tensor& x, const Tensor& wt,
                   Tensor* out) {
  const int64_t plane = d.w * d.h;
  Serial(0, d.batch * d.cout, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const int64_t n = i / d.cout;
      const int64_t co = i % d.cout;
      float* dst = out->data() + (n * d.cout + co) * plane;
      for (int64_t ci = 0; ci < d.cin; ++ci) {
        const float* src = x.data() + (n * d.cin + ci) * plane;
        const float* wmat = wt.data() + (co * d.cin + ci) * d.k * d.k;
        for (int64_t kx = 0; kx < d.k; ++kx) {
          const int64_t dxo = kx - d.pad;
          const int64_t x0 = std::max<int64_t>(0, -dxo);
          const int64_t x1 = std::min<int64_t>(d.w, d.w - dxo);
          for (int64_t ky = 0; ky < d.k; ++ky) {
            const float wv = wmat[kx * d.k + ky];
            const int64_t dyo = ky - d.pad;
            const int64_t y0 = std::max<int64_t>(0, -dyo);
            const int64_t y1 = std::min<int64_t>(d.h, d.h - dyo);
            for (int64_t xx = x0; xx < x1; ++xx) {
              const float* srow = src + (xx + dxo) * d.h + dyo;
              float* drow = dst + xx * d.h;
              for (int64_t yy = y0; yy < y1; ++yy) {
                drow[yy] += wv * srow[yy];
              }
            }
          }
        }
      }
    }
  });
}

void Conv2dBwdImpl(const Conv2dDims& d, const Tensor& x, const Tensor& wt,
                   const Tensor& gout, Tensor* gx, Tensor* gw) {
  const int64_t plane = d.w * d.h;
  if (gx) {
    Serial(0, d.batch * d.cin, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        const int64_t n = i / d.cin;
        const int64_t ci = i % d.cin;
        float* gsrc = gx->data() + (n * d.cin + ci) * plane;
        for (int64_t co = 0; co < d.cout; ++co) {
          const float* g = gout.data() + (n * d.cout + co) * plane;
          const float* wmat = wt.data() + (co * d.cin + ci) * d.k * d.k;
          for (int64_t kx = 0; kx < d.k; ++kx) {
            const int64_t dxo = kx - d.pad;
            const int64_t x0 = std::max<int64_t>(0, -dxo);
            const int64_t x1 = std::min<int64_t>(d.w, d.w - dxo);
            for (int64_t ky = 0; ky < d.k; ++ky) {
              const int64_t dyo = ky - d.pad;
              const int64_t y0 = std::max<int64_t>(0, -dyo);
              const int64_t y1 = std::min<int64_t>(d.h, d.h - dyo);
              const float wv = wmat[kx * d.k + ky];
              for (int64_t xx = x0; xx < x1; ++xx) {
                const float* grow = g + xx * d.h;
                float* gsrow = gsrc + (xx + dxo) * d.h + dyo;
                for (int64_t yy = y0; yy < y1; ++yy) {
                  gsrow[yy] += wv * grow[yy];
                }
              }
            }
          }
        }
      }
    });
  }
  if (gw) {
    Serial(0, d.cout * d.cin, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        const int64_t co = i / d.cin;
        const int64_t ci = i % d.cin;
        float* gwmat = gw->data() + (co * d.cin + ci) * d.k * d.k;
        for (int64_t n = 0; n < d.batch; ++n) {
          const float* g = gout.data() + (n * d.cout + co) * plane;
          const float* src = x.data() + (n * d.cin + ci) * plane;
          for (int64_t kx = 0; kx < d.k; ++kx) {
            const int64_t dxo = kx - d.pad;
            const int64_t x0 = std::max<int64_t>(0, -dxo);
            const int64_t x1 = std::min<int64_t>(d.w, d.w - dxo);
            for (int64_t ky = 0; ky < d.k; ++ky) {
              const int64_t dyo = ky - d.pad;
              const int64_t y0 = std::max<int64_t>(0, -dyo);
              const int64_t y1 = std::min<int64_t>(d.h, d.h - dyo);
              double acc = 0.0;
              for (int64_t xx = x0; xx < x1; ++xx) {
                const float* grow = g + xx * d.h;
                const float* srow = src + (xx + dxo) * d.h + dyo;
                for (int64_t yy = y0; yy < y1; ++yy) {
                  acc += grow[yy] * srow[yy];
                }
              }
              gwmat[kx * d.k + ky] += static_cast<float>(acc);
            }
          }
        }
      }
    });
  }
}

void Conv3dFwdImpl(const Conv3dDims& d, const Tensor& x, const Tensor& wt,
                   Tensor* out) {
  const int64_t vol = d.w * d.h * d.t;
  const int64_t k3 = d.k * d.k * d.k;
  Serial(0, d.batch * d.cout, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const int64_t n = i / d.cout;
      const int64_t co = i % d.cout;
      float* dst = out->data() + (n * d.cout + co) * vol;
      for (int64_t ci = 0; ci < d.cin; ++ci) {
        const float* src = x.data() + (n * d.cin + ci) * vol;
        const float* wcube = wt.data() + (co * d.cin + ci) * k3;
        for (int64_t kx = 0; kx < d.k; ++kx) {
          const int64_t dxo = kx - d.pad;
          const int64_t x0 = std::max<int64_t>(0, -dxo);
          const int64_t x1 = std::min<int64_t>(d.w, d.w - dxo);
          for (int64_t ky = 0; ky < d.k; ++ky) {
            const int64_t dyo = ky - d.pad;
            const int64_t y0 = std::max<int64_t>(0, -dyo);
            const int64_t y1 = std::min<int64_t>(d.h, d.h - dyo);
            for (int64_t kt = 0; kt < d.k; ++kt) {
              const float wv = wcube[(kx * d.k + ky) * d.k + kt];
              const int64_t dto = kt - d.pad;
              const int64_t t0 = std::max<int64_t>(0, -dto);
              const int64_t t1 = std::min<int64_t>(d.t, d.t - dto);
              for (int64_t xx = x0; xx < x1; ++xx) {
                for (int64_t yy = y0; yy < y1; ++yy) {
                  const float* srow =
                      src + ((xx + dxo) * d.h + (yy + dyo)) * d.t + dto;
                  float* drow = dst + (xx * d.h + yy) * d.t;
                  for (int64_t tt = t0; tt < t1; ++tt) {
                    drow[tt] += wv * srow[tt];
                  }
                }
              }
            }
          }
        }
      }
    }
  });
}

void Conv3dBwdImpl(const Conv3dDims& d, const Tensor& x, const Tensor& wt,
                   const Tensor& gout, Tensor* gx, Tensor* gw) {
  const int64_t vol = d.w * d.h * d.t;
  const int64_t k3 = d.k * d.k * d.k;
  if (gx) {
    Serial(0, d.batch * d.cin, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        const int64_t n = i / d.cin;
        const int64_t ci = i % d.cin;
        float* gsrc = gx->data() + (n * d.cin + ci) * vol;
        for (int64_t co = 0; co < d.cout; ++co) {
          const float* g = gout.data() + (n * d.cout + co) * vol;
          const float* wcube = wt.data() + (co * d.cin + ci) * k3;
          for (int64_t kx = 0; kx < d.k; ++kx) {
            const int64_t dxo = kx - d.pad;
            const int64_t x0 = std::max<int64_t>(0, -dxo);
            const int64_t x1 = std::min<int64_t>(d.w, d.w - dxo);
            for (int64_t ky = 0; ky < d.k; ++ky) {
              const int64_t dyo = ky - d.pad;
              const int64_t y0 = std::max<int64_t>(0, -dyo);
              const int64_t y1 = std::min<int64_t>(d.h, d.h - dyo);
              for (int64_t kt = 0; kt < d.k; ++kt) {
                const int64_t dto = kt - d.pad;
                const int64_t t0 = std::max<int64_t>(0, -dto);
                const int64_t t1 = std::min<int64_t>(d.t, d.t - dto);
                const float wv = wcube[(kx * d.k + ky) * d.k + kt];
                for (int64_t xx = x0; xx < x1; ++xx) {
                  for (int64_t yy = y0; yy < y1; ++yy) {
                    float* gsrow =
                        gsrc + ((xx + dxo) * d.h + (yy + dyo)) * d.t + dto;
                    const float* grow = g + (xx * d.h + yy) * d.t;
                    for (int64_t tt = t0; tt < t1; ++tt) {
                      gsrow[tt] += wv * grow[tt];
                    }
                  }
                }
              }
            }
          }
        }
      }
    });
  }
  if (gw) {
    Serial(0, d.cout * d.cin, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) {
        const int64_t co = i / d.cin;
        const int64_t ci = i % d.cin;
        float* gwcube = gw->data() + (co * d.cin + ci) * k3;
        for (int64_t n = 0; n < d.batch; ++n) {
          const float* g = gout.data() + (n * d.cout + co) * vol;
          const float* src = x.data() + (n * d.cin + ci) * vol;
          for (int64_t kx = 0; kx < d.k; ++kx) {
            const int64_t dxo = kx - d.pad;
            const int64_t x0 = std::max<int64_t>(0, -dxo);
            const int64_t x1 = std::min<int64_t>(d.w, d.w - dxo);
            for (int64_t ky = 0; ky < d.k; ++ky) {
              const int64_t dyo = ky - d.pad;
              const int64_t y0 = std::max<int64_t>(0, -dyo);
              const int64_t y1 = std::min<int64_t>(d.h, d.h - dyo);
              for (int64_t kt = 0; kt < d.k; ++kt) {
                const int64_t dto = kt - d.pad;
                const int64_t t0 = std::max<int64_t>(0, -dto);
                const int64_t t1 = std::min<int64_t>(d.t, d.t - dto);
                double acc = 0.0;
                for (int64_t xx = x0; xx < x1; ++xx) {
                  for (int64_t yy = y0; yy < y1; ++yy) {
                    const float* srow =
                        src + ((xx + dxo) * d.h + (yy + dyo)) * d.t + dto;
                    const float* grow = g + (xx * d.h + yy) * d.t;
                    for (int64_t tt = t0; tt < t1; ++tt) {
                      acc += grow[tt] * srow[tt];
                    }
                  }
                }
                gwcube[(kx * d.k + ky) * d.k + kt] +=
                    static_cast<float>(acc);
              }
            }
          }
        }
      }
    });
  }
}

// Row-major triple loop (moved from tensor/tensor_ops.cc) extended
// with transpose flags and accumulate. Transposed operands are packed
// contiguous through the arena — the same memory walk the old
// Transpose2d-then-MatMul hot path performed, minus its per-call
// allocations. Each output row's k-loop runs in serial order.
void MatMulImpl(const MatMulSpec& s, const float* a, const float* b, float* c) {
  ArenaBuffer apack, bpack;
  if (s.trans_a) {
    apack = ArenaBuffer(Arena::Global(), s.m * s.k);
    float* dst = apack.data();
    for (int64_t kk = 0; kk < s.k; ++kk) {
      for (int64_t i = 0; i < s.m; ++i) dst[i * s.k + kk] = a[kk * s.m + i];
    }
    a = dst;
  }
  if (s.trans_b) {
    bpack = ArenaBuffer(Arena::Global(), s.k * s.n);
    float* dst = bpack.data();
    for (int64_t j = 0; j < s.n; ++j) {
      for (int64_t kk = 0; kk < s.k; ++kk) dst[kk * s.n + j] = b[j * s.k + kk];
    }
    b = dst;
  }
  if (!s.accumulate) std::fill(c, c + s.m * s.n, 0.0f);
  Serial(0, s.m, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      float* crow = c + i * s.n;
      for (int64_t kk = 0; kk < s.k; ++kk) {
        const float av = a[i * s.k + kk];
        if (av == 0.0f) continue;
        const float* brow = b + kk * s.n;
        for (int64_t j = 0; j < s.n; ++j) crow[j] += av * brow[j];
      }
    }
  });
}

// Per-backend entry wrappers: the trace span and dispatch counter live
// with the kernel so /metrics and chrome-trace are backend-tagged.

void RefConv1dFwd(const Conv1dDims& d, const Tensor& x, const Tensor& w,
                  Tensor* out) {
  ET_TRACE_SPAN("conv1d.fwd.ref");
  ET_METRIC_COUNTER_ADD("kernel.conv1d_fwd.reference", 1);
  Conv1dFwdImpl(d, x, w, out);
}
void RefConv1dBwd(const Conv1dDims& d, const Tensor& x, const Tensor& w,
                  const Tensor& gout, Tensor* gx, Tensor* gw) {
  ET_TRACE_SPAN("conv1d.bwd.ref");
  ET_METRIC_COUNTER_ADD("kernel.conv1d_bwd.reference", 1);
  Conv1dBwdImpl(d, x, w, gout, gx, gw);
}
void RefConv2dFwd(const Conv2dDims& d, const Tensor& x, const Tensor& w,
                  Tensor* out) {
  ET_TRACE_SPAN("conv2d.fwd.ref");
  ET_METRIC_COUNTER_ADD("kernel.conv2d_fwd.reference", 1);
  Conv2dFwdImpl(d, x, w, out);
}
void RefConv2dBwd(const Conv2dDims& d, const Tensor& x, const Tensor& w,
                  const Tensor& gout, Tensor* gx, Tensor* gw) {
  ET_TRACE_SPAN("conv2d.bwd.ref");
  ET_METRIC_COUNTER_ADD("kernel.conv2d_bwd.reference", 1);
  Conv2dBwdImpl(d, x, w, gout, gx, gw);
}
void RefConv3dFwd(const Conv3dDims& d, const Tensor& x, const Tensor& w,
                  Tensor* out) {
  ET_TRACE_SPAN("conv3d.fwd.ref");
  ET_METRIC_COUNTER_ADD("kernel.conv3d_fwd.reference", 1);
  Conv3dFwdImpl(d, x, w, out);
}
void RefConv3dBwd(const Conv3dDims& d, const Tensor& x, const Tensor& w,
                  const Tensor& gout, Tensor* gx, Tensor* gw) {
  ET_TRACE_SPAN("conv3d.bwd.ref");
  ET_METRIC_COUNTER_ADD("kernel.conv3d_bwd.reference", 1);
  Conv3dBwdImpl(d, x, w, gout, gx, gw);
}
void RefMatMul(const MatMulSpec& s, const float* a, const float* b, float* c) {
  ET_TRACE_SPAN("matmul.ref");
  ET_METRIC_COUNTER_ADD("kernel.matmul.reference", 1);
  MatMulImpl(s, a, b, c);
}

}  // namespace

void RegisterNaiveKernels() {
  static const bool registered = [] {
    RegisterKernelFn<Conv1dFwdFn>("conv1d_fwd", "reference", RefConv1dFwd);
    RegisterKernelFn<Conv1dBwdFn>("conv1d_bwd", "reference", RefConv1dBwd);
    RegisterKernelFn<Conv2dFwdFn>("conv2d_fwd", "reference", RefConv2dFwd);
    RegisterKernelFn<Conv2dBwdFn>("conv2d_bwd", "reference", RefConv2dBwd);
    RegisterKernelFn<Conv3dFwdFn>("conv3d_fwd", "reference", RefConv3dFwd);
    RegisterKernelFn<Conv3dBwdFn>("conv3d_bwd", "reference", RefConv3dBwd);
    RegisterKernelFn<MatMulFn>("matmul", "reference", RefMatMul);
    return true;
  }();
  (void)registered;
}

}  // namespace backend
}  // namespace equitensor
