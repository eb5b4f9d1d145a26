#include "autograd/conv_ops.h"

#include <utility>

#include "nn/backend_registry.h"
#include "util/check.h"

namespace equitensor {
namespace ag {
namespace {

// The conv kernels themselves live behind the runtime backend
// registry (nn/backend_registry.h): reference scalar loops or the fast
// im2col + blocked-GEMM path, selected by --backend / ET_BACKEND. This layer validates
// shapes exactly once per op — the dims structs below are the
// pre-checked contract every backend kernel trusts — and wires the
// dispatch into the autograd graph.

backend::Conv1dDims Check1d(const Tensor& x, const Tensor& w) {
  ET_CHECK_EQ(x.rank(), 3) << "Conv1d input must be [N, C, T]";
  ET_CHECK_EQ(w.rank(), 3) << "Conv1d weight must be [Cout, Cin, K]";
  ET_CHECK_EQ(x.dim(1), w.dim(1)) << "Cin mismatch";
  ET_CHECK_EQ(w.dim(2) % 2, 1) << "same padding requires odd kernel";
  return {x.dim(0), x.dim(1), x.dim(2), w.dim(0), w.dim(2), w.dim(2) / 2};
}

backend::Conv2dDims Check2d(const Tensor& x, const Tensor& wt) {
  ET_CHECK_EQ(x.rank(), 4) << "Conv2d input must be [N, C, W, H]";
  ET_CHECK_EQ(wt.rank(), 4) << "Conv2d weight must be [Cout, Cin, K, K]";
  ET_CHECK_EQ(x.dim(1), wt.dim(1)) << "Cin mismatch";
  ET_CHECK_EQ(wt.dim(2), wt.dim(3)) << "square kernels only";
  ET_CHECK_EQ(wt.dim(2) % 2, 1) << "same padding requires odd kernel";
  return {x.dim(0), x.dim(1), x.dim(2), x.dim(3),
          wt.dim(0), wt.dim(2), wt.dim(2) / 2};
}

backend::Conv3dDims Check3d(const Tensor& x, const Tensor& wt) {
  ET_CHECK_EQ(x.rank(), 5) << "Conv3d input must be [N, C, W, H, T]";
  ET_CHECK_EQ(wt.rank(), 5) << "Conv3d weight must be [Cout, Cin, K, K, K]";
  ET_CHECK_EQ(x.dim(1), wt.dim(1)) << "Cin mismatch";
  ET_CHECK(wt.dim(2) == wt.dim(3) && wt.dim(3) == wt.dim(4))
      << "cubic kernels only";
  ET_CHECK_EQ(wt.dim(2) % 2, 1) << "same padding requires odd kernel";
  return {x.dim(0), x.dim(1), x.dim(2), x.dim(3), x.dim(4),
          wt.dim(0), wt.dim(2), wt.dim(2) / 2};
}

// Builds the Variable wrapper shared by the three convolutions. The
// callables receive pre-validated inputs; dims are computed once by
// the caller and captured.
template <typename ForwardFn, typename BackwardFn>
Variable MakeConv(const char* name, const Variable& x, const Variable& w,
                  std::vector<int64_t> out_shape, ForwardFn forward,
                  BackwardFn backward) {
  Tensor out(std::move(out_shape));
  forward(x.value(), w.value(), &out);
  auto x_node = x.node();
  auto w_node = w.node();
  return Variable::MakeOp(
      name, std::move(out), {x, w},
      [x_node, w_node, backward](const AutogradNode& n) {
        Tensor gx_storage, gw_storage;
        Tensor* gx = nullptr;
        Tensor* gw = nullptr;
        if (x_node->requires_grad) {
          gx_storage = Tensor(x_node->value.shape());
          gx = &gx_storage;
        }
        if (w_node->requires_grad) {
          gw_storage = Tensor(w_node->value.shape());
          gw = &gw_storage;
        }
        backward(x_node->value, w_node->value, n.grad, gx, gw);
        if (gx) x_node->AccumulateGrad(gx_storage);
        if (gw) w_node->AccumulateGrad(gw_storage);
      });
}

// Unified fused-dispatch geometry from the per-rank validators (rank 1:
// w = h = 1, t is time; rank 2: t = 1 — the same unification the
// im2col lowering uses).
backend::ConvBiasActDims CheckCba(const Tensor& x, const Tensor& w,
                                  const Tensor& b, backend::Act act) {
  backend::ConvBiasActDims d{};
  switch (x.rank()) {
    case 3: {
      const backend::Conv1dDims c = Check1d(x, w);
      d = {1, c.batch, c.cin, c.cout, c.k, c.pad, 1, 1, c.t, act};
      break;
    }
    case 4: {
      const backend::Conv2dDims c = Check2d(x, w);
      d = {2, c.batch, c.cin, c.cout, c.k, c.pad, c.w, c.h, 1, act};
      break;
    }
    case 5: {
      const backend::Conv3dDims c = Check3d(x, w);
      d = {3, c.batch, c.cin, c.cout, c.k, c.pad, c.w, c.h, c.t, act};
      break;
    }
    default:
      ET_CHECK(false) << "ConvBiasAct input must be rank 3, 4, or 5, got "
                      << x.rank();
  }
  ET_CHECK_EQ(b.rank(), 1) << "bias must be a vector";
  ET_CHECK_EQ(b.dim(0), d.cout) << "bias length must match Cout";
  return d;
}

std::vector<int64_t> CbaOutShape(const backend::ConvBiasActDims& d) {
  switch (d.rank) {
    case 1:
      return {d.batch, d.cout, d.t};
    case 2:
      return {d.batch, d.cout, d.w, d.h};
    default:
      return {d.batch, d.cout, d.w, d.h, d.t};
  }
}

}  // namespace

Variable Conv1d(const Variable& x, const Variable& w) {
  const backend::Conv1dDims d = Check1d(x.value(), w.value());
  return MakeConv(
      "conv1d", x, w, {d.batch, d.cout, d.t},
      [d](const Tensor& xv, const Tensor& wv, Tensor* out) {
        backend::Conv1dForward(d, xv, wv, out);
      },
      [d](const Tensor& xv, const Tensor& wv, const Tensor& gout, Tensor* gx,
          Tensor* gw) { backend::Conv1dBackward(d, xv, wv, gout, gx, gw); });
}

Variable Conv2d(const Variable& x, const Variable& w) {
  const backend::Conv2dDims d = Check2d(x.value(), w.value());
  return MakeConv(
      "conv2d", x, w, {d.batch, d.cout, d.w, d.h},
      [d](const Tensor& xv, const Tensor& wv, Tensor* out) {
        backend::Conv2dForward(d, xv, wv, out);
      },
      [d](const Tensor& xv, const Tensor& wv, const Tensor& gout, Tensor* gx,
          Tensor* gw) { backend::Conv2dBackward(d, xv, wv, gout, gx, gw); });
}

Variable Conv3d(const Variable& x, const Variable& w) {
  const backend::Conv3dDims d = Check3d(x.value(), w.value());
  return MakeConv(
      "conv3d", x, w, {d.batch, d.cout, d.w, d.h, d.t},
      [d](const Tensor& xv, const Tensor& wv, Tensor* out) {
        backend::Conv3dForward(d, xv, wv, out);
      },
      [d](const Tensor& xv, const Tensor& wv, const Tensor& gout, Tensor* gx,
          Tensor* gw) { backend::Conv3dBackward(d, xv, wv, gout, gx, gw); });
}

Variable ConvBiasAct(const Variable& x, const Variable& w, const Variable& b,
                     backend::Act act) {
  const backend::ConvBiasActDims d =
      CheckCba(x.value(), w.value(), b.value(), act);
  Tensor out(CbaOutShape(d));
  backend::ConvBiasActForward(d, x.value(), w.value(), b.value(), &out);
  auto x_node = x.node();
  auto w_node = w.node();
  auto b_node = b.node();
  return Variable::MakeOp(
      "conv_bias_act", std::move(out), {x, w, b},
      [d, x_node, w_node, b_node](const AutogradNode& n) {
        Tensor gx_storage, gw_storage, gb_storage;
        Tensor* gx = nullptr;
        Tensor* gw = nullptr;
        Tensor* gb = nullptr;
        if (x_node->requires_grad) {
          gx_storage = Tensor(x_node->value.shape());
          gx = &gx_storage;
        }
        if (w_node->requires_grad) {
          gw_storage = Tensor(w_node->value.shape());
          gw = &gw_storage;
        }
        if (b_node->requires_grad) {
          gb_storage = Tensor(b_node->value.shape());
          gb = &gb_storage;
        }
        backend::ConvBiasActBackward(d, x_node->value, w_node->value, n.value,
                                     n.grad, gx, gw, gb);
        if (gx) x_node->AccumulateGrad(gx_storage);
        if (gw) w_node->AccumulateGrad(gw_storage);
        if (gb) b_node->AccumulateGrad(gb_storage);
      });
}

Variable ConcatConvBiasAct(const std::vector<Variable>& parts,
                           const Variable& w, const Variable& b,
                           backend::Act act) {
  ET_CHECK(!parts.empty()) << "ConcatConvBiasAct needs at least one part";
  const Tensor& first = parts[0].value();
  ET_CHECK_EQ(first.rank(), 5)
      << "ConcatConvBiasAct parts must be [N, C, W, H, T]";
  int64_t cin = 0;
  for (const Variable& part : parts) {
    const Tensor& pv = part.value();
    ET_CHECK_EQ(pv.rank(), 5);
    ET_CHECK_EQ(pv.dim(0), first.dim(0)) << "batch mismatch across parts";
    ET_CHECK_EQ(pv.dim(2), first.dim(2)) << "width mismatch across parts";
    ET_CHECK_EQ(pv.dim(3), first.dim(3)) << "height mismatch across parts";
    ET_CHECK_EQ(pv.dim(4), first.dim(4)) << "time mismatch across parts";
    cin += pv.dim(1);
  }
  const Tensor& wt = w.value();
  ET_CHECK_EQ(wt.rank(), 5);
  ET_CHECK_EQ(wt.dim(1), cin) << "weight Cin must equal summed part channels";
  ET_CHECK(wt.dim(2) == wt.dim(3) && wt.dim(3) == wt.dim(4))
      << "cubic kernels only";
  ET_CHECK_EQ(wt.dim(2) % 2, 1) << "same padding requires odd kernel";
  ET_CHECK_EQ(b.value().rank(), 1);
  ET_CHECK_EQ(b.value().dim(0), wt.dim(0));
  const backend::ConvBiasActDims d = {3,          first.dim(0), cin,
                                      wt.dim(0),  wt.dim(2),    wt.dim(2) / 2,
                                      first.dim(2), first.dim(3), first.dim(4),
                                      act};

  std::vector<std::shared_ptr<AutogradNode>> part_nodes;
  std::vector<const Tensor*> part_values;
  part_nodes.reserve(parts.size());
  part_values.reserve(parts.size());
  for (const Variable& part : parts) {
    part_nodes.push_back(part.node());
    part_values.push_back(&part.value());
  }
  Tensor out(CbaOutShape(d));
  backend::ConcatConvBiasActForward(d, part_values, w.value(), b.value(),
                                    &out);

  auto w_node = w.node();
  auto b_node = b.node();
  std::vector<Variable> inputs = parts;
  inputs.push_back(w);
  inputs.push_back(b);
  return Variable::MakeOp(
      "concat_conv_bias_act", std::move(out), std::move(inputs),
      [d, part_nodes, w_node, b_node](const AutogradNode& n) {
        std::vector<const Tensor*> values(part_nodes.size());
        std::vector<Tensor> gp_storage(part_nodes.size());
        std::vector<Tensor*> gparts(part_nodes.size(), nullptr);
        for (size_t i = 0; i < part_nodes.size(); ++i) {
          values[i] = &part_nodes[i]->value;
          if (part_nodes[i]->requires_grad) {
            gp_storage[i] = Tensor(part_nodes[i]->value.shape());
            gparts[i] = &gp_storage[i];
          }
        }
        Tensor gw_storage, gb_storage;
        Tensor* gw = nullptr;
        Tensor* gb = nullptr;
        if (w_node->requires_grad) {
          gw_storage = Tensor(w_node->value.shape());
          gw = &gw_storage;
        }
        if (b_node->requires_grad) {
          gb_storage = Tensor(b_node->value.shape());
          gb = &gb_storage;
        }
        backend::ConcatConvBiasActBackward(d, values, w_node->value, n.value,
                                           n.grad, gparts, gw, gb);
        for (size_t i = 0; i < part_nodes.size(); ++i) {
          if (gparts[i]) part_nodes[i]->AccumulateGrad(gp_storage[i]);
        }
        if (gw) w_node->AccumulateGrad(gw_storage);
        if (gb) b_node->AccumulateGrad(gb_storage);
      });
}

}  // namespace ag
}  // namespace equitensor
