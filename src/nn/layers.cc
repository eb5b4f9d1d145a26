#include "nn/layers.h"

#include <cmath>

#include "nn/graph_ir.h"
#include "nn/init.h"
#include "util/check.h"

namespace equitensor {
namespace nn {

Variable Activate(const Variable& x, Activation act) {
  switch (act) {
    case Activation::kLinear:
      return x;
    case Activation::kRelu:
      return ag::Relu(x);
    case Activation::kSigmoid:
      return ag::Sigmoid(x);
    case Activation::kTanh:
      return ag::Tanh(x);
  }
  ET_CHECK(false) << "unknown activation";
  return x;
}

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng,
               Activation act)
    : weight_(GlorotUniform({in_features, out_features}, in_features,
                            out_features, rng),
              /*requires_grad=*/true),
      bias_(Tensor({out_features}), /*requires_grad=*/true),
      act_(act) {}

Variable Linear::Forward(const Variable& x) const {
  Variable y = ag::MatMul(x, weight_);
  y = ag::AddBias(y, bias_, /*channel_axis=*/1);
  y = Activate(y, act_);
  if (!observe_name_.empty()) y = ag::Observe(observe_name_, y);
  return y;
}

Conv::Conv(int spatial_rank, int64_t in_channels, int64_t out_channels,
           int64_t kernel, Rng& rng, Activation act)
    : spatial_rank_(spatial_rank),
      in_channels_(in_channels),
      out_channels_(out_channels),
      act_(act) {
  ET_CHECK(spatial_rank >= 1 && spatial_rank <= 3);
  ET_CHECK_EQ(kernel % 2, 1) << "same padding requires odd kernels";
  std::vector<int64_t> w_shape = {out_channels, in_channels};
  int64_t kernel_volume = 1;
  for (int d = 0; d < spatial_rank; ++d) {
    w_shape.push_back(kernel);
    kernel_volume *= kernel;
  }
  weight_ = Variable(GlorotUniform(std::move(w_shape),
                                   in_channels * kernel_volume,
                                   out_channels * kernel_volume, rng),
                     /*requires_grad=*/true);
  bias_ = Variable(Tensor({out_channels}), /*requires_grad=*/true);
}

ConvStack::ConvStack(int spatial_rank, int64_t in_channels,
                     std::vector<int64_t> filters, int64_t kernel, Rng& rng,
                     Activation final_act) {
  ET_CHECK(!filters.empty());
  int64_t channels = in_channels;
  for (size_t i = 0; i < filters.size(); ++i) {
    const Activation act =
        (i + 1 == filters.size()) ? final_act : Activation::kRelu;
    layers_.push_back(
        std::make_unique<Conv>(spatial_rank, channels, filters[i], kernel,
                               rng, act));
    channels = filters[i];
  }
  BuildIr();
}

ConvStack::~ConvStack() = default;

void ConvStack::BuildIr() {
  ir_ = std::make_unique<GraphIr>();
  const int input = ir_->AddInput(layers_.front()->in_channels());
  ir_->MarkOutput(AppendToIr(ir_.get(), input));
  ir_->Seal();
}

void ConvStack::SetObserveName(std::string name) {
  observe_name_ = std::move(name);
  BuildIr();
}

int ConvStack::AppendToIr(GraphIr* ir, int input) const {
  int id = input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Conv& layer = *layers_[i];
    id = ir->AddConv(id, layer.spatial_rank(), layer.weight());
    id = ir->AddBias(id, layer.bias());
    id = ir->AddAct(id, layer.activation());
    if (!observe_name_.empty()) {
      ir->SetObserve(id, observe_name_ + ".conv" + std::to_string(i));
    }
  }
  return id;
}

Variable ConvStack::Forward(const Variable& x) const { return ir_->Run1(x); }

std::vector<Variable> ConvStack::Parameters() const {
  std::vector<Variable> params;
  for (const auto& layer : layers_) {
    for (const Variable& p : layer->Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<NamedParameter> ConvStack::NamedParameters() const {
  std::vector<NamedParameter> named;
  for (size_t i = 0; i < layers_.size(); ++i) {
    AppendNamedParameters("conv" + std::to_string(i) + ".", *layers_[i],
                          &named);
  }
  return named;
}

}  // namespace nn
}  // namespace equitensor
