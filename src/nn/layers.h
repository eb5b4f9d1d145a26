#ifndef EQUITENSOR_NN_LAYERS_H_
#define EQUITENSOR_NN_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "autograd/conv_ops.h"
#include "autograd/hooks.h"
#include "autograd/ops.h"
#include "nn/module.h"
#include "util/rng.h"

namespace equitensor {
namespace nn {

class GraphIr;  // nn/graph_ir.h; layers only hold a pointer

/// Pointwise nonlinearity applied after a layer's affine transform.
enum class Activation { kLinear, kRelu, kSigmoid, kTanh };

/// Applies `act` to `x` (kLinear is the identity).
Variable Activate(const Variable& x, Activation act);

/// Fully connected layer: y = act(x W + b), x: [N, in], W: [in, out].
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         Activation act = Activation::kLinear);

  Variable Forward(const Variable& x) const;
  std::vector<Variable> Parameters() const override { return {weight_, bias_}; }
  std::vector<NamedParameter> NamedParameters() const override {
    return {{"weight", weight_}, {"bias", bias_}};
  }

  const Variable& weight() const { return weight_; }
  const Variable& bias() const { return bias_; }

  /// Names this layer's output as a hook observation point
  /// (autograd/hooks.h); empty (the default) disables observation.
  void SetObserveName(std::string name) { observe_name_ = std::move(name); }

 private:
  Variable weight_;
  Variable bias_;
  Activation act_;
  std::string observe_name_;
};

/// Parameters of one convolutional layer with stride 1 and same
/// padding; `spatial_rank` selects Conv1d/2d/3d (input layouts per
/// autograd/conv_ops.h). It has no forward of its own: ConvStack
/// appends it to a sealed graph (nn/graph_ir.h), which runs it.
class Conv : public Module {
 public:
  Conv(int spatial_rank, int64_t in_channels, int64_t out_channels,
       int64_t kernel, Rng& rng, Activation act = Activation::kRelu);

  std::vector<Variable> Parameters() const override { return {weight_, bias_}; }
  std::vector<NamedParameter> NamedParameters() const override {
    return {{"weight", weight_}, {"bias", bias_}};
  }

  int spatial_rank() const { return spatial_rank_; }
  int64_t in_channels() const { return in_channels_; }
  int64_t out_channels() const { return out_channels_; }

  /// Parameter/config access for the static-graph builder
  /// (nn/graph_ir.h), which references the SAME Variables so optimizer
  /// steps are visible to a sealed schedule.
  const Variable& weight() const { return weight_; }
  const Variable& bias() const { return bias_; }
  Activation activation() const { return act_; }

 private:
  int spatial_rank_;
  int64_t in_channels_;
  int64_t out_channels_;
  Variable weight_;
  Variable bias_;
  Activation act_;
};

/// A stack of Conv layers with ReLU between and a configurable final
/// activation — the paper's ubiquitous "three convolutional layers with
/// 16, 32, 1 filters" building block (§3.2, §3.4).
class ConvStack : public Module {
 public:
  ConvStack(int spatial_rank, int64_t in_channels,
            std::vector<int64_t> filters, int64_t kernel, Rng& rng,
            Activation final_act = Activation::kLinear);
  ~ConvStack();  // out of line: GraphIr is incomplete here

  /// Runs the stack's sealed fused schedule (one fused dispatch per
  /// layer on every backend; `reference` decomposes it).
  Variable Forward(const Variable& x) const;

  /// Appends this stack's layers to `ir` starting from node `input`,
  /// labeling each layer's last node "<observe_name>.conv<i>" when the
  /// stack is named; returns the stack's output node id. Used by models
  /// composing several stacks into one graph.
  int AppendToIr(GraphIr* ir, int input) const;
  std::vector<Variable> Parameters() const override;
  /// Names layers as "conv<i>.weight" / "conv<i>.bias".
  std::vector<NamedParameter> NamedParameters() const override;

  int64_t out_channels() const { return layers_.back()->out_channels(); }

  /// Names the stack's layers as hook observation points
  /// "<name>.conv<i>" (autograd/hooks.h); empty disables observation.
  /// Reseals the stack's own graph; name a stack before appending it
  /// to a model graph.
  void SetObserveName(std::string name);
  const std::string& observe_name() const { return observe_name_; }

  /// The stack's own sealed single-input graph (what Forward runs);
  /// exposed for tests and diagnostics.
  const GraphIr& ir() const { return *ir_; }

 private:
  void BuildIr();

  std::vector<std::unique_ptr<Conv>> layers_;
  std::unique_ptr<GraphIr> ir_;
  std::string observe_name_;
};

}  // namespace nn
}  // namespace equitensor

#endif  // EQUITENSOR_NN_LAYERS_H_
