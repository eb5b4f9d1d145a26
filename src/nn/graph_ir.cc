#include "nn/graph_ir.h"

#include <utility>

#include "autograd/conv_ops.h"
#include "autograd/hooks.h"
#include "autograd/ops.h"
#include "nn/backend_registry.h"
#include "nn/graph_fuser.h"
#include "util/check.h"

namespace equitensor {
namespace nn {
namespace {

// nn::Activation and backend::Act share values by design
// (backend_registry.h documents the mirror).
backend::Act ToBackendAct(Activation act) {
  return static_cast<backend::Act>(static_cast<int32_t>(act));
}

}  // namespace

int GraphIr::AddInput(int64_t channels) {
  ET_CHECK(!sealed_);
  IrNode n;
  n.op = IrOp::kInput;
  n.channels = channels;
  nodes_.push_back(std::move(n));
  const int id = static_cast<int>(nodes_.size()) - 1;
  input_ids_.push_back(id);
  return id;
}

int GraphIr::AddConv(int input, int spatial_rank, Variable weight) {
  ET_CHECK(!sealed_);
  ET_CHECK(input >= 0 && input < static_cast<int>(nodes_.size()));
  ET_CHECK(spatial_rank >= 1 && spatial_rank <= 3);
  IrNode n;
  n.op = IrOp::kConv;
  n.inputs = {input};
  n.spatial_rank = spatial_rank;
  n.weight = std::move(weight);
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

int GraphIr::AddBias(int input, Variable bias) {
  ET_CHECK(!sealed_);
  ET_CHECK(input >= 0 && input < static_cast<int>(nodes_.size()));
  IrNode n;
  n.op = IrOp::kBias;
  n.inputs = {input};
  n.bias = std::move(bias);
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

int GraphIr::AddAct(int input, Activation act) {
  ET_CHECK(!sealed_);
  ET_CHECK(input >= 0 && input < static_cast<int>(nodes_.size()));
  if (act == Activation::kLinear) return input;  // identity: no node
  IrNode n;
  n.op = IrOp::kAct;
  n.inputs = {input};
  n.act = act;
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

int GraphIr::AddTile(int input, int axis, int64_t repeat) {
  ET_CHECK(!sealed_);
  ET_CHECK(input >= 0 && input < static_cast<int>(nodes_.size()));
  IrNode n;
  n.op = IrOp::kTile;
  n.inputs = {input};
  n.tile_axis = axis;
  n.tile_count = repeat;
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

int GraphIr::AddConcat(std::vector<int> inputs) {
  ET_CHECK(!sealed_);
  ET_CHECK(!inputs.empty());
  for (int in : inputs) {
    ET_CHECK(in >= 0 && in < static_cast<int>(nodes_.size()));
  }
  IrNode n;
  n.op = IrOp::kConcat;
  n.inputs = std::move(inputs);
  nodes_.push_back(std::move(n));
  return static_cast<int>(nodes_.size()) - 1;
}

void GraphIr::MarkOutput(int id) {
  ET_CHECK(!sealed_);
  ET_CHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
  outputs_.push_back(id);
}

void GraphIr::SetObserve(int id, std::string point) {
  ET_CHECK(!sealed_);
  ET_CHECK(id >= 0 && id < static_cast<int>(nodes_.size()));
  nodes_[id].observe = std::move(point);
}

void GraphIr::Seal() {
  ET_CHECK(!sealed_) << "GraphIr sealed twice";
  ET_CHECK(!outputs_.empty()) << "GraphIr has no outputs";
  stats_ = FuseGraph(&nodes_, outputs_);

  // Liveness: only nodes reachable from the outputs execute. Builders
  // append in topological order and the fuser only rewires to older
  // ids, so ascending id order IS a valid schedule of the live set.
  std::vector<bool> live(nodes_.size(), false);
  std::vector<int> stack(outputs_.begin(), outputs_.end());
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    if (live[id]) continue;
    live[id] = true;
    for (int in : nodes_[id].inputs) stack.push_back(in);
  }
  schedule_.clear();
  int live_count = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (!live[i]) continue;
    ++live_count;
    if (nodes_[i].op != IrOp::kInput) schedule_.push_back(static_cast<int>(i));
  }
  for (int in : input_ids_) {
    ET_CHECK(live[in]) << "GraphIr input " << in << " is dead";
  }
  stats_.nodes_after = live_count;
  sealed_ = true;
}

int GraphIr::materialized_intermediates() const {
  ET_CHECK(sealed_);
  int n = static_cast<int>(schedule_.size());
  for (int out : outputs_) {
    if (nodes_[out].op != IrOp::kInput) --n;
  }
  return n;
}

std::vector<Variable> GraphIr::Run(const std::vector<Variable>& inputs) const {
  ET_CHECK(sealed_) << "GraphIr::Run before Seal";
  ET_CHECK_EQ(inputs.size(), input_ids_.size());
  std::vector<Variable> values(nodes_.size());
  for (size_t i = 0; i < input_ids_.size(); ++i) {
    ET_CHECK_EQ(inputs[i].value().dim(1), nodes_[input_ids_[i]].channels)
        << "input " << i << " channel mismatch";
    values[input_ids_[i]] = inputs[i];
  }
  for (const int id : schedule_) {
    const IrNode& n = nodes_[id];
    switch (n.op) {
      case IrOp::kInput:
        ET_CHECK(false);
        break;
      case IrOp::kConv: {
        const Variable& x = values[n.inputs[0]];
        switch (n.spatial_rank) {
          case 1:
            values[id] = ag::Conv1d(x, n.weight);
            break;
          case 2:
            values[id] = ag::Conv2d(x, n.weight);
            break;
          default:
            values[id] = ag::Conv3d(x, n.weight);
            break;
        }
        break;
      }
      case IrOp::kBias:
        values[id] = ag::AddBias(values[n.inputs[0]], n.bias,
                                 /*channel_axis=*/1);
        break;
      case IrOp::kAct:
        values[id] = Activate(values[n.inputs[0]], n.act);
        break;
      case IrOp::kTile:
        values[id] = ag::TileAt(values[n.inputs[0]], n.tile_axis,
                                n.tile_count);
        break;
      case IrOp::kConcat: {
        std::vector<Variable> parts;
        parts.reserve(n.inputs.size());
        for (int in : n.inputs) parts.push_back(values[in]);
        values[id] = ag::Concat(parts, /*axis=*/1);
        break;
      }
      case IrOp::kFusedConvBiasAct:
        values[id] = ag::ConvBiasAct(values[n.inputs[0]], n.weight, n.bias,
                                     ToBackendAct(n.act));
        break;
      case IrOp::kFusedConcatConvBiasAct: {
        std::vector<Variable> parts;
        parts.reserve(n.inputs.size());
        for (int in : n.inputs) parts.push_back(values[in]);
        values[id] = ag::ConcatConvBiasAct(parts, n.weight, n.bias,
                                           ToBackendAct(n.act));
        break;
      }
    }
    // One relaxed load when no hooks are registered.
    if (!n.observe.empty()) values[id] = ag::Observe(n.observe, values[id]);
  }
  std::vector<Variable> out;
  out.reserve(outputs_.size());
  for (int id : outputs_) out.push_back(values[id]);
  return out;
}

Variable GraphIr::Run1(const Variable& input) const {
  ET_CHECK_EQ(outputs_.size(), 1u);
  return Run({input})[0];
}

}  // namespace nn
}  // namespace equitensor
