#include "nn/graph_fuser.h"

#include <unordered_set>

#include "util/check.h"

namespace equitensor {
namespace nn {
namespace {

// Consumer counts per node id (output marks are not uses — they are
// checked separately, because an output must stay materialized).
std::vector<int> UseCounts(const std::vector<IrNode>& nodes) {
  std::vector<int> uses(nodes.size(), 0);
  for (const IrNode& n : nodes) {
    for (int in : n.inputs) ++uses[in];
  }
  return uses;
}

}  // namespace

FusionStats FuseGraph(std::vector<IrNode>* nodes,
                      const std::vector<int>& outputs) {
  FusionStats stats;
  stats.nodes_before = static_cast<int>(nodes->size());
  std::unordered_set<int> is_output(outputs.begin(), outputs.end());
  // Outputs and labeled nodes must stay materialized.
  auto fusable = [&](int id, const std::vector<int>& uses) {
    return uses[id] == 1 && is_output.count(id) == 0 &&
           (*nodes)[id].observe.empty();
  };

  // Rule 1: collapse conv → bias (→ act). The terminal node (act, or
  // bias when no activation follows) is rewritten in place so every
  // downstream edge stays valid; interior nodes orphan.
  {
    const std::vector<int> uses = UseCounts(*nodes);
    // Bias nodes consumed by an act-terminated fusion must not match
    // the bias-terminated rule afterwards.
    std::unordered_set<int> absorbed;
    for (size_t i = 0; i < nodes->size(); ++i) {
      IrNode& act_node = (*nodes)[i];
      if (act_node.op != IrOp::kAct) continue;
      const int bias_id = act_node.inputs[0];
      const IrNode& bias_node = (*nodes)[bias_id];
      if (bias_node.op != IrOp::kBias || !fusable(bias_id, uses)) continue;
      const int conv_id = bias_node.inputs[0];
      const IrNode& conv_node = (*nodes)[conv_id];
      if (conv_node.op != IrOp::kConv || !fusable(conv_id, uses)) continue;
      act_node.op = IrOp::kFusedConvBiasAct;
      act_node.inputs = conv_node.inputs;
      act_node.spatial_rank = conv_node.spatial_rank;
      act_node.weight = conv_node.weight;
      act_node.bias = bias_node.bias;
      // Detach the orphans so later passes' use counts see the real
      // consumer set (the orphaned conv would otherwise keep its
      // producer — e.g. a concat — looking multi-use).
      (*nodes)[bias_id].inputs.clear();
      (*nodes)[conv_id].inputs.clear();
      absorbed.insert(bias_id);
      ++stats.conv_bias_act;
    }
    for (size_t i = 0; i < nodes->size(); ++i) {
      IrNode& bias_node = (*nodes)[i];
      if (bias_node.op != IrOp::kBias || absorbed.count(static_cast<int>(i))) {
        continue;
      }
      const int conv_id = bias_node.inputs[0];
      const IrNode& conv_node = (*nodes)[conv_id];
      if (conv_node.op != IrOp::kConv || !fusable(conv_id, uses)) continue;
      bias_node.op = IrOp::kFusedConvBiasAct;
      bias_node.inputs = conv_node.inputs;
      bias_node.spatial_rank = conv_node.spatial_rank;
      bias_node.weight = conv_node.weight;
      bias_node.act = Activation::kLinear;
      (*nodes)[conv_id].inputs.clear();
      ++stats.conv_bias_act;
    }
  }

  // Rule 2: fold a single-consumer concat into its fused consumer's
  // input gather. Rank 3 only — that is the shape the gather kernel
  // implements, and the models' encoder concats are all rank 3.
  {
    const std::vector<int> uses = UseCounts(*nodes);
    for (IrNode& fused : *nodes) {
      if (fused.op != IrOp::kFusedConvBiasAct || fused.spatial_rank != 3) {
        continue;
      }
      const int concat_id = fused.inputs[0];
      const IrNode& concat = (*nodes)[concat_id];
      if (concat.op != IrOp::kConcat || !fusable(concat_id, uses)) continue;
      fused.op = IrOp::kFusedConcatConvBiasAct;
      fused.inputs = concat.inputs;
      ++stats.concat_folds;
    }
  }

  return stats;
}

}  // namespace nn
}  // namespace equitensor
