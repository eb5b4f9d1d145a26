#ifndef EQUITENSOR_NN_GRAPH_IR_H_
#define EQUITENSOR_NN_GRAPH_IR_H_

#include <string>
#include <vector>

#include "autograd/variable.h"
#include "nn/layers.h"

namespace equitensor {
namespace nn {

/// Static graph IR for the CDAE forward (DESIGN.md §15). Models build
/// their op graph ONCE at construction over symbolic shapes — nodes
/// reference parameter Variables, never activations — then Seal() runs
/// the pattern-matching fuser (graph_fuser.h) and computes a topological
/// schedule. Per step, Run() executes that fixed schedule through the
/// autograd ops, so fused nodes become single ag::ConvBiasAct /
/// ag::ConcatConvBiasAct dispatches: the pre-activation tensors and the
/// encoder-concat intermediate (plus their gradients) are never
/// materialized. This is the only forward the models have: on the
/// `reference` backend the fused dispatches run the registry's
/// decomposition, and hooks (autograd/hooks.h) observe the nodes that
/// carry an observation label.
enum class IrOp {
  kInput,                   // placeholder fed by Run()
  kConv,                    // ag::Conv{1,2,3}d(input, weight)
  kBias,                    // ag::AddBias(input, bias, axis 1)
  kAct,                     // nn::Activate(input, act)
  kTile,                    // ag::TileAt(input, axis, repeat)
  kConcat,                  // ag::Concat(inputs, axis 1)
  kFusedConvBiasAct,        // one dispatch: act(conv(input, w) + b)
  kFusedConcatConvBiasAct,  // same, input = virtual concat of `inputs`
};

/// One IR node. Which fields are meaningful depends on `op`; parameter
/// Variables are shared handles onto the owning layers' parameters, so
/// optimizer updates are visible to the schedule without rebuilding.
struct IrNode {
  IrOp op = IrOp::kInput;
  std::vector<int> inputs;  // producer node ids, in argument order
  int spatial_rank = 0;     // kConv and fused nodes
  Variable weight;          // kConv and fused nodes
  Variable bias;            // kBias and fused nodes
  Activation act = Activation::kLinear;  // kAct and fused nodes
  int tile_axis = 0;                     // kTile
  int64_t tile_count = 0;                // kTile
  int64_t channels = 0;                  // kInput: declared channel count
  /// Hook observation point reporting this node's value (and, in
  /// Backward, its gradient); empty for none. A labeled node is never
  /// fused away — the fuser only rewrites it in place as a chain's
  /// terminal, so the label survives fusion.
  std::string observe;
};

/// What the fuser did to a sealed graph.
struct FusionStats {
  int conv_bias_act = 0;  // conv→bias(→act) chains collapsed
  int concat_folds = 0;   // concats folded into a fused conv's gather
  int nodes_before = 0;
  int nodes_after = 0;  // live nodes in the final schedule
};

class GraphIr {
 public:
  /// Builders append nodes in construction order (which is already
  /// topological — an input id must exist before it is referenced) and
  /// return the new node's id.
  int AddInput(int64_t channels);
  int AddConv(int input, int spatial_rank, Variable weight);
  int AddBias(int input, Variable bias);
  int AddAct(int input, Activation act);
  int AddTile(int input, int axis, int64_t repeat);
  int AddConcat(std::vector<int> inputs);
  void MarkOutput(int id);
  /// Labels node `id` as the hook observation point `point`.
  void SetObserve(int id, std::string point);

  /// Runs the fuser, drops dead nodes, and freezes the schedule. Must
  /// be called exactly once, after which the graph is immutable.
  void Seal();
  bool sealed() const { return sealed_; }

  const FusionStats& fusion_stats() const { return stats_; }
  const std::vector<IrNode>& nodes() const { return nodes_; }
  /// Live non-input node ids in execution order.
  const std::vector<int>& schedule() const { return schedule_; }
  const std::vector<int>& outputs() const { return outputs_; }
  /// Scheduled nodes minus outputs: tensors the schedule still
  /// materializes between ops (what fusion exists to minimize).
  int materialized_intermediates() const;

  /// Executes the sealed schedule. `inputs` bind to the kInput nodes in
  /// id order and must match their declared channel counts.
  std::vector<Variable> Run(const std::vector<Variable>& inputs) const;
  /// Single-input single-output convenience.
  Variable Run1(const Variable& input) const;

 private:
  std::vector<IrNode> nodes_;
  std::vector<int> input_ids_;
  std::vector<int> outputs_;
  std::vector<int> schedule_;
  FusionStats stats_;
  bool sealed_ = false;
};

}  // namespace nn
}  // namespace equitensor

#endif  // EQUITENSOR_NN_GRAPH_IR_H_
