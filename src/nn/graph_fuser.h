#ifndef EQUITENSOR_NN_GRAPH_FUSER_H_
#define EQUITENSOR_NN_GRAPH_FUSER_H_

#include <vector>

#include "nn/graph_ir.h"

namespace equitensor {
namespace nn {

/// Pattern-matching fuser over the static IR (DESIGN.md §15). Rewrites
/// `nodes` in place; orphaned producers become unreachable and are
/// dropped by GraphIr::Seal's liveness pass. Two rules, applied in
/// order:
///
///  1. conv → bias (→ act) chains where every interior edge is
///     single-use and no interior node is an output or carries an
///     observation label collapse into one kFusedConvBiasAct (act =
///     kLinear for a bias-terminated chain). The terminal node is
///     rewritten in place, keeping its label.
///  2. a kConcat whose only consumer is a rank-3 kFusedConvBiasAct (and
///     which is neither an output nor labeled) folds into
///     kFusedConcatConvBiasAct: the fused node adopts the concat's
///     inputs and the concatenated tensor is never built — the kernel
///     gathers channels from the parts directly.
///
/// Returns counts of what was rewritten (nodes_after is filled in by
/// Seal once liveness is known).
FusionStats FuseGraph(std::vector<IrNode>* nodes,
                      const std::vector<int>& outputs);

}  // namespace nn
}  // namespace equitensor

#endif  // EQUITENSOR_NN_GRAPH_FUSER_H_
