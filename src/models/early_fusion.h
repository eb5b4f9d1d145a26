#ifndef EQUITENSOR_MODELS_EARLY_FUSION_H_
#define EQUITENSOR_MODELS_EARLY_FUSION_H_

#include <memory>
#include <vector>

#include "models/cdae.h"

namespace equitensor {
namespace models {

/// The early-fusion CDAE baseline (§4.2): instead of encoding each
/// dataset separately, all datasets are tiled to the common 3D shape
/// and concatenated *at the input*; a single 3D-conv encoder maps the
/// stack to Z and a single decoder reconstructs the whole stack.
class EarlyFusionCdae : public nn::Module {
 public:
  EarlyFusionCdae(CdaeConfig config, std::vector<DatasetSpec> specs, Rng& rng);
  ~EarlyFusionCdae();  // out of line: nn::GraphIr is incomplete here

  int64_t total_channels() const { return total_channels_; }
  const CdaeConfig& config() const { return config_; }

  /// Tiles + concatenates per-dataset batches into [N, ΣC, W, H, T].
  /// Stays eager on purpose: the training loop needs the fused stack
  /// as a materialized reconstruction target.
  Variable FuseInputs(const std::vector<Variable>& inputs) const;

  /// [N, ΣC, W, H, T] -> Z [N, K, W, H, T].
  Variable Encode(const Variable& fused) const;

  /// Encode straight from per-dataset batches: runs the sealed
  /// tiles→concat→encoder schedule, where the input concat folds into
  /// the encoder's first conv. Bitwise equal to
  /// Encode(FuseInputs(inputs)).
  Variable EncodeParts(const std::vector<Variable>& inputs) const;

  /// The sealed parts→Z graph (for tests and diagnostics).
  const nn::GraphIr& parts_ir() const { return *parts_ir_; }

  /// Z -> reconstruction of the fused stack.
  Variable Decode(const Variable& z) const;

  std::vector<Variable> Parameters() const override;

 private:
  CdaeConfig config_;
  std::vector<DatasetSpec> specs_;
  int64_t total_channels_ = 0;
  std::unique_ptr<nn::ConvStack> encoder_;
  std::unique_ptr<nn::ConvStack> decoder_;
  /// Static graph: dataset inputs -> tiles -> concat -> encoder.
  std::unique_ptr<nn::GraphIr> parts_ir_;
};

}  // namespace models
}  // namespace equitensor

#endif  // EQUITENSOR_MODELS_EARLY_FUSION_H_
