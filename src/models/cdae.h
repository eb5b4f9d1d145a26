#ifndef EQUITENSOR_MODELS_CDAE_H_
#define EQUITENSOR_MODELS_CDAE_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/layers.h"

namespace equitensor {
namespace models {

/// Shape/architecture description of one input dataset as seen by the
/// CDAE (kind + channel count; the tensors come from WindowSampler).
struct DatasetSpec {
  std::string name;
  data::DatasetKind kind = data::DatasetKind::kTemporal;
  int64_t channels = 1;
};

/// Hyper-parameters of the core integrative model (§3.2). Defaults
/// follow the paper: 3-layer per-dataset encoders (16/32/1 filters),
/// 3 shared encoding layers, 3-layer decoders, kernel 3, stride 1,
/// latent K = 5 channels, 24-hour windows, 15 % corruption.
struct CdaeConfig {
  int64_t grid_w = 12;
  int64_t grid_h = 10;
  int64_t window = 24;
  int64_t latent_channels = 5;
  std::vector<int64_t> encoder_filters = {16, 32, 1};
  std::vector<int64_t> shared_filters = {16, 32};  // latent K appended
  std::vector<int64_t> decoder_filters = {16, 32};  // C_i appended
  int64_t kernel = 3;
  double corruption = 0.15;
  /// When true the decoder receives the sensitive map S as an extra
  /// channel (the disentangling module, §3.4).
  bool disentangle = false;
};

/// The core integrative model: per-dataset encoders -> expand to the
/// common [W, H, window] shape -> concat -> shared 3D-conv encoder ->
/// latent Z [N, K, W, H, window]; per-dataset decoders reconstruct
/// every input from Z (Figure 2). With config.disentangle, Decode()
/// additionally consumes the tiled sensitive attribute (Figure 3).
class CoreCdae : public nn::Module {
 public:
  CoreCdae(CdaeConfig config, std::vector<DatasetSpec> specs, Rng& rng);
  ~CoreCdae();  // out of line: nn::GraphIr is incomplete here

  const CdaeConfig& config() const { return config_; }
  const std::vector<DatasetSpec>& specs() const { return specs_; }
  int64_t dataset_count() const {
    return static_cast<int64_t>(specs_.size());
  }

  /// Encodes one batch. `inputs[i]` must hold dataset i in NN layout
  /// ([N,C,window] / [N,C,W,H] / [N,C,W,H,window]). Returns Z.
  ///
  /// Runs the model's sealed static schedule (nn/graph_ir.h): every
  /// conv+bias+activation is one fused dispatch and the encoder concat
  /// is folded into the shared encoder's first conv, so on `fast` the
  /// [N, D, W, H, T] merged tensor never exists. Hooks observe the
  /// schedule's labeled layer outputs ("cdae.enc<i>.conv<j>", ...).
  Variable Encode(const std::vector<Variable>& inputs) const;

  /// The sealed whole-encoder graph (for tests and diagnostics).
  const nn::GraphIr& encode_ir() const { return *encode_ir_; }

  /// Gradient-free convenience over Encode for audit/serving paths
  /// (the trainer's live fairness audit, DESIGN.md §12): wraps clean
  /// tensors in non-grad Variables and returns the latent value
  /// [N, K, W, H, window] without growing an autograd graph rooted in
  /// the parameters' gradient state.
  Tensor EncodeValue(const std::vector<Tensor>& inputs) const;

  /// Decodes every dataset from Z. `s_tiled` ([N,1,W,H,window]) is
  /// required iff config.disentangle; pass an undefined Variable
  /// otherwise.
  std::vector<Variable> Decode(const Variable& z,
                               const Variable& s_tiled) const;

  /// Per-dataset MAE between reconstructions and clean targets.
  std::vector<Variable> ReconstructionLosses(
      const std::vector<Variable>& recons,
      const std::vector<Tensor>& clean_targets) const;

  std::vector<Variable> Parameters() const override;
  /// Names follow the architecture: "enc<i>.conv<j>.weight",
  /// "shared.conv<j>.bias", "dec<i>.conv<j>.weight", ...
  std::vector<nn::NamedParameter> NamedParameters() const override;

 private:
  CdaeConfig config_;
  std::vector<DatasetSpec> specs_;
  std::vector<std::unique_ptr<nn::ConvStack>> encoders_;
  std::unique_ptr<nn::ConvStack> shared_encoder_;
  std::vector<std::unique_ptr<nn::ConvStack>> decoders_;
  /// Whole-encoder static graph: dataset inputs -> per-dataset
  /// encoders -> tiles -> concat -> shared encoder, fused.
  std::unique_ptr<nn::GraphIr> encode_ir_;
};

/// Tiles a [W, H] sensitive map into the decoder/adversary target
/// layout [N, 1, W, H, window] (the paper duplicates S along time).
Tensor TileSensitiveMap(const Tensor& s_map, int64_t batch, int64_t window);

}  // namespace models
}  // namespace equitensor

#endif  // EQUITENSOR_MODELS_CDAE_H_
