#include "models/early_fusion.h"

#include "autograd/ops.h"
#include "nn/graph_ir.h"
#include "util/check.h"

namespace equitensor {
namespace models {

EarlyFusionCdae::EarlyFusionCdae(CdaeConfig config,
                                 std::vector<DatasetSpec> specs, Rng& rng)
    : config_(std::move(config)), specs_(std::move(specs)) {
  ET_CHECK(!specs_.empty());
  for (const DatasetSpec& spec : specs_) total_channels_ += spec.channels;

  std::vector<int64_t> enc = config_.shared_filters;
  enc.push_back(config_.latent_channels);
  encoder_ = std::make_unique<nn::ConvStack>(3, total_channels_, std::move(enc),
                                             config_.kernel, rng,
                                             nn::Activation::kLinear);
  std::vector<int64_t> dec = config_.decoder_filters;
  dec.push_back(total_channels_);
  decoder_ = std::make_unique<nn::ConvStack>(3, config_.latent_channels,
                                             std::move(dec), config_.kernel,
                                             rng, nn::Activation::kLinear);

  // Static parts→Z graph: the input concat folds into the encoder's
  // first conv (DESIGN.md §15).
  parts_ir_ = std::make_unique<nn::GraphIr>();
  std::vector<int> expanded_ids;
  expanded_ids.reserve(specs_.size());
  for (const DatasetSpec& spec : specs_) {
    int id = parts_ir_->AddInput(spec.channels);
    switch (spec.kind) {
      case data::DatasetKind::kTemporal:
        id = parts_ir_->AddTile(id, 2, config_.grid_w);
        id = parts_ir_->AddTile(id, 3, config_.grid_h);
        break;
      case data::DatasetKind::kSpatial:
        id = parts_ir_->AddTile(id, 4, config_.window);
        break;
      case data::DatasetKind::kSpatioTemporal:
        break;
    }
    expanded_ids.push_back(id);
  }
  const int merged = parts_ir_->AddConcat(std::move(expanded_ids));
  parts_ir_->MarkOutput(encoder_->AppendToIr(parts_ir_.get(), merged));
  parts_ir_->Seal();
}

EarlyFusionCdae::~EarlyFusionCdae() = default;

Variable EarlyFusionCdae::FuseInputs(const std::vector<Variable>& inputs) const {
  ET_CHECK_EQ(inputs.size(), specs_.size());
  std::vector<Variable> expanded;
  expanded.reserve(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    switch (specs_[i].kind) {
      case data::DatasetKind::kTemporal:
        expanded.push_back(ag::TileAt(
            ag::TileAt(inputs[i], 2, config_.grid_w), 3, config_.grid_h));
        break;
      case data::DatasetKind::kSpatial:
        expanded.push_back(ag::TileAt(inputs[i], 4, config_.window));
        break;
      case data::DatasetKind::kSpatioTemporal:
        expanded.push_back(inputs[i]);
        break;
    }
  }
  return ag::Concat(expanded, /*axis=*/1);
}

Variable EarlyFusionCdae::Encode(const Variable& fused) const {
  ET_CHECK_EQ(fused.value().dim(1), total_channels_);
  return encoder_->Forward(fused);
}

Variable EarlyFusionCdae::EncodeParts(
    const std::vector<Variable>& inputs) const {
  ET_CHECK_EQ(inputs.size(), specs_.size());
  return parts_ir_->Run(inputs)[0];
}

Variable EarlyFusionCdae::Decode(const Variable& z) const {
  return decoder_->Forward(z);
}

std::vector<Variable> EarlyFusionCdae::Parameters() const {
  return nn::JoinParameters({encoder_.get(), decoder_.get()});
}

}  // namespace models
}  // namespace equitensor
