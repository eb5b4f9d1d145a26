#include "models/cdae.h"

#include "autograd/ops.h"
#include "nn/graph_ir.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"

namespace equitensor {
namespace models {
namespace {

int SpatialRank(data::DatasetKind kind) {
  switch (kind) {
    case data::DatasetKind::kTemporal:
      return 1;
    case data::DatasetKind::kSpatial:
      return 2;
    case data::DatasetKind::kSpatioTemporal:
      return 3;
  }
  return 0;
}

}  // namespace

CoreCdae::CoreCdae(CdaeConfig config, std::vector<DatasetSpec> specs, Rng& rng)
    : config_(std::move(config)), specs_(std::move(specs)) {
  ET_CHECK(!specs_.empty());
  ET_CHECK(!config_.encoder_filters.empty());
  ET_CHECK_EQ(config_.encoder_filters.back(), 1)
      << "per-dataset encoders must collapse to one feature (§3.2)";

  // Per-dataset encoder stacks (conv dimensionality matches the data).
  // Observation names mirror the NamedParameters tree so a sentinel
  // trip at "cdae.enc0.conv1" points at the "enc0.conv1.*" parameters.
  for (size_t i = 0; i < specs_.size(); ++i) {
    const DatasetSpec& spec = specs_[i];
    encoders_.push_back(std::make_unique<nn::ConvStack>(
        SpatialRank(spec.kind), spec.channels, config_.encoder_filters,
        config_.kernel, rng, nn::Activation::kRelu));
    encoders_.back()->SetObserveName("cdae.enc" + std::to_string(i));
  }

  // Shared 3D encoder producing Z with K channels.
  std::vector<int64_t> shared = config_.shared_filters;
  shared.push_back(config_.latent_channels);
  shared_encoder_ = std::make_unique<nn::ConvStack>(
      3, dataset_count(), shared, config_.kernel, rng,
      nn::Activation::kLinear);
  shared_encoder_->SetObserveName("cdae.shared");

  // Per-dataset decoder stacks from Z (+S when disentangling).
  const int64_t decoder_in =
      config_.latent_channels + (config_.disentangle ? 1 : 0);
  for (size_t i = 0; i < specs_.size(); ++i) {
    const DatasetSpec& spec = specs_[i];
    std::vector<int64_t> filters = config_.decoder_filters;
    filters.push_back(spec.channels);
    decoders_.push_back(std::make_unique<nn::ConvStack>(
        SpatialRank(spec.kind), decoder_in, filters, config_.kernel, rng,
        nn::Activation::kLinear));
    decoders_.back()->SetObserveName("cdae.dec" + std::to_string(i));
  }

  // Whole-encoder static graph (DESIGN.md §15), built once over the
  // construction-time shapes. Sealing fuses every conv→bias→act chain
  // and folds the dataset concat into the shared encoder's first conv.
  encode_ir_ = std::make_unique<nn::GraphIr>();
  std::vector<int> expanded_ids;
  expanded_ids.reserve(specs_.size());
  for (size_t i = 0; i < specs_.size(); ++i) {
    int id = encode_ir_->AddInput(specs_[i].channels);
    id = encoders_[i]->AppendToIr(encode_ir_.get(), id);
    // Expand to [N, 1, W, H, T]: temporal [N, 1, T] tiles over W then
    // H, spatial [N, 1, W, H] over T.
    switch (specs_[i].kind) {
      case data::DatasetKind::kTemporal:
        id = encode_ir_->AddTile(id, 2, config_.grid_w);
        id = encode_ir_->AddTile(id, 3, config_.grid_h);
        break;
      case data::DatasetKind::kSpatial:
        id = encode_ir_->AddTile(id, 4, config_.window);
        break;
      case data::DatasetKind::kSpatioTemporal:
        break;
    }
    expanded_ids.push_back(id);
  }
  const int merged = encode_ir_->AddConcat(std::move(expanded_ids));
  encode_ir_->MarkOutput(shared_encoder_->AppendToIr(encode_ir_.get(), merged));
  encode_ir_->Seal();
}

CoreCdae::~CoreCdae() = default;

Variable CoreCdae::Encode(const std::vector<Variable>& inputs) const {
  ET_CHECK_EQ(static_cast<int64_t>(inputs.size()), dataset_count());
  return encode_ir_->Run(inputs)[0];
}

Tensor CoreCdae::EncodeValue(const std::vector<Tensor>& inputs) const {
  std::vector<Variable> vars;
  vars.reserve(inputs.size());
  for (const Tensor& tensor : inputs) {
    vars.emplace_back(tensor, /*requires_grad=*/false);
  }
  return Encode(vars).value();
}

std::vector<Variable> CoreCdae::Decode(const Variable& z,
                                       const Variable& s_tiled) const {
  Variable decoder_input = z;
  if (config_.disentangle) {
    ET_CHECK(s_tiled.defined())
        << "disentangling decoder requires the sensitive attribute";
    decoder_input = ag::Concat({z, s_tiled}, /*axis=*/1);
  } else {
    ET_CHECK(!s_tiled.defined())
        << "sensitive attribute passed to a non-disentangling decoder";
  }

  std::vector<Variable> recons;
  recons.reserve(decoders_.size());
  for (size_t i = 0; i < decoders_.size(); ++i) {
    switch (specs_[i].kind) {
      case data::DatasetKind::kTemporal: {
        // Average-pool space (§3.2), then 1D deconvolution stack.
        Variable pooled = ag::MeanAxis(ag::MeanAxis(decoder_input, 2), 2);
        recons.push_back(decoders_[i]->Forward(pooled));
        break;
      }
      case data::DatasetKind::kSpatial: {
        // Average-pool time, then 2D stack.
        Variable pooled = ag::MeanAxis(decoder_input, 4);
        recons.push_back(decoders_[i]->Forward(pooled));
        break;
      }
      case data::DatasetKind::kSpatioTemporal: {
        recons.push_back(decoders_[i]->Forward(decoder_input));
        break;
      }
    }
  }
  return recons;
}

std::vector<Variable> CoreCdae::ReconstructionLosses(
    const std::vector<Variable>& recons,
    const std::vector<Tensor>& clean_targets) const {
  ET_CHECK_EQ(recons.size(), clean_targets.size());
  std::vector<Variable> losses;
  losses.reserve(recons.size());
  for (size_t i = 0; i < recons.size(); ++i) {
    losses.push_back(ag::MaeAgainst(recons[i], clean_targets[i]));
  }
  return losses;
}

std::vector<Variable> CoreCdae::Parameters() const {
  std::vector<Variable> params;
  for (const auto& enc : encoders_) {
    for (const Variable& p : enc->Parameters()) params.push_back(p);
  }
  for (const Variable& p : shared_encoder_->Parameters()) params.push_back(p);
  for (const auto& dec : decoders_) {
    for (const Variable& p : dec->Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<nn::NamedParameter> CoreCdae::NamedParameters() const {
  // Same order as Parameters() so optimizer slot indices line up.
  std::vector<nn::NamedParameter> named;
  for (size_t i = 0; i < encoders_.size(); ++i) {
    nn::AppendNamedParameters("enc" + std::to_string(i) + ".", *encoders_[i],
                              &named);
  }
  nn::AppendNamedParameters("shared.", *shared_encoder_, &named);
  for (size_t i = 0; i < decoders_.size(); ++i) {
    nn::AppendNamedParameters("dec" + std::to_string(i) + ".", *decoders_[i],
                              &named);
  }
  return named;
}

Tensor TileSensitiveMap(const Tensor& s_map, int64_t batch, int64_t window) {
  ET_CHECK_EQ(s_map.rank(), 2);
  // [W, H] -> [W, H, window] -> [1, W, H, window] -> [N, 1, W, H, window].
  Tensor tiled = TileTrailing(s_map, window);
  tiled = tiled.Reshape({1, s_map.dim(0), s_map.dim(1), window});
  return TileAt(tiled, 0, batch);
}

}  // namespace models
}  // namespace equitensor
