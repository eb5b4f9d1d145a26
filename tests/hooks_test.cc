// Autograd observation hooks (DESIGN.md §11): named points must report
// forward activations and backward gradients to registered hooks, stay
// inert (same Variable, no graph node) when nothing is registered, and
// surface the layer names the models thread through them.
#include "autograd/hooks.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "models/cdae.h"
#include "nn/backend_registry.h"
#include "nn/layers.h"
#include "util/rng.h"
#include "util/trace.h"

namespace equitensor {
namespace ag {
namespace {

struct Event {
  std::string point;
  HookPhase phase;
  std::vector<float> values;
};

std::vector<float> ToVector(const Tensor& tensor) {
  return std::vector<float>(tensor.data(), tensor.data() + tensor.size());
}

TEST(HooksTest, InactiveObservePassesThroughUntouched) {
  ASSERT_FALSE(HooksActive());
  Variable x(Tensor::FromData({2}, {1.0f, 2.0f}), /*requires_grad=*/true);
  Variable y = Observe("unwatched", x);
  // Same underlying node: no graph op was inserted.
  EXPECT_EQ(y.value().data(), x.value().data());
}

TEST(HooksTest, ForwardAndBackwardEventsReachHook) {
  std::vector<Event> events;
  ScopedHook hook([&](const HookContext& ctx) {
    events.push_back({ctx.point, ctx.phase, ToVector(ctx.tensor)});
  });
  ASSERT_TRUE(HooksActive());

  Variable x(Tensor::FromData({2}, {1.0f, -3.0f}), /*requires_grad=*/true);
  Variable y = Observe("probe", x);
  Variable loss = SumAll(MulScalar(y, 2.0f));
  Backward(loss);

  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].point, "probe");
  EXPECT_EQ(events[0].phase, HookPhase::kForward);
  EXPECT_EQ(events[0].values, (std::vector<float>{1.0f, -3.0f}));
  EXPECT_EQ(events[1].point, "probe");
  EXPECT_EQ(events[1].phase, HookPhase::kBackward);
  EXPECT_EQ(events[1].values, (std::vector<float>{2.0f, 2.0f}));

  // The observation is an identity: gradients flow to x unchanged.
  ASSERT_TRUE(x.grad_ready());
  EXPECT_FLOAT_EQ(x.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(x.grad()[1], 2.0f);
}

TEST(HooksTest, ConstantInputFiresForwardOnly) {
  std::vector<Event> events;
  ScopedHook hook([&](const HookContext& ctx) {
    events.push_back({ctx.point, ctx.phase, ToVector(ctx.tensor)});
  });
  Variable x(Tensor::FromData({1}, {5.0f}), /*requires_grad=*/false);
  Variable y = Observe("constant", x);
  EXPECT_EQ(y.value().data(), x.value().data());
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, HookPhase::kForward);
}

TEST(HooksTest, ScopedHookUnregistersOnDestruction) {
  {
    ScopedHook hook([](const HookContext&) {});
    EXPECT_TRUE(HooksActive());
  }
  EXPECT_FALSE(HooksActive());
}

TEST(HooksTest, RemoveByIdDeactivatesThatHookOnly) {
  int first_calls = 0;
  int second_calls = 0;
  HookRegistry& registry = HookRegistry::Global();
  const int first = registry.Add([&](const HookContext&) { ++first_calls; });
  const int second = registry.Add([&](const HookContext&) { ++second_calls; });

  Variable x(Tensor::FromData({1}, {1.0f}), /*requires_grad=*/false);
  Observe("p", x);
  EXPECT_EQ(first_calls, 1);
  EXPECT_EQ(second_calls, 1);

  registry.Remove(first);
  Observe("p", x);
  EXPECT_EQ(first_calls, 1);
  EXPECT_EQ(second_calls, 2);
  registry.Remove(second);
  EXPECT_FALSE(HooksActive());
}

TEST(HooksTest, ConvStackReportsPerLayerPoints) {
  Rng rng(11);
  nn::ConvStack stack(/*spatial_rank=*/3, /*in_channels=*/1, {2, 3},
                      /*kernel=*/3, rng);
  stack.SetObserveName("m");

  std::vector<std::string> forward_points;
  ScopedHook hook([&](const HookContext& ctx) {
    if (ctx.phase == HookPhase::kForward) forward_points.push_back(ctx.point);
  });

  Variable x(Tensor({1, 1, 4, 4, 6}), /*requires_grad=*/false);
  stack.Forward(x);
  ASSERT_EQ(forward_points.size(), 2u);
  EXPECT_EQ(forward_points[0], "m.conv0");
  EXPECT_EQ(forward_points[1], "m.conv1");
}

TEST(HooksTest, UnnamedModulesStaySilent) {
  Rng rng(11);
  nn::ConvStack stack(/*spatial_rank=*/3, /*in_channels=*/1, {2},
                      /*kernel=*/3, rng);

  int calls = 0;
  ScopedHook hook([&](const HookContext&) { ++calls; });
  Variable x(Tensor({1, 1, 4, 4, 6}), /*requires_grad=*/false);
  stack.Forward(x);
  EXPECT_EQ(calls, 0);
}

// Observation on the shipped schedule: with a hook registered on the
// fast backend a CoreCdae still runs its sealed fused graph (the
// concat-folded kernel records its spans), and every conv layer of
// every stack reports forward and backward under its architectural
// name, in the order the layers run.
TEST(HooksTest, CdaeFusedScheduleReportsEveryLayerPoint) {
  const backend::Backend previous = backend::CurrentBackend();
  backend::SetBackend(backend::Backend::kFast);
  models::CdaeConfig config;
  config.grid_w = 4;
  config.grid_h = 3;
  config.window = 6;
  config.latent_channels = 2;
  config.encoder_filters = {4, 1};
  config.shared_filters = {4};
  config.decoder_filters = {4};
  const std::vector<models::DatasetSpec> specs = {
      {"weather", data::DatasetKind::kTemporal, 1},
      {"streets", data::DatasetKind::kSpatial, 1},
      {"events", data::DatasetKind::kSpatioTemporal, 2}};
  Rng rng(21);
  models::CoreCdae model(config, specs, rng);
  const std::vector<Variable> inputs = {
      Variable(Tensor::RandomUniform({2, 1, 6}, rng), false),
      Variable(Tensor::RandomUniform({2, 1, 4, 3}, rng), false),
      Variable(Tensor::RandomUniform({2, 2, 4, 3, 6}, rng), false)};

  std::vector<std::string> points;
  ScopedHook hook([&](const HookContext& ctx) {
    points.push_back(std::string(HookPhaseName(ctx.phase)) + " " + ctx.point);
  });
  ResetTraceStatsForTesting();
  SetTracingEnabled(true);
  const std::vector<Variable> recons =
      model.Decode(model.Encode(inputs), Variable());
  Variable total = SumAll(recons[0]);
  for (size_t i = 1; i < recons.size(); ++i) {
    total = Add(total, SumAll(recons[i]));
  }
  Backward(total);
  SetTracingEnabled(false);
  const std::vector<TraceStats> stats = CollectTraceStats();
  ResetTraceStatsForTesting();
  backend::SetBackend(previous);

  // The names mirror NamedParameters (sentinel trips point at them);
  // backward reports in exact reverse of forward.
  const std::vector<std::string> expected = {
      "forward cdae.enc0.conv0",    "forward cdae.enc0.conv1",
      "forward cdae.enc1.conv0",    "forward cdae.enc1.conv1",
      "forward cdae.enc2.conv0",    "forward cdae.enc2.conv1",
      "forward cdae.shared.conv0",  "forward cdae.shared.conv1",
      "forward cdae.dec0.conv0",    "forward cdae.dec0.conv1",
      "forward cdae.dec1.conv0",    "forward cdae.dec1.conv1",
      "forward cdae.dec2.conv0",    "forward cdae.dec2.conv1",
      "backward cdae.dec2.conv1",   "backward cdae.dec2.conv0",
      "backward cdae.dec1.conv1",   "backward cdae.dec1.conv0",
      "backward cdae.dec0.conv1",   "backward cdae.dec0.conv0",
      "backward cdae.shared.conv1", "backward cdae.shared.conv0",
      "backward cdae.enc2.conv1",   "backward cdae.enc2.conv0",
      "backward cdae.enc1.conv1",   "backward cdae.enc1.conv0",
      "backward cdae.enc0.conv1",   "backward cdae.enc0.conv0"};
  EXPECT_EQ(points, expected);

  if (TraceCompiledIn()) {
    for (const char* span : {"concat_conv_bias_act.fwd.fast",
                             "concat_conv_bias_act.bwd.fast"}) {
      uint64_t count = 0;
      for (const TraceStats& s : stats) {
        if (s.name == span) count = s.count;
      }
      EXPECT_EQ(count, 1u) << span;
    }
  }
}

}  // namespace
}  // namespace ag
}  // namespace equitensor
