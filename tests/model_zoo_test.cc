// Tests for models/: every architecture builds, forwards with the right
// shapes, backprops, clones faithfully, can be trained a little, and is
// re-evaluated exactly by nn/incremental_forward.
#include <gtest/gtest.h>

#include <cstring>

#include "models/model_zoo.h"
#include "nn/incremental_forward.h"
#include "nn/loss.h"
#include "nn/training.h"
#include "quant/quantized_model.h"
#include "tensor/kernels.h"

namespace qcore {
namespace {

struct ModelCase {
  std::string name;
  bool time_series;
};

class ModelZooTest : public ::testing::TestWithParam<ModelCase> {};

Tensor InputFor(const ModelCase& c, Rng* rng, int n = 4) {
  if (c.time_series) return Tensor::Randn({n, 5, 32}, rng);
  return Tensor::Randn({n, 3, 16, 16}, rng);
}

std::unique_ptr<Sequential> Build(const ModelCase& c, Rng* rng) {
  if (c.time_series) return MakeTimeSeriesModel(c.name, 5, 7, rng);
  return MakeImageModel(c.name, 3, 16, 16, 7, rng);
}

TEST_P(ModelZooTest, ForwardShape) {
  Rng rng(1);
  auto model = Build(GetParam(), &rng);
  Tensor y = model->Forward(InputFor(GetParam(), &rng), false);
  EXPECT_EQ(y.ndim(), 2);
  EXPECT_EQ(y.dim(0), 4);
  EXPECT_EQ(y.dim(1), 7);
}

TEST_P(ModelZooTest, BackwardRunsAndProducesGradients) {
  Rng rng(2);
  auto model = Build(GetParam(), &rng);
  Tensor x = InputFor(GetParam(), &rng);
  SoftmaxCrossEntropy ce;
  Tensor logits = model->Forward(x, true);
  ce.Forward(logits, {0, 1, 2, 3});
  model->Backward(ce.Backward());
  double grad_norm = 0.0;
  for (Parameter* p : model->Params()) {
    for (int64_t i = 0; i < p->grad.size(); ++i) {
      grad_norm += static_cast<double>(p->grad[i]) * p->grad[i];
    }
  }
  EXPECT_GT(grad_norm, 0.0);
}

TEST_P(ModelZooTest, HasReasonableParameterCount) {
  Rng rng(3);
  auto model = Build(GetParam(), &rng);
  const int64_t params = CountParams(model.get());
  EXPECT_GT(params, 300);
  EXPECT_LT(params, 60000);  // CPU-trainable by design
}

TEST_P(ModelZooTest, CloneReproducesOutputs) {
  Rng rng(4);
  auto model = Build(GetParam(), &rng);
  Tensor x = InputFor(GetParam(), &rng);
  (void)model->Forward(x, true);  // move BN stats if any
  auto copy = model->Clone();
  Tensor y1 = model->Forward(x, false);
  Tensor y2 = copy->Forward(x, false);
  for (int64_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

// IncrementalForward against the full eval forward, bit for bit, through
// random bit-flip trials on the 4-bit model: each trial changes a few codes
// of one tensor and is then kept or undone at random; an undo marks the
// tensor dirty again, as Alg. 3 does. Trial 0 changes the last tensor (the
// Dense head), trial 1 the first; after an undo the next trial takes a
// different tensor.
TEST_P(ModelZooTest, IncrementalForwardMatchesFullForward) {
  Rng rng(6);
  auto model = Build(GetParam(), &rng);
  const Tensor x = InputFor(GetParam(), &rng, /*n=*/64);
  (void)model->Forward(x, true);  // move BN running stats off their init
  QuantizedModel qm(*model, 4);
  const int num_tensors = qm.num_quantized();
  ASSERT_GE(num_tensors, 2);
  std::vector<Layer*> owners;
  for (int t = 0; t < num_tensors; ++t) {
    owners.push_back(qm.quantized(t).owner);
  }
  IncrementalForward walker(qm.model(), x, owners);
  auto expect_full_forward = [&](const std::string& what) {
    const Tensor& got = walker.Evaluate();
    const Tensor want = qm.model()->Forward(x, /*training=*/false);
    ASSERT_TRUE(got.SameShape(want)) << what;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          sizeof(float) * static_cast<size_t>(want.size())),
              0)
        << what;
  };
  expect_full_forward("first evaluation");

  int previous = -1;
  bool undone = false;
  int switched_after_undo = 0;
  for (int trial = 0; trial < 60; ++trial) {
    int t = rng.NextInt(0, num_tensors - 1);
    if (trial == 0) t = num_tensors - 1;
    if (trial == 1) t = 0;
    if (trial > 1 && undone) {
      t = (previous + rng.NextInt(1, num_tensors - 1)) % num_tensors;
    }
    if (undone && t != previous) ++switched_after_undo;
    QuantizedModel::QuantizedTensor& qt = qm.quantized(t);
    const std::vector<int32_t> saved = qt.codes;
    for (int k = 0; k < 4; ++k) {
      const int e = rng.NextInt(0, static_cast<int>(qt.codes.size()) - 1);
      qm.ApplyCodeDelta(t, e, rng.NextBool(0.5) ? 3 : -3);
    }
    walker.MarkDirty(qt.owner);
    if (trial == 0) {
      // A change to the Dense head reruns the head alone: one GEMM. The
      // comparison below then reads the remembered logits.
      const kernels::GemmDispatchCounters before =
          kernels::ThreadGemmDispatchCounters();
      (void)walker.Evaluate();
      const kernels::GemmDispatchCounters after =
          kernels::ThreadGemmDispatchCounters();
      EXPECT_EQ((after.wide + after.narrow) - (before.wide + before.narrow),
                1u);
    }
    expect_full_forward("trial " + std::to_string(trial) + " on tensor " +
                        std::to_string(t));
    undone = rng.NextBool(0.5);
    if (undone) {
      qt.codes = saved;
      qm.SyncParamFromCodes(t);
      walker.MarkDirty(qt.owner);
    }
    previous = t;
  }
  EXPECT_GT(switched_after_undo, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Models, ModelZooTest,
    ::testing::Values(ModelCase{"InceptionTime", true},
                      ModelCase{"OmniScaleCNN", true},
                      ModelCase{"ResNet18", false},
                      ModelCase{"VGG16", false}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      std::string name = info.param.name;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

TEST(ModelZooTest2, TimeSeriesModelsLearnEasyProblem) {
  Rng rng(5);
  // Class 0: low values; class 1: high values — trivially separable.
  const int n = 60;
  Tensor x({n, 2, 16});
  std::vector<int> y(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int cls = i % 2;
    for (int64_t e = 0; e < 2 * 16; ++e) {
      x[i * 32 + e] = static_cast<float>(
          rng.NextGaussian(cls ? 1.5 : -1.5, 0.4));
    }
    y[static_cast<size_t>(i)] = cls;
  }
  for (const char* name : {"InceptionTime", "OmniScaleCNN"}) {
    auto model = MakeTimeSeriesModel(name, 2, 2, &rng);
    TrainOptions topt;
    topt.epochs = 10;
    topt.batch_size = 16;
    topt.sgd.lr = 0.02f;
    TrainClassifier(model.get(), x, y, topt, &rng);
    EXPECT_GT(EvaluateAccuracy(model.get(), x, y), 0.9f) << name;
  }
}

}  // namespace
}  // namespace qcore
