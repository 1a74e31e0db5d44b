// Numerical gradient checks for every layer's Backward implementation.
// Loss is L(x) = <Forward(x), W> for a fixed random W, so dL/dOutput = W;
// analytic input/parameter gradients are compared against central finite
// differences.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/batchnorm.h"
#include "nn/composite.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "tensor/tensor_ops.h"

namespace qcore {
namespace {

constexpr float kEps = 1e-2f;
constexpr float kTol = 2e-2f;  // relative-ish tolerance for float math

double LayerLoss(Layer* layer, const Tensor& x, const Tensor& w_out) {
  Tensor y = layer->Forward(x, /*training=*/true);
  return Dot(y, w_out);
}

// Checks dL/dx and dL/dparam against finite differences for the given layer
// and input.
void CheckGradients(Layer* layer, const Tensor& x, Rng* rng) {
  Tensor y = layer->Forward(x, /*training=*/true);
  Tensor w_out = Tensor::Randn(y.shape(), rng);
  layer->ZeroGrad();
  // Analytic pass.
  (void)layer->Forward(x, /*training=*/true);
  Tensor grad_in = layer->Backward(w_out);

  // Input gradient.
  Tensor xp = x;
  for (int64_t i = 0; i < x.size(); i += std::max<int64_t>(1, x.size() / 17)) {
    const float orig = xp[i];
    xp[i] = orig + kEps;
    const double lp = LayerLoss(layer, xp, w_out);
    xp[i] = orig - kEps;
    const double lm = LayerLoss(layer, xp, w_out);
    xp[i] = orig;
    const double numeric = (lp - lm) / (2.0 * kEps);
    EXPECT_NEAR(grad_in[i], numeric,
                kTol * (1.0 + std::fabs(numeric)))
        << "input grad mismatch at flat index " << i;
  }

  // Parameter gradients (restore the forward cache for the analytic grads
  // already accumulated above).
  for (Parameter* p : layer->Params()) {
    Tensor& v = p->value;
    for (int64_t i = 0; i < v.size();
         i += std::max<int64_t>(1, v.size() / 13)) {
      const float orig = v[i];
      v[i] = orig + kEps;
      const double lp = LayerLoss(layer, x, w_out);
      v[i] = orig - kEps;
      const double lm = LayerLoss(layer, x, w_out);
      v[i] = orig;
      const double numeric = (lp - lm) / (2.0 * kEps);
      EXPECT_NEAR(p->grad[i], numeric,
                  kTol * (1.0 + std::fabs(numeric)))
          << "param " << p->name << " grad mismatch at " << i;
    }
  }
}

TEST(GradCheckTest, Dense) {
  Rng rng(1);
  Dense layer(5, 4, &rng);
  Tensor x = Tensor::Randn({3, 5}, &rng);
  CheckGradients(&layer, x, &rng);
}

TEST(GradCheckTest, Relu) {
  Rng rng(2);
  Relu layer;
  // Keep inputs away from the kink at 0.
  Tensor x = Tensor::Randn({4, 6}, &rng);
  for (int64_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x[i]) < 0.05f) x[i] = 0.2f;
  }
  CheckGradients(&layer, x, &rng);
}

TEST(GradCheckTest, Conv1dWithPaddingAndStride) {
  Rng rng(3);
  Conv1d layer(2, 3, 3, /*stride=*/2, /*pad=*/1, &rng);
  Tensor x = Tensor::Randn({2, 2, 9}, &rng);
  CheckGradients(&layer, x, &rng);
}

TEST(GradCheckTest, Conv1dSamePad) {
  Rng rng(4);
  Conv1d layer(3, 2, 5, 1, Conv1d::SamePad(5), &rng);
  Tensor x = Tensor::Randn({2, 3, 8}, &rng);
  CheckGradients(&layer, x, &rng);
}

TEST(GradCheckTest, Conv2d) {
  Rng rng(5);
  Conv2d layer(2, 3, 3, /*stride=*/1, /*pad=*/1, &rng);
  Tensor x = Tensor::Randn({2, 2, 5, 5}, &rng);
  CheckGradients(&layer, x, &rng);
}

TEST(GradCheckTest, Conv2dStride2NoPad) {
  Rng rng(6);
  Conv2d layer(1, 2, 3, 2, 0, &rng);
  Tensor x = Tensor::Randn({2, 1, 7, 7}, &rng);
  CheckGradients(&layer, x, &rng);
}

TEST(GradCheckTest, MaxPool2d) {
  Rng rng(8);
  MaxPool2d layer(2, 2);
  Tensor x = Tensor::Randn({2, 2, 6, 6}, &rng);
  CheckGradients(&layer, x, &rng);
}

TEST(GradCheckTest, GlobalAvgPools) {
  Rng rng(9);
  GlobalAvgPool gap;
  Tensor x1 = Tensor::Randn({2, 3, 7}, &rng);
  CheckGradients(&gap, x1, &rng);
  Tensor x2 = Tensor::Randn({2, 3, 4, 4}, &rng);
  CheckGradients(&gap, x2, &rng);
}

TEST(GradCheckTest, Flatten) {
  Rng rng(10);
  Flatten layer;
  Tensor x = Tensor::Randn({3, 2, 4}, &rng);
  CheckGradients(&layer, x, &rng);
}

TEST(GradCheckTest, BatchNormTraining) {
  Rng rng(11);
  BatchNorm layer(3);
  Tensor x = Tensor::Randn({4, 3, 5}, &rng);
  // BatchNorm's training forward depends on batch statistics, which the
  // finite-difference perturbation changes too — the check still holds
  // because the loss is evaluated through the same training forward.
  CheckGradients(&layer, x, &rng);
}

TEST(GradCheckTest, BatchNormFrozen) {
  Rng rng(12);
  BatchNorm layer(3);
  // Populate running stats with one training pass first.
  Tensor warm = Tensor::Randn({8, 3, 5}, &rng);
  (void)layer.Forward(warm, /*training=*/true);
  layer.set_frozen(true);
  Tensor x = Tensor::Randn({4, 3, 5}, &rng);
  CheckGradients(&layer, x, &rng);
}

TEST(GradCheckTest, BatchNormDenseRank2) {
  Rng rng(13);
  BatchNorm layer(6);
  Tensor x = Tensor::Randn({5, 6}, &rng);
  CheckGradients(&layer, x, &rng);
}

TEST(GradCheckTest, SequentialStack) {
  Rng rng(14);
  Sequential seq;
  seq.Add(std::make_unique<Conv1d>(2, 4, 3, 1, 1, &rng));
  seq.Add(std::make_unique<Relu>());
  seq.Add(std::make_unique<GlobalAvgPool>());
  seq.Add(std::make_unique<Dense>(4, 3, &rng));
  Tensor x = Tensor::Randn({3, 2, 8}, &rng);
  CheckGradients(&seq, x, &rng);
}

TEST(GradCheckTest, ResidualIdentity) {
  Rng rng(15);
  auto body = std::make_unique<Sequential>();
  body->Add(std::make_unique<Conv1d>(3, 3, 3, 1, 1, &rng));
  Residual layer(std::move(body), nullptr);
  Tensor x = Tensor::Randn({2, 3, 6}, &rng);
  CheckGradients(&layer, x, &rng);
}

TEST(GradCheckTest, ResidualProjection) {
  Rng rng(16);
  auto body = std::make_unique<Sequential>();
  body->Add(std::make_unique<Conv1d>(2, 4, 3, 1, 1, &rng));
  auto shortcut = std::make_unique<Conv1d>(2, 4, 1, 1, 0, &rng);
  Residual layer(std::move(body), std::move(shortcut));
  Tensor x = Tensor::Randn({2, 2, 6}, &rng);
  CheckGradients(&layer, x, &rng);
}

TEST(GradCheckTest, ParallelConcat) {
  Rng rng(17);
  std::vector<std::unique_ptr<Layer>> branches;
  branches.push_back(std::make_unique<Conv1d>(2, 3, 3, 1, 1, &rng));
  branches.push_back(std::make_unique<Conv1d>(2, 2, 5, 1, 2, &rng));
  ParallelConcat layer(std::move(branches));
  Tensor x = Tensor::Randn({2, 2, 7}, &rng);
  CheckGradients(&layer, x, &rng);
}

TEST(GradCheckTest, SoftmaxCrossEntropy) {
  Rng rng(18);
  Tensor logits = Tensor::Randn({4, 5}, &rng);
  std::vector<int> labels = {0, 2, 4, 1};
  SoftmaxCrossEntropy ce;
  ce.Forward(logits, labels);
  Tensor grad = ce.Backward();
  for (int64_t i = 0; i < logits.size(); ++i) {
    const float orig = logits[i];
    SoftmaxCrossEntropy probe;
    logits[i] = orig + kEps;
    const double lp = probe.Forward(logits, labels);
    logits[i] = orig - kEps;
    const double lm = probe.Forward(logits, labels);
    logits[i] = orig;
    const double numeric = (lp - lm) / (2.0 * kEps);
    EXPECT_NEAR(grad[i], numeric, kTol * (1.0 + std::fabs(numeric)));
  }
}

TEST(GradCheckTest, MseLoss) {
  Rng rng(19);
  Tensor pred = Tensor::Randn({3, 4}, &rng);
  Tensor target = Tensor::Randn({3, 4}, &rng);
  Tensor grad;
  MseLoss(pred, target, &grad);
  for (int64_t i = 0; i < pred.size(); ++i) {
    const float orig = pred[i];
    pred[i] = orig + kEps;
    const double lp = MseLoss(pred, target, nullptr);
    pred[i] = orig - kEps;
    const double lm = MseLoss(pred, target, nullptr);
    pred[i] = orig;
    const double numeric = (lp - lm) / (2.0 * kEps);
    EXPECT_NEAR(grad[i], numeric, kTol * (1.0 + std::fabs(numeric)));
  }
}

}  // namespace
}  // namespace qcore
