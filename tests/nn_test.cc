// Unit tests for nn/: layer semantics, training loop, SGD, cloning, and
// BatchNorm eval/freeze behavior.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "nn/batchnorm.h"
#include "nn/composite.h"
#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/sgd.h"
#include "nn/training.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"
#include "tests/batchnorm_state.h"

namespace qcore {
namespace {

TEST(DenseTest, KnownForward) {
  Rng rng(1);
  Dense layer(2, 2, &rng);
  // Overwrite with known weights: w = [[1,2],[3,4]], b = [0.5, -0.5].
  layer.Params()[0]->value = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  layer.Params()[1]->value = Tensor::FromVector({2}, {0.5f, -0.5f});
  Tensor x = Tensor::FromVector({1, 2}, {10, 20});
  Tensor y = layer.Forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 10 * 1 + 20 * 2 + 0.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 10 * 3 + 20 * 4 - 0.5f);
}

TEST(ReluTest, ClampsNegatives) {
  Relu layer;
  Tensor x = Tensor::FromVector({1, 4}, {-1, 0, 2, -3});
  Tensor y = layer.Forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(Conv1dTest, IdentityKernelPreservesSignal) {
  Rng rng(2);
  Conv1d layer(1, 1, 3, 1, 1, &rng);
  // Kernel [0,1,0], bias 0 => identity with "same" padding.
  layer.Params()[0]->value = Tensor::FromVector({1, 1, 3}, {0, 1, 0});
  layer.Params()[1]->value = Tensor::Zeros({1});
  Tensor x = Tensor::FromVector({1, 1, 5}, {1, 2, 3, 4, 5});
  Tensor y = layer.Forward(x, false);
  ASSERT_EQ(y.dim(2), 5);
  for (int64_t i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv1dTest, OutputLengthFormula) {
  Rng rng(3);
  Conv1d layer(1, 1, 4, 2, 1, &rng);
  Tensor x({2, 1, 11});
  Tensor y = layer.Forward(x, false);
  EXPECT_EQ(y.dim(2), (11 + 2 - 4) / 2 + 1);
}

// (l + 2*pad - kernel) / stride truncates -1/2 to 0, so without an explicit
// fit check a kernel longer than the padded input yields one output column
// whose window runs past the end of the input. The layers and the naive
// references must refuse such an input instead.
TEST(Conv1dDeathTest, RejectsInputShorterThanKernel) {
  Rng rng(3);
  Conv1d layer(1, 1, /*kernel=*/3, /*stride=*/2, /*pad=*/0, &rng);
  Tensor x({1, 1, 2});
  EXPECT_DEATH(layer.Forward(x, false), "kernel is larger than the padded");
  EXPECT_DEATH(naive::Conv1dForward(x, layer.Params()[0]->value,
                                    layer.Params()[1]->value, 2, 0),
               "QCORE_CHECK failed");
}

TEST(Conv2dDeathTest, RejectsInputSmallerThanKernel) {
  Rng rng(4);
  Conv2d layer(1, 1, /*kernel=*/3, /*stride=*/2, /*pad=*/0, &rng);
  const Tensor& w = layer.Params()[0]->value;
  const Tensor& b = layer.Params()[1]->value;
  // Too short in both dimensions, then in only one of them.
  const std::vector<std::vector<int64_t>> shapes = {
      {1, 1, 2, 2}, {1, 1, 2, 5}, {1, 1, 5, 2}};
  for (const std::vector<int64_t>& shape : shapes) {
    Tensor x(shape);
    EXPECT_DEATH(layer.Forward(x, false), "kernel is larger than the padded");
    EXPECT_DEATH(naive::Conv2dForward(x, w, b, 2, 0), "QCORE_CHECK failed");
  }
}

TEST(Conv2dTest, AveragingKernel) {
  Rng rng(4);
  Conv2d layer(1, 1, 2, 1, 0, &rng);
  layer.Params()[0]->value =
      Tensor::FromVector({1, 1, 2, 2}, {0.25f, 0.25f, 0.25f, 0.25f});
  layer.Params()[1]->value = Tensor::Zeros({1});
  Tensor x = Tensor::FromVector({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor y = layer.Forward(x, false);
  ASSERT_EQ(y.size(), 1);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

// 2x2 windows, stride 2: a plain maximum, a tie (the first maximum in
// row-major window order wins, so only it gets the gradient) and an
// all-negative window.
TEST(MaxPoolTest, SelectsMaximum) {
  MaxPool2d pool(2, 2);
  Tensor x = Tensor::FromVector({1, 1, 2, 6}, {1, 5, 7, 7, -3, -1,  //
                                               2, 2, 7, 0, -2, -4});
  Tensor y = pool.Forward(x, /*training=*/true);
  ASSERT_EQ(y.shape(), (std::vector<int64_t>{1, 1, 1, 3}));
  EXPECT_EQ(y[0], 5.0f);
  EXPECT_EQ(y[1], 7.0f);
  EXPECT_EQ(y[2], -1.0f);
  Tensor g = pool.Backward(Tensor::Full(y.shape(), 1.0f));
  const std::vector<float> want = {0, 1, 1, 0, 0, 1,  //
                                   0, 0, 0, 0, 0, 0};
  for (int64_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g[i], want[static_cast<size_t>(i)]) << "flat index " << i;
  }
}

TEST(GlobalAvgPoolTest, Averages) {
  GlobalAvgPool gap;
  Tensor x = Tensor::FromVector({1, 2, 3}, {1, 2, 3, 10, 20, 30});
  Tensor y = gap.Forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 20.0f);
}

// GAP sums four rows at once; each row must still get the one-row loop's
// ascending double sum, bit for bit, including the rows past the last
// group of four (7 channels) and on both ranks. Each row starts with 1e16
// and has -1e16 in its middle, so the float result depends on the order of
// the double adds: a descending sum differs on some rows.
TEST(GlobalAvgPoolTest, MatchesOneRowSumBitForBit) {
  Rng rng(8);
  Tensor x1 = Tensor::Randn({3, 7, 29}, &rng);
  Tensor x2 = Tensor::Randn({3, 7, 5, 6}, &rng);
  for (auto [x, len] : {std::pair{&x1, 29}, std::pair{&x2, 30}}) {
    for (int64_t i = 0; i < x->size(); i += len) {
      x->data()[i] = 1e16f;
      x->data()[i + len / 2] = -1e16f;
    }
  }
  GlobalAvgPool gap;
  const Tensor y1 = gap.Forward(x1, false);
  const Tensor y2 = gap.Forward(x2, false);
  int order_sensitive = 0;
  for (const auto& [x, y] : {std::pair{&x1, &y1}, std::pair{&x2, &y2}}) {
    const int64_t len = x->size() / y->size();
    const float inv = 1.0f / static_cast<float>(len);
    for (int64_t i = 0; i < y->size(); ++i) {
      const float* row = x->data() + i * len;
      double up = 0.0, down = 0.0;
      for (int64_t t = 0; t < len; ++t) up += row[t];
      for (int64_t t = len - 1; t >= 0; --t) down += row[t];
      const float want = static_cast<float>(up) * inv;
      EXPECT_EQ(std::memcmp(y->data() + i, &want, sizeof(float)), 0)
          << "row " << i;
      if (static_cast<float>(down) != static_cast<float>(up)) {
        ++order_sensitive;
      }
    }
  }
  EXPECT_GT(order_sensitive, 0);
}

TEST(BatchNormTest, NormalizesTrainingBatch) {
  BatchNorm bn(2);
  Rng rng(5);
  Tensor x = Tensor::Randn({16, 2, 8}, &rng, 3.0f);
  Tensor y = bn.Forward(x, /*training=*/true);
  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  for (int64_t c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    for (int64_t i = 0; i < 16; ++i) {
      for (int64_t t = 0; t < 8; ++t) mean += y.at(i, c, t);
    }
    mean /= 128.0;
    for (int64_t i = 0; i < 16; ++i) {
      for (int64_t t = 0; t < 8; ++t) {
        var += (y.at(i, c, t) - mean) * (y.at(i, c, t) - mean);
      }
    }
    var /= 128.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNormTest, EvalUsesRunningStats) {
  BatchNorm bn(1);
  Rng rng(6);
  // Warm up running stats with many batches of N(5, 2^2).
  for (int i = 0; i < 200; ++i) {
    Tensor x = Tensor::Randn({32, 1, 4}, &rng, 2.0f);
    float* p = x.data();
    for (int64_t j = 0; j < x.size(); ++j) p[j] += 5.0f;
    (void)bn.Forward(x, /*training=*/true);
  }
  // A constant input at the running mean should map near 0 in eval mode.
  Tensor probe = Tensor::Full({1, 1, 4}, 5.0f);
  Tensor y = bn.Forward(probe, /*training=*/false);
  EXPECT_NEAR(y[0], 0.0f, 0.15f);
}

TEST(BatchNormTest, FrozenTrainingMatchesEval) {
  BatchNorm bn(3);
  Rng rng(7);
  (void)bn.Forward(Tensor::Randn({16, 3, 4}, &rng), /*training=*/true);
  bn.set_frozen(true);
  Tensor x = Tensor::Randn({4, 3, 4}, &rng);
  Tensor train_out = bn.Forward(x, /*training=*/true);
  Tensor eval_out = bn.Forward(x, /*training=*/false);
  for (int64_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(train_out[i], eval_out[i], 1e-5f);
  }
}

TEST(BatchNormTest, FrozenDoesNotUpdateRunningStats) {
  BatchNorm bn(2);
  Rng rng(8);
  (void)bn.Forward(Tensor::Randn({8, 2, 4}, &rng), /*training=*/true);
  const Tensor before = *bn.Buffers()[0];
  bn.set_frozen(true);
  (void)bn.Forward(Tensor::Randn({8, 2, 4}, &rng, 10.0f), /*training=*/true);
  const Tensor& after = *bn.Buffers()[0];
  for (int64_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(before[i], after[i]);
  }
}

TEST(SetBatchNormFrozenTest, WalksTree) {
  Rng rng(9);
  Sequential seq;
  seq.Add(std::make_unique<Conv1d>(1, 2, 3, 1, 1, &rng));
  auto inner = std::make_unique<Sequential>();
  inner->Add(std::make_unique<BatchNorm>(2));
  seq.Add(std::make_unique<Residual>(std::move(inner), nullptr));
  SetBatchNormFrozen(&seq, true);
  int frozen_count = 0;
  for (Layer* leaf : FlattenLeafLayers(&seq)) {
    if (auto* bn = dynamic_cast<BatchNorm*>(leaf)) {
      EXPECT_TRUE(bn->frozen());
      ++frozen_count;
    }
  }
  EXPECT_EQ(frozen_count, 1);
}

// Composite roots for the plan, each on [N, 2, L] inputs: a Residual root
// (a projection shortcut, a body ending conv -> BatchNorm), a Residual
// whose ReLU runs in its join followed by the BatchNorm-only residual of
// SetBatchNormFrozenTest, a ParallelConcat whose BatchNorm/ReLU run in its
// branches' epilogues (one branch with an epilogue of its own, one ending
// in a one-input-channel conv, whose samples run as one GEMM, at a channel
// offset), and a chain with more BatchNorm/ReLU layers than a conv's
// epilogue takes (the rest run as layers of their own).
std::vector<std::unique_ptr<Layer>> CompositeRoots(Rng* rng) {
  auto conv_bn = [&](int64_t in, int64_t out, int k, bool relu) {
    auto seq = std::make_unique<Sequential>();
    seq->Add(std::make_unique<Conv1d>(in, out, k, 1, Conv1d::SamePad(k),
                                      rng));
    seq->Add(std::make_unique<BatchNorm>(out));
    if (relu) seq->Add(std::make_unique<Relu>());
    return seq;
  };
  std::vector<std::unique_ptr<Layer>> roots;
  auto body = conv_bn(2, 3, 3, /*relu=*/true);
  body->Add(std::make_unique<Conv1d>(3, 3, 3, 1, 1, rng));
  body->Add(std::make_unique<BatchNorm>(3));
  roots.push_back(std::make_unique<Residual>(
      std::move(body), conv_bn(2, 3, 1, /*relu=*/false)));

  auto joined = std::make_unique<Sequential>();
  joined->Add(std::make_unique<Conv1d>(2, 3, 3, 1, 1, rng));
  joined->Add(std::make_unique<Residual>(conv_bn(3, 3, 5, false), nullptr));
  joined->Add(std::make_unique<Relu>());
  auto bn_only = std::make_unique<Sequential>();
  bn_only->Add(std::make_unique<BatchNorm>(3));
  joined->Add(std::make_unique<Residual>(std::move(bn_only), nullptr));
  roots.push_back(std::move(joined));

  std::vector<std::unique_ptr<Layer>> branches;
  branches.push_back(std::make_unique<Conv1d>(2, 2, 3, 1, 1, rng));
  branches.push_back(conv_bn(2, 3, 1, /*relu=*/true));
  auto one_channel = std::make_unique<Sequential>();
  one_channel->Add(std::make_unique<Conv1d>(2, 1, 1, 1, 0, rng));
  one_channel->Add(std::make_unique<Conv1d>(1, 3, 3, 1, 1, rng));
  branches.push_back(std::move(one_channel));
  auto concat = std::make_unique<Sequential>();
  concat->Add(std::make_unique<ParallelConcat>(std::move(branches)));
  concat->Add(std::make_unique<BatchNorm>(8));
  concat->Add(std::make_unique<Relu>());
  roots.push_back(std::move(concat));

  auto chain = std::make_unique<Sequential>();
  chain->Add(std::make_unique<Conv1d>(2, 3, 3, 1, 1, rng));
  for (int i = 0; i < 3; ++i) {
    chain->Add(std::make_unique<BatchNorm>(3));
    chain->Add(std::make_unique<Relu>());
  }
  roots.push_back(std::move(chain));
  return roots;
}

// A composite root's eval Forward is the fused plan; it equals the layer-
// by-layer forward bit for bit.
TEST(EvalPlanTest, CompositeRootsMatchLayeredForward) {
  Rng rng(17);
  for (const std::unique_ptr<Layer>& root : CompositeRoots(&rng)) {
    SCOPED_TRACE(root->name());
    // Running statistics, gamma and beta off their init: near it a
    // differently rounded affine can give the same bits.
    MoveBatchNormState(root.get(), &rng);
    const Tensor x = Tensor::Randn({5, 2, 7}, &rng);
    EXPECT_TRUE(BitEqual(root->Forward(x, false),
                         LayeredEvalForward(root.get(), x)));
  }
}

// The plan under the frozen-training formula (the pass that opens a
// calibration round) equals the frozen training forward on the same roots,
// the BatchNorms it cannot fuse included (the BatchNorm-only residual and
// the chain's last two), over 1, 2 and 3 row slices at those budgets.
TEST(EvalPlanTest, FrozenTrainingPassMatchesTrainingForward) {
  Rng rng(19);
  const int saved_threads = kernels::gemm_threads();
  for (const std::unique_ptr<Layer>& root : CompositeRoots(&rng)) {
    SCOPED_TRACE(root->name());
    MoveBatchNormState(root.get(), &rng);
    const Tensor x = Tensor::Randn({5, 2, 7}, &rng);
    for (int threads : {1, 2, 3}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      kernels::set_gemm_threads(threads);
      ExpectPoolPassMatchesFrozenTraining(root.get(), x, threads);
    }
  }
  kernels::set_gemm_threads(saved_threads);
}

TEST(EvalPlanDeathTest, ConcatBranchMustEndInConv) {
  Rng rng(18);
  std::vector<std::unique_ptr<Layer>> branches;
  branches.push_back(std::make_unique<Conv1d>(2, 2, 3, 1, 1, &rng));
  branches.push_back(std::make_unique<Relu>());
  ParallelConcat concat(std::move(branches));
  const Tensor x = Tensor::Randn({2, 2, 5}, &rng);
  EXPECT_DEATH(concat.Forward(x, false), "each branch must end in a conv");
}

TEST(SgdTest, PlainStepMovesAgainstGradient) {
  Parameter p("w", Tensor::FromVector({2}, {1.0f, -1.0f}));
  p.grad = Tensor::FromVector({2}, {0.5f, -0.5f});
  Sgd sgd({.lr = 0.1f, .momentum = 0.0f, .weight_decay = 0.0f});
  sgd.Step({&p});
  EXPECT_FLOAT_EQ(p.value[0], 1.0f - 0.05f);
  EXPECT_FLOAT_EQ(p.value[1], -1.0f + 0.05f);
  // Gradients must be cleared.
  EXPECT_FLOAT_EQ(p.grad[0], 0.0f);
}

TEST(SgdTest, MomentumAccumulates) {
  Parameter p("w", Tensor::FromVector({1}, {0.0f}));
  Sgd sgd({.lr = 1.0f, .momentum = 0.5f, .weight_decay = 0.0f});
  p.grad = Tensor::FromVector({1}, {1.0f});
  sgd.Step({&p});
  EXPECT_FLOAT_EQ(p.value[0], -1.0f);  // v = 1
  p.grad = Tensor::FromVector({1}, {1.0f});
  sgd.Step({&p});
  EXPECT_FLOAT_EQ(p.value[0], -2.5f);  // v = 1.5
}

TEST(SgdTest, WeightDecayShrinks) {
  Parameter p("w", Tensor::FromVector({1}, {10.0f}));
  Sgd sgd({.lr = 0.1f, .momentum = 0.0f, .weight_decay = 0.1f});
  p.grad = Tensor::Zeros({1});
  sgd.Step({&p});
  EXPECT_LT(p.value[0], 10.0f);
}

TEST(CloneTest, SequentialCloneMatchesOutputs) {
  Rng rng(10);
  Sequential seq;
  seq.Add(std::make_unique<Conv1d>(2, 3, 3, 1, 1, &rng));
  seq.Add(std::make_unique<BatchNorm>(3));
  seq.Add(std::make_unique<Relu>());
  seq.Add(std::make_unique<GlobalAvgPool>());
  seq.Add(std::make_unique<Dense>(3, 2, &rng));
  (void)seq.Forward(Tensor::Randn({8, 2, 6}, &rng), true);  // move BN stats

  std::unique_ptr<Layer> copy = seq.Clone();
  Tensor x = Tensor::Randn({3, 2, 6}, &rng);
  Tensor y1 = seq.Forward(x, false);
  Tensor y2 = copy->Forward(x, false);
  for (int64_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);

  // Mutating the clone must not affect the original.
  copy->Params()[0]->value.Fill(0.0f);
  Tensor y3 = seq.Forward(x, false);
  for (int64_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y3[i]);
}

TEST(CopyParamsTest, TransfersValuesAndBuffers) {
  Rng rng(11);
  Sequential a;
  a.Add(std::make_unique<Dense>(3, 2, &rng));
  a.Add(std::make_unique<BatchNorm>(2));
  Sequential b;
  b.Add(std::make_unique<Dense>(3, 2, &rng));
  b.Add(std::make_unique<BatchNorm>(2));
  (void)a.Forward(Tensor::Randn({16, 3}, &rng), true);  // distinct BN stats
  CopyParams(&b, a);
  Tensor x = Tensor::Randn({4, 3}, &rng);
  Tensor ya = a.Forward(x, false);
  Tensor yb = b.Forward(x, false);
  for (int64_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST(FlattenLeafLayersTest, DepthFirstOrder) {
  Rng rng(12);
  Sequential seq;
  seq.Add(std::make_unique<Dense>(2, 2, &rng));
  auto inner = std::make_unique<Sequential>();
  inner->Add(std::make_unique<Relu>());
  inner->Add(std::make_unique<Dense>(2, 2, &rng));
  seq.Add(std::move(inner));
  std::vector<Layer*> leaves = FlattenLeafLayers(&seq);
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_NE(dynamic_cast<Dense*>(leaves[0]), nullptr);
  EXPECT_NE(dynamic_cast<Relu*>(leaves[1]), nullptr);
  EXPECT_NE(dynamic_cast<Dense*>(leaves[2]), nullptr);
}

TEST(TrainingTest, LearnsLinearlySeparableProblem) {
  Rng rng(13);
  // Two Gaussian blobs in 2-D.
  const int n = 200;
  Tensor x({n, 2});
  std::vector<int> y(n);
  for (int i = 0; i < n; ++i) {
    const int cls = i % 2;
    x.at(i, 0) = static_cast<float>(rng.NextGaussian(cls ? 2.0 : -2.0, 0.5));
    x.at(i, 1) = static_cast<float>(rng.NextGaussian(cls ? -1.0 : 1.0, 0.5));
    y[static_cast<size_t>(i)] = cls;
  }
  Sequential model;
  model.Add(std::make_unique<Dense>(2, 8, &rng));
  model.Add(std::make_unique<Relu>());
  model.Add(std::make_unique<Dense>(8, 2, &rng));
  TrainOptions opts;
  opts.epochs = 20;
  opts.batch_size = 16;
  opts.sgd.lr = 0.05f;
  const float final_loss = TrainClassifier(&model, x, y, opts, &rng);
  EXPECT_LT(final_loss, 0.1f);
  EXPECT_GT(EvaluateAccuracy(&model, x, y), 0.98f);
}

TEST(TrainingTest, PredictChunkingConsistent) {
  Rng rng(14);
  Sequential model;
  model.Add(std::make_unique<Dense>(3, 4, &rng));
  Tensor x = Tensor::Randn({10, 3}, &rng);
  std::vector<int> big = Predict(&model, x, 256);
  std::vector<int> small = Predict(&model, x, 3);
  EXPECT_EQ(big, small);
}

}  // namespace
}  // namespace qcore
