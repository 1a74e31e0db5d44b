// Tests for baselines/: replay buffer reservoir behavior, the learners'
// update mechanics, coreset strategies, and DeepC's compression pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baselines/agem.h"
#include "baselines/camel.h"
#include "baselines/continual_learner.h"
#include "baselines/coresets.h"
#include "baselines/deepc.h"
#include "baselines/er_ace.h"
#include "baselines/replay_buffer.h"
#include "common/huffman.h"
#include "data/har_generator.h"
#include "models/model_zoo.h"
#include "nn/loss.h"
#include "nn/training.h"
#include "tensor/tensor_ops.h"

namespace qcore {
namespace {

Dataset NumberedDataset(int n, int num_classes = 4) {
  Tensor x({n, 2});
  std::vector<int> y(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    x.at(i, 0) = static_cast<float>(i);
    x.at(i, 1) = static_cast<float>(-i);
    y[static_cast<size_t>(i)] = i % num_classes;
  }
  return Dataset(std::move(x), std::move(y), num_classes);
}

TEST(ReplayBufferTest, FillsToCapacityThenStaysFixed) {
  Rng rng(1);
  ReplayBuffer buf(5, false, &rng);
  Dataset d = NumberedDataset(20);
  buf.AddBatch(d, nullptr);
  EXPECT_EQ(buf.size(), 5);
  EXPECT_EQ(buf.capacity(), 5);
}

TEST(ReplayBufferTest, ReservoirKeepsUniformishSample) {
  // Insert 0..999 into a 100-slot reservoir; the retained mean should be
  // near 500 (uniform over the stream), not near 50 (prefix) or 950
  // (suffix).
  Rng rng(2);
  ReplayBuffer buf(100, false, &rng);
  Dataset d = NumberedDataset(1000);
  buf.AddBatch(d, nullptr);
  Dataset all = buf.All(4, nullptr);
  double mean = 0.0;
  for (int i = 0; i < all.size(); ++i) mean += all.x().at(i, 0);
  mean /= all.size();
  EXPECT_GT(mean, 350.0);
  EXPECT_LT(mean, 650.0);
}

TEST(ReplayBufferTest, SampleWithoutReplacement) {
  Rng rng(3);
  ReplayBuffer buf(10, false, &rng);
  buf.AddBatch(NumberedDataset(10), nullptr);
  Dataset s = buf.Sample(10, 4, nullptr);
  std::set<float> uniq;
  for (int i = 0; i < s.size(); ++i) uniq.insert(s.x().at(i, 0));
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(ReplayBufferTest, LogitsTravelWithExamples) {
  Rng rng(4);
  ReplayBuffer buf(5, true, &rng);
  Dataset d = NumberedDataset(5);
  Tensor logits({5, 4});
  for (int i = 0; i < 5; ++i) logits.at(i, 0) = static_cast<float>(100 + i);
  buf.AddBatch(d, &logits);
  Tensor out_logits;
  Dataset all = buf.All(4, &out_logits);
  for (int i = 0; i < all.size(); ++i) {
    // logit row must match the example row: logit[0] == 100 + x[0].
    EXPECT_FLOAT_EQ(out_logits.at(i, 0), 100.0f + all.x().at(i, 0));
  }
}

TEST(AsymmetricCeGradTest, AbsentClassesGetZeroGradient) {
  Tensor logits = Tensor::FromVector({2, 4}, {1, 2, 3, 4, 4, 3, 2, 1});
  std::vector<int> labels = {1, 2};  // classes 0 and 3 absent
  Tensor grad = AsymmetricCeGrad(logits, labels);
  for (int64_t i = 0; i < 2; ++i) {
    EXPECT_FLOAT_EQ(grad.at(i, 0), 0.0f);
    EXPECT_FLOAT_EQ(grad.at(i, 3), 0.0f);
  }
  // Present-class gradients sum to zero per row (softmax minus onehot).
  for (int64_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(grad.at(i, 1) + grad.at(i, 2), 0.0f, 1e-6f);
  }
}

TEST(AsymmetricCeGradTest, MatchesFullCeWhenAllClassesPresent) {
  Rng rng(5);
  Tensor logits = Tensor::Randn({4, 3}, &rng);
  std::vector<int> labels = {0, 1, 2, 1};
  Tensor asym = AsymmetricCeGrad(logits, labels);
  SoftmaxCrossEntropy ce;
  ce.Forward(logits, labels);
  Tensor full = ce.Backward();
  for (int64_t i = 0; i < full.size(); ++i) {
    EXPECT_NEAR(asym[i], full[i], 1e-5f);
  }
}

struct LearnerFixture {
  HarSpec spec;
  HarDomain source;
  HarDomain target;
  std::unique_ptr<Sequential> model;
  Rng rng{99};

  LearnerFixture() {
    spec = HarSpec::Usc();
    spec.num_classes = 5;
    spec.channels = 3;
    spec.length = 24;
    spec.train_per_class = 8;
    spec.test_per_class = 4;
    source = MakeHarDomain(spec, 0);
    target = MakeHarDomain(spec, 1);
    model = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng);
    TrainOptions topt;
    topt.epochs = 8;
    topt.sgd.lr = 0.02f;
    TrainClassifier(model.get(), source.train.x(), source.train.labels(),
                    topt, &rng);
  }
};

// A-GEM projects in the flattened gradient space and writes the result
// back into the snapshot's shapes; the round trip must be exact.
TEST(AgemTest, GradFlattenRoundTrip) {
  Rng rng(75);
  const std::vector<Tensor> grads = {Tensor::Randn({4, 3, 5}, &rng),
                                     Tensor::Randn({4}, &rng),
                                     Tensor::Randn({2, 6}, &rng)};
  const std::vector<float> flat = FlattenGrads(grads);
  ASSERT_EQ(flat.size(), 76u);
  std::vector<Tensor> rebuilt = grads;
  for (Tensor& g : rebuilt) g.SetZero();
  UnflattenGrads(flat, &rebuilt);
  for (size_t i = 0; i < grads.size(); ++i) {
    for (int64_t e = 0; e < grads[i].size(); ++e) {
      EXPECT_EQ(grads[i][e], rebuilt[i][e]);
    }
  }
}

TEST(LearnersTest, EveryBaselineRunsAndMutatesCodes) {
  LearnerFixture f;
  LearnerOptions opts;
  opts.epochs = 8;
  opts.sgd.lr = 0.05f;  // large enough to survive edge re-quantization
  Dataset batch = SplitIntoStreamBatches(f.target.train, 4, &f.rng)[0];
  for (const auto& name : BaselineNames()) {
    QuantizedModel qm(*f.model, 4);
    std::vector<int32_t> before;
    for (int t = 0; t < qm.num_quantized(); ++t) {
      before.insert(before.end(), qm.quantized(t).codes.begin(),
                    qm.quantized(t).codes.end());
    }
    auto learner = MakeLearner(name, &qm, opts, &f.rng);
    EXPECT_EQ(learner->name(), name);
    learner->ObserveBatch(batch);
    std::vector<int32_t> after;
    for (int t = 0; t < qm.num_quantized(); ++t) {
      after.insert(after.end(), qm.quantized(t).codes.begin(),
                   qm.quantized(t).codes.end());
    }
    EXPECT_NE(before, after) << name << " did not update any code";
    const float acc = learner->Evaluate(f.target.test);
    EXPECT_GE(acc, 0.0f);
    EXPECT_LE(acc, 1.0f);
  }
}

TEST(LearnersTest, ErReducesLossOnStreamData) {
  LearnerFixture f;
  QuantizedModel qm(*f.model, 4);
  LearnerOptions opts;
  opts.epochs = 25;
  opts.sgd.lr = 0.05f;
  auto learner = MakeLearner("ER", &qm, opts, &f.rng);
  SoftmaxCrossEntropy ce;
  Tensor logits0 = qm.model()->Forward(f.target.train.x(), false);
  const float loss_before = ce.Forward(logits0, f.target.train.labels());
  auto batches = SplitIntoStreamBatches(f.target.train, 4, &f.rng);
  for (const auto& b : batches) learner->ObserveBatch(b);
  Tensor logits1 = qm.model()->Forward(f.target.train.x(), false);
  const float loss_after = ce.Forward(logits1, f.target.train.labels());
  // Even with edge re-quantization rounding most updates away, BP on the
  // stream data must make some progress on that data.
  EXPECT_LT(loss_after, loss_before);
}

TEST(DeepCTest, PrunesRequestedFraction) {
  LearnerFixture f;
  QuantizedModel qm(*f.model, 4);
  LearnerOptions opts;
  DeepCLearner deepc(&qm, opts, &f.rng, 0.4f);
  EXPECT_NEAR(deepc.pruned_fraction(), 0.4f, 0.02f);
  // Pruned weights are exactly zero.
  int64_t zeros = 0, total = 0;
  for (int t = 0; t < qm.num_quantized(); ++t) {
    for (int32_t c : qm.quantized(t).codes) {
      zeros += c == 0 ? 1 : 0;
      ++total;
    }
  }
  EXPECT_GE(static_cast<float>(zeros) / static_cast<float>(total), 0.4f);
}

TEST(DeepCTest, HuffmanPayloadBeatsFixedWidth) {
  LearnerFixture f;
  QuantizedModel qm(*f.model, 8);
  LearnerOptions opts;
  DeepCLearner deepc(&qm, opts, &f.rng, 0.5f);
  // Half the codes are zero, so the Huffman payload must beat 8 bits/code.
  // (CompressedSizeBits additionally charges the code table, which dominates
  // only because these test models are tiny.)
  uint64_t payload = 0, codes = 0;
  for (int t = 0; t < qm.num_quantized(); ++t) {
    auto enc = HuffmanCoder::Encode(qm.quantized(t).codes);
    ASSERT_TRUE(enc.ok());
    payload += enc.value().PayloadBits();
    codes += qm.quantized(t).codes.size();
  }
  EXPECT_LT(payload, codes * 8);
  EXPECT_GT(deepc.CompressedSizeBits(), 0u);
}

TEST(DeepCTest, MaskSurvivesTraining) {
  LearnerFixture f;
  QuantizedModel qm(*f.model, 4);
  LearnerOptions opts;
  opts.epochs = 4;
  opts.sgd.lr = 0.05f;
  DeepCLearner deepc(&qm, opts, &f.rng, 0.3f);
  Dataset batch = SplitIntoStreamBatches(f.target.train, 4, &f.rng)[0];
  deepc.ObserveBatch(batch);
  int64_t zeros = 0, total = 0;
  for (int t = 0; t < qm.num_quantized(); ++t) {
    for (int32_t c : qm.quantized(t).codes) {
      zeros += c == 0 ? 1 : 0;
      ++total;
    }
  }
  // The constructor prunes floor(0.3 * count) weights, which can land just
  // under 30%.
  EXPECT_GE(static_cast<float>(zeros) / static_cast<float>(total), 0.29f);
}

TEST(CamelTest, MaintainsBoundedSubset) {
  LearnerFixture f;
  QuantizedModel qm(*f.model, 4);
  LearnerOptions opts;
  opts.epochs = 2;
  opts.buffer_capacity = 16;
  CamelLearner camel(&qm, opts, &f.rng);
  auto batches = SplitIntoStreamBatches(f.target.train, 4, &f.rng);
  for (const auto& b : batches) {
    camel.ObserveBatch(b);
    EXPECT_LE(camel.subset().size(), 8);  // capacity / 2
  }
}

// Coreset strategies: valid unique indices of the requested size.
class CoresetStrategyTest : public ::testing::TestWithParam<int> {};

TEST_P(CoresetStrategyTest, ReturnsValidUniqueIndices) {
  LearnerFixture f;
  const int size = 12;
  const Dataset& d = f.source.train;
  std::vector<int> sel;
  Rng rng(17);
  switch (GetParam()) {
    case 0:
      sel = SelectMaxEntropy(f.model.get(), d, size);
      break;
    case 1:
      sel = SelectLeastConfidence(f.model.get(), d, size);
      break;
    case 2: {
      std::vector<int> misses(static_cast<size_t>(d.size()));
      for (size_t i = 0; i < misses.size(); ++i) {
        misses[i] = static_cast<int>(i % 6);
      }
      sel = SelectNormalFit(misses, size, &rng);
      break;
    }
    case 3:
      sel = SelectKMeans(d, size, &rng);
      break;
    case 4:
      sel = SelectGradMatch(f.model.get(), d, size);
      break;
    case 5:
      sel = SelectCraig(f.model.get(), d, size);
      break;
  }
  EXPECT_EQ(static_cast<int>(sel.size()), size);
  std::set<int> uniq(sel.begin(), sel.end());
  EXPECT_EQ(uniq.size(), sel.size());
  for (int i : sel) {
    EXPECT_GE(i, 0);
    EXPECT_LT(i, d.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, CoresetStrategyTest,
                         ::testing::Range(0, 6));

TEST(CoresetsTest, KCenterGreedySpreadsOut) {
  // Points on a line: greedy k-center must pick points spanning the range.
  Rng rng(18);
  const int n = 50;
  Tensor rows({n, 1});
  for (int i = 0; i < n; ++i) rows.at(i, 0) = static_cast<float>(i);
  std::vector<int> sel = KCenterGreedy(rows, 3, &rng);
  float mn = 1e9f, mx = -1e9f;
  for (int i : sel) {
    mn = std::min(mn, rows.at(i, 0));
    mx = std::max(mx, rows.at(i, 0));
  }
  EXPECT_LE(mn, 10.0f);
  EXPECT_GE(mx, 39.0f);
}

TEST(CoresetsTest, GradMatchTracksMeanGradientBetterThanWorstCase) {
  LearnerFixture f;
  const Dataset& d = f.source.train;
  Tensor grads = LastLayerGradients(f.model.get(), d);
  const int64_t k = grads.dim(1);
  auto subset_residual = [&](const std::vector<int>& sel) {
    std::vector<double> target(static_cast<size_t>(k), 0.0);
    for (int i = 0; i < d.size(); ++i) {
      for (int64_t j = 0; j < k; ++j) {
        target[static_cast<size_t>(j)] += grads.at(i, j);
      }
    }
    for (auto& t : target) t /= d.size();
    std::vector<double> mean(static_cast<size_t>(k), 0.0);
    for (int i : sel) {
      for (int64_t j = 0; j < k; ++j) {
        mean[static_cast<size_t>(j)] += grads.at(i, j);
      }
    }
    double res = 0.0;
    for (int64_t j = 0; j < k; ++j) {
      const double m = mean[static_cast<size_t>(j)] / sel.size();
      res += (m - target[static_cast<size_t>(j)]) *
             (m - target[static_cast<size_t>(j)]);
    }
    return res;
  };
  std::vector<int> gm = SelectGradMatch(f.model.get(), d, 10);
  // Compare against the average of several random subsets.
  Rng rng(19);
  double random_res = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    random_res += subset_residual(rng.SampleWithoutReplacement(d.size(), 10));
  }
  random_res /= 5.0;
  EXPECT_LE(subset_residual(gm), random_res + 1e-9);
}

TEST(CoresetsTest, LastLayerGradientsRowsSumToZero) {
  LearnerFixture f;
  Tensor grads = LastLayerGradients(f.model.get(), f.source.train);
  for (int64_t i = 0; i < grads.dim(0); ++i) {
    double sum = 0.0;
    for (int64_t j = 0; j < grads.dim(1); ++j) sum += grads.at(i, j);
    EXPECT_NEAR(sum, 0.0, 1e-4);
  }
}

}  // namespace
}  // namespace qcore
