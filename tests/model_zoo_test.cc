// Tests for models/: every architecture builds, forwards with the right
// shapes, backprops, clones faithfully, can be trained a little, is
// evaluated by the fused eval plan (nn/incremental_forward) bit for bit as
// the layer-by-layer forward (LayeredEvalForward) computes it, in full and
// incrementally, and can be evaluated by several threads at once (Alg. 3's
// row-split trials, sessions sharing a net). CI runs this suite under
// ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/bitflip.h"
#include "models/model_zoo.h"
#include "nn/batchnorm.h"
#include "nn/composite.h"
#include "nn/conv.h"
#include "nn/incremental_forward.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/training.h"
#include "quant/quantized_model.h"
#include "tensor/kernels.h"
#include "tests/batchnorm_state.h"

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

// Runs `body` at kernel budgets 1, 2 and 3, with every GEMM wide enough to
// split at 2 and 3, then restores the knobs.
template <typename Body>
void AtEveryBudget(Body body) {
  const int saved_threads = kernels::gemm_threads();
  const int64_t saved_min_work = kernels::gemm_parallel_min_work();
  for (int threads : {1, 2, 3}) {
    SCOPED_TRACE("gemm_threads " + std::to_string(threads));
    kernels::set_gemm_threads(threads);
    kernels::set_gemm_parallel_min_work(threads > 1 ? 0 : saved_min_work);
    body();
  }
  kernels::set_gemm_threads(saved_threads);
  kernels::set_gemm_parallel_min_work(saved_min_work);
}

// The eval forward (the fused plan) equals the layer-by-layer forward bit
// for bit on each zoo model and on the bit-flip net's wiring (conv, ReLU,
// flatten, dense; core/bitflip.cc), 4-bit as deployed.
TEST_P(ModelZooTest, EvalForwardMatchesLayeredForward) {
  Rng rng(6);
  auto model = Build(GetParam(), &rng);
  const Tensor x = InputFor(GetParam(), &rng, /*n=*/16);
  MoveBatchNormState(model.get(), &rng);
  QuantizedModel qm(*model, 4);
  Sequential bf_net;
  bf_net.Add(std::make_unique<Conv1d>(1, 4, 3, 1, 1, &rng));
  bf_net.Add(std::make_unique<Relu>());
  bf_net.Add(std::make_unique<Flatten>());
  bf_net.Add(std::make_unique<Dense>(4 * kBitFlipFeatureDim, 3, &rng));
  QuantizedModel bf_qm(bf_net, 4);
  const Tensor features = Tensor::Randn({40, 1, kBitFlipFeatureDim}, &rng);
  // The logits come through a pool that sums in double, which can absorb
  // a one-ulp change before it, so each of the root's layers is also
  // compared on its own input.
  std::vector<Layer*> layers;
  qm.model()->ForEachChild([&](Layer* layer) { layers.push_back(layer); });
  AtEveryBudget([&] {
    EXPECT_TRUE(BitEqual(qm.model()->Forward(x, /*training=*/false),
                         LayeredEvalForward(qm.model(), x)));
    Tensor h = x;
    for (Layer* layer : layers) {
      Tensor layered = LayeredEvalForward(layer, h);
      EXPECT_TRUE(BitEqual(layer->Forward(h, /*training=*/false), layered))
          << layer->name();
      h = std::move(layered);
    }
    EXPECT_TRUE(BitEqual(bf_qm.model()->Forward(features, false),
                         LayeredEvalForward(bf_qm.model(), features)));
  });
}

// The root's layers before its global pool (or flatten), cloned.
std::unique_ptr<Sequential> TrunkBeforePool(Sequential* root) {
  auto trunk = std::make_unique<Sequential>();
  for (size_t i = 0; i < root->size(); ++i) {
    Layer* layer = root->layer(i);
    if (dynamic_cast<GlobalAvgPool*>(layer) != nullptr ||
        dynamic_cast<Flatten*>(layer) != nullptr) {
      break;
    }
    trunk->Add(layer->Clone());
  }
  return trunk;
}

// IncrementalForward against the layered forward, bit for bit, through
// random bit-flip trials on the 4-bit model: each trial changes a few codes
// of one tensor and is then kept or undone at random; an undo marks the
// tensor dirty again, as Alg. 3 does. Trial 0 changes the last tensor (the
// Dense head), trial 1 the first; after an undo the next trial takes a
// different tensor. The global pool sums in double and can absorb a
// one-ulp change before it, so the same trials also run on a walker over
// the layers before the pool (a 4-bit copy of them, with the same codes),
// checked against their layered forward.
TEST_P(ModelZooTest, IncrementalForwardMatchesLayeredForward) {
  Rng rng(6);
  auto model = Build(GetParam(), &rng);
  const Tensor x = InputFor(GetParam(), &rng, /*n=*/64);
  MoveBatchNormState(model.get(), &rng);
  const std::unique_ptr<Sequential> trunk = TrunkBeforePool(model.get());
  const Rng::State trials_from = rng.SaveState();
  AtEveryBudget([&] {
    QuantizedModel qm(*model, 4);
    QuantizedModel trunk_qm(*trunk, 4);
    const int num_tensors = qm.num_quantized();
    const int trunk_tensors = trunk_qm.num_quantized();
    ASSERT_GE(num_tensors, 2);
    ASSERT_GE(trunk_tensors, 1);
    ASSERT_LT(trunk_tensors, num_tensors);
    std::vector<Layer*> owners;
    for (int t = 0; t < num_tensors; ++t) {
      owners.push_back(qm.quantized(t).owner);
    }
    // The trunk's tensors are the model's first ones, with the same codes.
    std::vector<Layer*> trunk_owners;
    for (int t = 0; t < trunk_tensors; ++t) {
      ASSERT_EQ(trunk_qm.quantized(t).codes, qm.quantized(t).codes);
      trunk_owners.push_back(trunk_qm.quantized(t).owner);
    }
    IncrementalForward walker(qm.model(), x, owners);
    IncrementalForward trunk_walker(trunk_qm.model(), x, trunk_owners);
    auto expect_layered = [&](const std::string& what) {
      EXPECT_TRUE(BitEqual(walker.Evaluate(),
                           LayeredEvalForward(qm.model(), x)))
          << what;
      EXPECT_TRUE(BitEqual(trunk_walker.Evaluate(),
                           LayeredEvalForward(trunk_qm.model(), x)))
          << what << ", before the pool";
    };
    expect_layered("first evaluation");

    Rng trial_rng(0);  // the same trials at every budget
    trial_rng.RestoreState(trials_from);
    int previous = -1;
    bool undone = false;
    int switched_after_undo = 0;
    for (int trial = 0; trial < 60; ++trial) {
      int t = trial_rng.NextInt(0, num_tensors - 1);
      if (trial == 0) t = num_tensors - 1;
      if (trial == 1) t = 0;
      if (trial > 1 && undone) {
        t = (previous + trial_rng.NextInt(1, num_tensors - 1)) % num_tensors;
      }
      if (undone && t != previous) ++switched_after_undo;
      const bool in_trunk = t < trunk_tensors;
      const std::vector<int32_t> saved = qm.quantized(t).codes;
      std::vector<std::pair<int, int>> deltas;
      for (int k = 0; k < 4; ++k) {
        const int e =
            trial_rng.NextInt(0, static_cast<int>(saved.size()) - 1);
        deltas.push_back({e, trial_rng.NextBool(0.5) ? 3 : -3});
      }
      // Applies the trial's deltas to tensor t of a model, or restores its
      // saved codes, and marks the tensor dirty on the model's walker.
      auto change = [&](QuantizedModel* m, IncrementalForward* w, bool undo) {
        if (undo) {
          m->quantized(t).codes = saved;
          m->SyncParamFromCodes(t);
        } else {
          for (const auto& [e, delta] : deltas) m->ApplyCodeDelta(t, e, delta);
        }
        w->MarkDirty(m->quantized(t).owner);
      };
      change(&qm, &walker, /*undo=*/false);
      if (in_trunk) change(&trunk_qm, &trunk_walker, /*undo=*/false);
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
      expect_layered("trial " + std::to_string(trial) + " on tensor " +
                     std::to_string(t));
      undone = trial_rng.NextBool(0.5);
      if (undone) {
        change(&qm, &walker, /*undo=*/true);
        if (in_trunk) change(&trunk_qm, &trunk_walker, /*undo=*/true);
      }
      previous = t;
    }
    EXPECT_GT(switched_after_undo, 0);
  });
}

// The pass that opens a calibration round (the plan under the
// frozen-training formula, over as many row slices as the budget has
// threads) equals the frozen training forward it replaced on each zoo
// model, 4-bit as deployed: the logits and every quantized layer's input.
TEST_P(ModelZooTest, PoolPassMatchesFrozenTrainingForward) {
  Rng rng(11);
  auto model = Build(GetParam(), &rng);
  const Tensor x = InputFor(GetParam(), &rng, /*n=*/12);
  MoveBatchNormState(model.get(), &rng);
  QuantizedModel qm(*model, 4);
  AtEveryBudget([&] {
    ExpectPoolPassMatchesFrozenTraining(qm.model(), x,
                                        kernels::gemm_threads());
  });
}

// Eval-mode Forward writes no layer state, so two threads may run it on one
// model at once and each get exactly the single-thread logits. Conv im2col
// buffers are per thread, and ParallelConcat records its branch widths only
// in training.
TEST_P(ModelZooTest, ConcurrentEvalForwardsMatchSingleThread) {
  Rng rng(8);
  auto model = Build(GetParam(), &rng);
  const Tensor x = InputFor(GetParam(), &rng, /*n=*/16);
  MoveBatchNormState(model.get(), &rng);
  QuantizedModel qm(*model, 4);
  const Tensor want = qm.model()->Forward(x, /*training=*/false);
  constexpr int kThreads = 2;
  constexpr int kRounds = 8;
  std::vector<Tensor> got(kThreads * kRounds);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int r = 0; r < kRounds; ++r) {
        got[t * kRounds + r] = qm.model()->Forward(x, /*training=*/false);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(BitEqual(got[i], want)) << "thread " << i / kRounds
                                        << " round " << i % kRounds;
  }
}

// An Alg. 3 round with its trial rows split over two kernel threads keeps
// and rejects exactly the proposals the one-thread round does.
TEST_P(ModelZooTest, BitFlipRoundSameAtTwoThreads) {
  Rng rng(9);
  auto model = Build(GetParam(), &rng);
  const Tensor x = InputFor(GetParam(), &rng, /*n=*/48);
  std::vector<int> labels;
  for (int64_t i = 0; i < x.dim(0); ++i) labels.push_back(rng.NextInt(0, 6));
  (void)model->Forward(x, true);  // move BN running stats off their init
  BitFlipNet bf(4, &rng);
  bf.Quantize();
  BitFlipCalibrateOptions options;
  options.trial_rows = 40;
  const int saved_threads = kernels::gemm_threads();
  float loss[2];
  std::vector<std::vector<int32_t>> codes[2];
  for (int threads : {1, 2}) {
    kernels::set_gemm_threads(threads);
    QuantizedModel qm(*model, 4);
    Rng round_rng(10);
    SetBatchNormFrozen(qm.model(), true);
    (void)qm.model()->Forward(x, /*training=*/true);
    loss[threads - 1] = BitFlipIterationFromCaches(&qm, &bf, x, labels,
                                                   options, &round_rng);
    codes[threads - 1] = qm.AllCodes();
  }
  kernels::set_gemm_threads(saved_threads);
  EXPECT_NE(codes[0], QuantizedModel(*model, 4).AllCodes());  // some kept
  EXPECT_EQ(loss[1], loss[0]);
  EXPECT_EQ(codes[1], codes[0]);
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
