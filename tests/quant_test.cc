// Unit tests for quant/: quantizer properties, QuantizedModel invariants,
// STE calibration, and the edge/server stepping modes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "nn/composite.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/training.h"
#include "quant/quantized_model.h"
#include "quant/quantizer.h"
#include "quant/ste_calibrator.h"
#include "quant/ste_stepper.h"

namespace qcore {
namespace {

TEST(QuantizerTest, SymmetricRange) {
  Tensor t = Tensor::FromVector({4}, {-2.0f, 0.5f, 1.0f, 2.0f});
  QuantParams qp = ChooseSymmetricParams(t, 4);
  EXPECT_EQ(qp.qmax, 7);
  EXPECT_EQ(qp.qmin, -7);
  EXPECT_FLOAT_EQ(qp.scale, 2.0f / 7.0f);
  EXPECT_EQ(qp.num_levels(), 15);
}

TEST(QuantizerTest, ZeroTensorHasUnitScale) {
  Tensor t = Tensor::Zeros({5});
  QuantParams qp = ChooseSymmetricParams(t, 8);
  EXPECT_FLOAT_EQ(qp.scale, 1.0f);
}

TEST(QuantizerTest, ZeroIsExactlyRepresentable) {
  Tensor t = Tensor::FromVector({3}, {-1.0f, 0.0f, 1.0f});
  for (int bits : {2, 4, 8}) {
    QuantParams qp = ChooseSymmetricParams(t, bits);
    EXPECT_EQ(QuantizeValue(0.0f, qp), 0);
    EXPECT_FLOAT_EQ(DequantizeValue(0, qp), 0.0f);
  }
}

TEST(QuantizerTest, ClampsOutOfRange) {
  Tensor t = Tensor::FromVector({2}, {-1.0f, 1.0f});
  QuantParams qp = ChooseSymmetricParams(t, 2);  // qmax = 1
  EXPECT_EQ(QuantizeValue(100.0f, qp), 1);
  EXPECT_EQ(QuantizeValue(-100.0f, qp), -1);
}

// Property sweep over bit widths: round-trip error bounded by scale/2 for
// in-range values; codes within [qmin, qmax]; fake-quantize idempotent.
class QuantizerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerPropertyTest, RoundTripBoundsAndIdempotence) {
  const int bits = GetParam();
  Rng rng(40 + bits);
  Tensor t = Tensor::Randn({500}, &rng, 1.5f);
  QuantParams qp = ChooseSymmetricParams(t, bits);
  std::vector<int32_t> codes = QuantizeToCodes(t, qp);
  for (int32_t c : codes) {
    EXPECT_GE(c, qp.qmin);
    EXPECT_LE(c, qp.qmax);
  }
  Tensor back = DequantizeCodes(codes, qp, t.shape());
  for (int64_t i = 0; i < t.size(); ++i) {
    EXPECT_LE(std::fabs(back[i] - t[i]), qp.scale / 2.0f + 1e-6f);
  }
  Tensor fq = FakeQuantize(t, qp);
  Tensor fq2 = FakeQuantize(fq, qp);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(fq[i], fq2[i]);
  // MSE shrinks as bits grow (checked across instantiations by monotone
  // bound): for b bits, MSE <= (scale/2)^2.
  EXPECT_LE(QuantizationMse(t, qp), (qp.scale / 2.0) * (qp.scale / 2.0) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantizerPropertyTest,
                         ::testing::Values(2, 3, 4, 6, 8, 12));

TEST(QuantizerTest, MoreBitsLessError) {
  Rng rng(55);
  Tensor t = Tensor::Randn({2000}, &rng);
  double prev = 1e9;
  for (int bits : {2, 4, 8}) {
    const double mse = QuantizationMse(t, ChooseSymmetricParams(t, bits));
    EXPECT_LT(mse, prev);
    prev = mse;
  }
}

std::unique_ptr<Sequential> TinyModel(Rng* rng) {
  auto m = std::make_unique<Sequential>();
  m->Add(std::make_unique<Dense>(4, 8, rng));
  m->Add(std::make_unique<Relu>());
  m->Add(std::make_unique<Dense>(8, 3, rng));
  return m;
}

TEST(QuantizedModelTest, QuantizesOnlyWeights) {
  Rng rng(60);
  auto fp = TinyModel(&rng);
  QuantizedModel qm(*fp, 4);
  EXPECT_EQ(qm.num_quantized(), 2);  // two Dense weights, not biases
  for (int i = 0; i < qm.num_quantized(); ++i) {
    EXPECT_GE(qm.quantized(i).param->value.ndim(), 2);
  }
}

TEST(QuantizedModelTest, ParamsEqualDequantizedCodes) {
  Rng rng(61);
  auto fp = TinyModel(&rng);
  QuantizedModel qm(*fp, 4);
  for (int i = 0; i < qm.num_quantized(); ++i) {
    const auto& qt = qm.quantized(i);
    for (size_t e = 0; e < qt.codes.size(); ++e) {
      EXPECT_FLOAT_EQ(qt.param->value[static_cast<int64_t>(e)],
                      DequantizeValue(qt.codes[e], qt.qp));
    }
  }
}

TEST(QuantizedModelTest, ApplyCodeDeltaClampsAtBounds) {
  Rng rng(62);
  auto fp = TinyModel(&rng);
  QuantizedModel qm(*fp, 2);  // codes in [-1, 1]
  auto& qt = qm.quantized(0);
  qt.codes[0] = 1;
  qm.SyncParamFromCodes(0);
  qm.ApplyCodeDelta(0, 0, 1);  // must clamp
  EXPECT_EQ(qm.quantized(0).codes[0], 1);
  qm.ApplyCodeDelta(0, 0, -1);
  EXPECT_EQ(qm.quantized(0).codes[0], 0);
  EXPECT_FLOAT_EQ(qm.quantized(0).param->value[0], 0.0f);
}

TEST(QuantizedModelTest, DropShadowsBlocksSte) {
  Rng rng(63);
  auto fp = TinyModel(&rng);
  QuantizedModel qm(*fp, 4);
  EXPECT_TRUE(qm.has_shadows());
  qm.DropShadows();
  EXPECT_FALSE(qm.has_shadows());
}

TEST(QuantizedModelTest, SizeBitsAccounting) {
  Rng rng(64);
  auto fp = TinyModel(&rng);
  QuantizedModel qm(*fp, 4);
  const int64_t quantized = qm.TotalCodeCount();
  EXPECT_EQ(quantized, 4 * 8 + 8 * 3);
  const int64_t total = CountParams(qm.model());
  EXPECT_EQ(qm.SizeBits(),
            static_cast<uint64_t>(quantized) * 4 +
                static_cast<uint64_t>(total - quantized) * 32);
  // 4-bit model is much smaller than the FP32 model.
  EXPECT_LT(qm.SizeBits(), static_cast<uint64_t>(total) * 32 / 2);
}

TEST(QuantizedModelTest, CloneIsIndependent) {
  Rng rng(65);
  auto fp = TinyModel(&rng);
  QuantizedModel qm(*fp, 4);
  auto copy = qm.Clone();
  Tensor x = Tensor::Randn({3, 4}, &rng);
  Tensor y1 = qm.Forward(x);
  Tensor y2 = copy->Forward(x);
  for (int64_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
  copy->ApplyCodeDelta(0, 0, copy->quantized(0).codes[0] < 0 ? 1 : -1);
  Tensor y3 = qm.Forward(x);
  for (int64_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y3[i]);
}

TEST(QuantizedModelTest, SaveLoadRoundTrip) {
  Rng rng(66);
  auto fp = TinyModel(&rng);
  QuantizedModel qm(*fp, 4);
  const std::string path = "/tmp/qcore_qm_test.bin";
  ASSERT_TRUE(qm.Save(path).ok());

  Rng rng2(1234);
  auto fp2 = TinyModel(&rng2);
  QuantizedModel other(*fp2, 4);
  ASSERT_TRUE(other.Load(path).ok());
  Tensor x = Tensor::Randn({5, 4}, &rng);
  Tensor y1 = qm.Forward(x);
  Tensor y2 = other.Forward(x);
  for (int64_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
  std::remove(path.c_str());
}

TEST(QuantizedModelTest, LoadRejectsWrongBits) {
  Rng rng(67);
  auto fp = TinyModel(&rng);
  QuantizedModel qm(*fp, 4);
  const std::string path = "/tmp/qcore_qm_bits_test.bin";
  ASSERT_TRUE(qm.Save(path).ok());
  QuantizedModel other(*fp, 8);
  EXPECT_FALSE(other.Load(path).ok());
  std::remove(path.c_str());
}

// A tiny separable problem for calibration tests.
struct Problem {
  Tensor x;
  std::vector<int> y;
};

Problem MakeProblem(Rng* rng, int n = 120) {
  Problem p;
  p.x = Tensor({n, 4});
  p.y.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const int cls = i % 3;
    for (int64_t j = 0; j < 4; ++j) {
      p.x.at(i, j) = static_cast<float>(
          rng->NextGaussian(j == cls ? 2.0 : -0.5, 0.6));
    }
    p.y[static_cast<size_t>(i)] = cls;
  }
  return p;
}

TEST(SteCalibratorTest, ReducesLossAndRecoversAccuracy) {
  Rng rng(70);
  auto fp = TinyModel(&rng);
  Problem p = MakeProblem(&rng);
  TrainOptions topt;
  topt.epochs = 15;
  topt.sgd.lr = 0.05f;
  TrainClassifier(fp.get(), p.x, p.y, topt, &rng);
  const float fp_acc = EvaluateAccuracy(fp.get(), p.x, p.y);
  ASSERT_GT(fp_acc, 0.9f);

  QuantizedModel qm(*fp, 2);  // 2-bit destroys accuracy pre-calibration
  SteOptions sopt;
  sopt.epochs = 25;
  sopt.sgd.lr = 0.02f;
  const float post_loss = SteCalibrate(&qm, p.x, p.y, sopt, &rng);
  EXPECT_LT(post_loss, 1.0f);
  EXPECT_GT(EvaluateAccuracy(qm.model(), p.x, p.y), 0.7f);
}

TEST(SteCalibratorTest, ObserverSeesCodeDeltas) {
  Rng rng(71);
  auto fp = TinyModel(&rng);
  Problem p = MakeProblem(&rng);
  QuantizedModel qm(*fp, 4);
  int steps = 0;
  int64_t nonzero_deltas = 0;
  SteOptions sopt;
  sopt.epochs = 5;
  sopt.sgd.lr = 0.1f;
  SteCalibrate(&qm, p.x, p.y, sopt, &rng, [&](const SteStepInfo& info) {
    ++steps;
    ASSERT_EQ(info.prev_codes->size(),
              static_cast<size_t>(info.model->num_quantized()));
    for (int t = 0; t < info.model->num_quantized(); ++t) {
      const auto& qt = info.model->quantized(t);
      const auto& prev = (*info.prev_codes)[static_cast<size_t>(t)];
      ASSERT_EQ(prev.size(), qt.codes.size());
      for (size_t e = 0; e < prev.size(); ++e) {
        if (prev[e] != qt.codes[e]) ++nonzero_deltas;
      }
    }
  });
  EXPECT_GT(steps, 0);
  EXPECT_GT(nonzero_deltas, 0);
}

TEST(SteStepperTest, EdgeModeFreezesAuxiliaryParams) {
  Rng rng(72);
  auto fp = TinyModel(&rng);
  Problem p = MakeProblem(&rng);
  QuantizedModel qm(*fp, 4);
  SteStepper stepper(&qm, {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 0},
                     SteMode::kEdgeRequantize);
  // Snapshot biases (non-quantized).
  std::vector<Tensor> biases;
  for (Parameter* param : qm.model()->Params()) {
    if (param->value.ndim() < 2) biases.push_back(param->value);
  }
  SoftmaxCrossEntropy ce;
  for (int step = 0; step < 10; ++step) {
    Tensor logits = stepper.ForwardTrain(p.x);
    ce.Forward(logits, p.y);
    stepper.Backward(ce.Backward());
    stepper.Step();
  }
  size_t b = 0;
  for (Parameter* param : qm.model()->Params()) {
    if (param->value.ndim() >= 2) continue;
    for (int64_t i = 0; i < param->value.size(); ++i) {
      EXPECT_FLOAT_EQ(param->value[i], biases[b][i]);
    }
    ++b;
  }
}

TEST(SteStepperTest, EdgeModeRoundsAwayTinyUpdates) {
  Rng rng(73);
  auto fp = TinyModel(&rng);
  QuantizedModel qm(*fp, 4);
  const std::vector<int32_t> before = qm.quantized(0).codes;
  SteStepper stepper(&qm, {.lr = 1e-6f, .momentum = 0.0f, .weight_decay = 0},
                     SteMode::kEdgeRequantize);
  Problem p = MakeProblem(&rng, 30);
  SoftmaxCrossEntropy ce;
  Tensor logits = stepper.ForwardTrain(p.x);
  ce.Forward(logits, p.y);
  stepper.Backward(ce.Backward());
  stepper.Step();
  // With a vanishing learning rate and no momentum accumulation across
  // steps, every update rounds back to the same code.
  EXPECT_EQ(qm.quantized(0).codes, before);
}

TEST(SteStepperTest, ServerModeAccumulatesTinyUpdates) {
  Rng rng(74);
  auto fp = TinyModel(&rng);
  QuantizedModel qm(*fp, 4);
  SteStepper stepper(&qm, {.lr = 0.02f, .momentum = 0.0f, .weight_decay = 0},
                     SteMode::kServerShadow);
  Problem p = MakeProblem(&rng, 60);
  SoftmaxCrossEntropy ce;
  const std::vector<int32_t> before = qm.quantized(0).codes;
  for (int step = 0; step < 50; ++step) {
    Tensor logits = stepper.ForwardTrain(p.x);
    ce.Forward(logits, p.y);
    stepper.Backward(ce.Backward());
    stepper.Step();
  }
  EXPECT_NE(qm.quantized(0).codes, before);
}

}  // namespace
}  // namespace qcore
