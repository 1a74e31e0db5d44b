// Cross-module integration tests: determinism of the whole pipeline from a
// seed, serialization across the server/edge boundary, coexistence of QCore
// and baselines on one scenario, and failure injection on the persistence
// paths.
#include <gtest/gtest.h>

#include <cstdio>

#include "baselines/continual_learner.h"
#include "core/pipeline.h"
#include "data/har_generator.h"
#include "models/model_zoo.h"
#include "nn/training.h"

namespace qcore {
namespace {

HarSpec TinySpec() {
  HarSpec spec = HarSpec::Usc();
  spec.num_classes = 5;
  spec.channels = 3;
  spec.length = 24;
  spec.train_per_class = 8;
  spec.test_per_class = 4;
  return spec;
}

PipelineOptions TinyPipelineOptions() {
  PipelineOptions opts;
  opts.bits = 4;
  opts.build.size = 15;
  opts.build.train.epochs = 8;
  opts.build.train.sgd.lr = 0.03f;
  opts.bf_train.ste.epochs = 10;
  opts.bf_train.ste.batch_size = 16;
  opts.bf_train.augment_episodes = 1;
  opts.stream_batches = 4;
  return opts;
}

TEST(IntegrationTest, PipelineIsDeterministicFromSeed) {
  HarSpec spec = TinySpec();
  HarDomain source = MakeHarDomain(spec, 0);
  HarDomain target = MakeHarDomain(spec, 1);
  PipelineOptions opts = TinyPipelineOptions();

  auto run = [&]() {
    Rng rng(31337);
    auto model = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng);
    return RunQCorePipeline(model.get(), source.train, source.test,
                            target.train, target.test, opts, &rng);
  };
  PipelineResult a = run();
  PipelineResult b = run();
  EXPECT_EQ(a.qcore_indices, b.qcore_indices);
  ASSERT_EQ(a.per_batch.size(), b.per_batch.size());
  for (size_t i = 0; i < a.per_batch.size(); ++i) {
    EXPECT_FLOAT_EQ(a.per_batch[i].accuracy, b.per_batch[i].accuracy);
  }
  EXPECT_FLOAT_EQ(a.average_accuracy, b.average_accuracy);
}

TEST(IntegrationTest, DifferentSeedsGiveDifferentSubsets) {
  HarSpec spec = TinySpec();
  HarDomain source = MakeHarDomain(spec, 0);
  QCoreBuildOptions build;
  build.size = 15;
  build.train.epochs = 6;

  Rng rng_a(1);
  auto model_a = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng_a);
  auto res_a = BuildQCore(model_a.get(), source.train, build, &rng_a);
  Rng rng_b(2);
  auto model_b = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng_b);
  auto res_b = BuildQCore(model_b.get(), source.train, build, &rng_b);
  EXPECT_NE(res_a.indices, res_b.indices);
}

TEST(IntegrationTest, QuantizedModelSurvivesServerEdgeRoundTrip) {
  // Train + calibrate server-side, persist, reload into a fresh process-like
  // context, and verify the edge model classifies identically.
  HarSpec spec = TinySpec();
  HarDomain source = MakeHarDomain(spec, 0);
  Rng rng(55);
  auto model = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng);
  TrainOptions topt;
  topt.epochs = 8;
  topt.sgd.lr = 0.03f;
  TrainClassifier(model.get(), source.train.x(), source.train.labels(), topt,
                  &rng);
  QuantizedModel qm(*model, 4);
  SteOptions sopt;
  sopt.epochs = 8;
  SteCalibrate(&qm, source.train.x(), source.train.labels(), sopt, &rng);

  const std::string path = "/tmp/qcore_integration_roundtrip.bin";
  ASSERT_TRUE(qm.Save(path).ok());

  Rng rng2(999);  // different init — must be fully overwritten by Load
  auto arch = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng2);
  QuantizedModel edge(*arch, 4);
  ASSERT_TRUE(edge.Load(path).ok());
  edge.DropShadows();

  std::vector<int> server_preds = Predict(qm.model(), source.test.x());
  std::vector<int> edge_preds = Predict(edge.model(), source.test.x());
  EXPECT_EQ(server_preds, edge_preds);
  std::remove(path.c_str());
}

TEST(IntegrationTest, SaveToUnwritablePathFailsCleanly) {
  HarSpec spec = TinySpec();
  Rng rng(56);
  auto model = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng);
  QuantizedModel qm(*model, 4);
  Status s = qm.Save("/nonexistent_dir/model.bin");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(IntegrationTest, LoadTruncatedFileFailsCleanly) {
  HarSpec spec = TinySpec();
  Rng rng(57);
  auto model = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng);
  QuantizedModel qm(*model, 4);
  const std::string path = "/tmp/qcore_truncated.bin";
  ASSERT_TRUE(qm.Save(path).ok());
  // Truncate the file to half its size.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  Status s = qm.Load(path);
  EXPECT_FALSE(s.ok());
  std::remove(path.c_str());
}

TEST(IntegrationTest, QCoreAndBaselineShareTrainedModelConsistently) {
  // Both method families must start from the same trained FP model and the
  // same initial accuracy; the continual phase is where they diverge.
  HarSpec spec = TinySpec();
  HarDomain source = MakeHarDomain(spec, 0);
  HarDomain target = MakeHarDomain(spec, 1);
  Rng rng(58);
  auto model = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng);
  QCoreBuildOptions build;
  build.size = 15;
  build.train.epochs = 10;
  build.train.sgd.lr = 0.03f;
  auto res = BuildQCore(model.get(), source.train, build, &rng);

  QuantizedModel qcore_qm(*model, 4);
  QuantizedModel baseline_qm(*model, 4);
  const float a = EvaluateAccuracy(qcore_qm.model(), target.test.x(),
                                   target.test.labels());
  const float b = EvaluateAccuracy(baseline_qm.model(), target.test.x(),
                                   target.test.labels());
  EXPECT_FLOAT_EQ(a, b);
}

TEST(IntegrationTest, StreamBatchesCoverTargetWithoutOverlap) {
  // The streaming protocol must partition the target exactly; a duplicated
  // or dropped example would silently bias every table.
  HarSpec spec = TinySpec();
  HarDomain target = MakeHarDomain(spec, 1);
  Rng rng(59);
  auto batches = SplitIntoStreamBatches(target.train, 4, &rng);
  std::multiset<float> seen;
  for (const auto& b : batches) {
    for (int i = 0; i < b.size(); ++i) seen.insert(b.x().at(i, 0, 0));
  }
  std::multiset<float> expected;
  for (int i = 0; i < target.train.size(); ++i) {
    expected.insert(target.train.x().at(i, 0, 0));
  }
  EXPECT_EQ(seen, expected);
}

TEST(IntegrationTest, BitWidthSweepOrdersQuantizationError) {
  // End-to-end sanity across bit-widths: pre-calibration accuracy of the
  // quantized model on the source should be weakly increasing in bits.
  HarSpec spec = TinySpec();
  HarDomain source = MakeHarDomain(spec, 0);
  Rng rng(60);
  auto model = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng);
  TrainOptions topt;
  topt.epochs = 10;
  topt.sgd.lr = 0.03f;
  TrainClassifier(model.get(), source.train.x(), source.train.labels(), topt,
                  &rng);
  const float fp_acc =
      EvaluateAccuracy(model.get(), source.test.x(), source.test.labels());
  QuantizedModel q8(*model, 8);
  QuantizedModel q2(*model, 2);
  const float acc8 =
      EvaluateAccuracy(q8.model(), source.test.x(), source.test.labels());
  const float acc2 =
      EvaluateAccuracy(q2.model(), source.test.x(), source.test.labels());
  EXPECT_GE(acc8 + 0.05f, acc2);   // 8-bit at least matches 2-bit
  EXPECT_GE(fp_acc + 0.05f, acc8);  // FP at least matches 8-bit
  EXPECT_NEAR(acc8, fp_acc, 0.15f);  // 8 bits is nearly lossless
}

}  // namespace
}  // namespace qcore
