// Tests for the QCore core: Algorithm 1 (builder), Algorithm 2/3 (bit-flip
// network), Algorithm 4 (QCore update), and the continual driver. Uses small
// synthetic problems to keep runtimes in seconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/bitflip.h"
#include "core/continual.h"
#include "core/pipeline.h"
#include "core/qcore_builder.h"
#include "core/qcore_update.h"
#include "data/har_generator.h"
#include "models/model_zoo.h"
#include "nn/batchnorm.h"
#include "nn/loss.h"
#include "nn/training.h"
#include "quant/ste_calibrator.h"
#include "tensor/kernels.h"

namespace qcore {
namespace {

HarSpec SmallSpec() {
  HarSpec spec = HarSpec::Usc();
  spec.num_classes = 6;
  spec.channels = 4;
  spec.length = 32;
  spec.train_per_class = 10;
  spec.test_per_class = 5;
  return spec;
}

struct Fixture {
  HarSpec spec;
  HarDomain source;
  HarDomain target;
  std::unique_ptr<Sequential> model;
  Rng rng{4242};

  Fixture() : spec(SmallSpec()) {
    source = MakeHarDomain(spec, 0);
    target = MakeHarDomain(spec, 1);
    model = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng);
  }
};

QCoreBuildOptions SmallBuildOptions() {
  QCoreBuildOptions opts;
  opts.size = 18;
  opts.train.epochs = 16;
  opts.train.batch_size = 32;
  opts.train.sgd.lr = 0.03f;
  return opts;
}

TEST(QCoreBuilderTest, BuildsSubsetOfRequestedSize) {
  Fixture f;
  QCoreBuildResult res =
      BuildQCore(f.model.get(), f.source.train, SmallBuildOptions(), &f.rng);
  EXPECT_EQ(static_cast<int>(res.indices.size()), 18);
  EXPECT_EQ(res.qcore.size(), 18);
  EXPECT_EQ(res.combined_misses.size(),
            static_cast<size_t>(f.source.train.size()));
  // Per-level misses recorded for every proxy level plus full precision.
  EXPECT_EQ(res.per_level_misses.size(), 4u);  // {2, 4, 8, 32}
  EXPECT_TRUE(res.per_level_misses.count(32));
  // The FP model must have learned the source domain while building (the
  // synthetic task deliberately has boundary cases, so well below 1.0).
  EXPECT_GT(EvaluateAccuracy(f.model.get(), f.source.test.x(),
                             f.source.test.labels()),
            0.6f);
}

TEST(QCoreBuilderTest, LowerBitProxiesMissMore) {
  Fixture f;
  QCoreBuildResult res =
      BuildQCore(f.model.get(), f.source.train, SmallBuildOptions(), &f.rng);
  auto total = [&](int bits) {
    int64_t sum = 0;
    for (int m : res.per_level_misses.at(bits)) sum += m;
    return sum;
  };
  // 2-bit proxies are more unstable than 8-bit ones and the full-precision
  // model (paper Fig. 8). 4-bit vs 32-bit can tie on a fixture this small,
  // so only the extreme comparison is asserted.
  EXPECT_GE(total(2), total(8));
  EXPECT_GE(total(2), total(32));
}

TEST(QCoreBuilderTest, StrategiesProduceValidSubsets) {
  Fixture f;
  for (SubsetStrategy strategy :
       {SubsetStrategy::kCombined, SubsetStrategy::kSingleLevel,
        SubsetStrategy::kFullPrecision, SubsetStrategy::kRandom}) {
    auto model = MakeOmniScaleCnn(f.spec.channels, f.spec.num_classes, &f.rng);
    QCoreBuildOptions opts = SmallBuildOptions();
    opts.strategy = strategy;
    opts.single_level_index = 1;  // 4-bit
    QCoreBuildResult res =
        BuildQCore(model.get(), f.source.train, opts, &f.rng);
    EXPECT_EQ(res.qcore.size(), opts.size);
  }
}

TEST(QCoreBuilderTest, InfoLossSmallForStratifiedSampling) {
  Fixture f;
  QCoreBuildResult res =
      BuildQCore(f.model.get(), f.source.train, SmallBuildOptions(), &f.rng);
  EXPECT_LE(res.info_loss, 1.0);
}

struct CalibratedFixture : Fixture {
  QCoreBuildResult build;
  std::unique_ptr<QuantizedModel> qm;
  std::unique_ptr<BitFlipNet> bf;

  explicit CalibratedFixture(int bits = 4) {
    build = BuildQCore(model.get(), source.train, SmallBuildOptions(), &rng);
    qm = std::make_unique<QuantizedModel>(*model, bits);
    BitFlipTrainOptions bfopt;
    bfopt.ste.epochs = 15;
    bfopt.ste.batch_size = 16;
    bfopt.augment_episodes = 2;
    bf = std::make_unique<BitFlipNet>(
        TrainBitFlipNet(qm.get(), build.qcore, bfopt, &rng));
    qm->DropShadows();
  }
};

TEST(BitFlipTest, FeatureMatrixShape) {
  CalibratedFixture f;
  SetBatchNormFrozen(f.qm->model(), true);
  (void)f.qm->model()->Forward(f.build.qcore.x(), /*training=*/true);
  for (int t = 0; t < f.qm->num_quantized(); ++t) {
    Tensor features = ComputeBitFlipFeatures(f.qm->quantized(t), nullptr);
    EXPECT_EQ(features.dim(0),
              static_cast<int64_t>(f.qm->quantized(t).codes.size()));
    EXPECT_EQ(features.dim(1), kBitFlipFeatureDim);
  }
}

TEST(BitFlipTest, NetLearnsSyntheticRule) {
  // Rule: label = sign of the first feature, mapped to {0, 1, 2}.
  Rng rng(7);
  const int n = 3000;
  Tensor features({n, kBitFlipFeatureDim});
  std::vector<int> labels(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < kBitFlipFeatureDim; ++j) {
      features.at(i, j) = static_cast<float>(rng.NextGaussian());
    }
    const float v = features.at(i, 0);
    labels[static_cast<size_t>(i)] = v < -0.4f ? 0 : (v > 0.4f ? 2 : 1);
  }
  BitFlipNet bf(8, &rng);
  TrainOptions topt;
  topt.epochs = 20;
  topt.batch_size = 64;
  topt.sgd.lr = 0.05f;
  bf.Train(features, labels, topt, &rng);
  std::vector<int> deltas;
  std::vector<float> conf;
  bf.Predict(features, &deltas, &conf);
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    if (deltas[static_cast<size_t>(i)] + 1 == labels[static_cast<size_t>(i)]) {
      ++correct;
    }
  }
  EXPECT_GT(static_cast<float>(correct) / n, 0.8f);
}

TEST(BitFlipTest, QuantizedNetStillPredicts) {
  Rng rng(8);
  BitFlipNet bf(4, &rng);
  Tensor features = Tensor::Randn({100, kBitFlipFeatureDim}, &rng);
  std::vector<int> labels(100, 1);
  TrainOptions topt;
  topt.epochs = 3;
  bf.Train(features, labels, topt, &rng);
  EXPECT_FALSE(bf.is_quantized());
  bf.Quantize();
  EXPECT_TRUE(bf.is_quantized());
  std::vector<int> deltas;
  std::vector<float> conf;
  bf.Predict(features, &deltas, &conf);
  EXPECT_EQ(deltas.size(), 100u);
  for (float c : conf) {
    EXPECT_GE(c, 0.0f);
    EXPECT_LE(c, 1.0f);
  }
  for (int d : deltas) {
    EXPECT_GE(d, -1);
    EXPECT_LE(d, 1);
  }
}

TEST(BitFlipTest, NetIsTiny) {
  Rng rng(9);
  BitFlipNet bf(4, &rng);
  EXPECT_LT(bf.ParamCount(), 200);
}

TEST(BitFlipTest, CalibrateNeverIncreasesPoolLoss) {
  CalibratedFixture f;
  Dataset pool = MakeUpdatePool(f.build.qcore,
                                SplitIntoStreamBatches(f.target.train, 10,
                                                       &f.rng)[0],
                                &f.rng);
  SoftmaxCrossEntropy ce;
  Tensor logits0 = f.qm->model()->Forward(pool.x(), false);
  const float loss_before = ce.Forward(logits0, pool.labels());
  // A ContinualDriver whose QCore is the pool, stepped with an empty batch,
  // calibrates on exactly the pool.
  ContinualOptions copt;
  copt.iterations = 3;
  copt.use_qcore_update = false;
  copt.bf.trial_rows = 0;  // full-pool validation => monotone by construction
  ContinualDriver driver(f.qm.get(), f.bf.get(), pool, copt, &f.rng);
  driver.ProcessBatch(Dataset(), Dataset());
  Tensor logits1 = f.qm->model()->Forward(pool.x(), false);
  const float loss_after = ce.Forward(logits1, pool.labels());
  EXPECT_LE(loss_after, loss_before + 1e-5f);
}

TEST(BitFlipTest, CalibrationAdaptsToShiftedDomain) {
  CalibratedFixture f;
  Dataset pool = MakeUpdatePool(f.build.qcore, f.target.train.Subset([&] {
    std::vector<int> idx;
    for (int i = 0; i < 30; ++i) idx.push_back(i);
    return idx;
  }()),
                                &f.rng);
  const float before = EvaluateAccuracy(f.qm->model(), f.target.test.x(),
                                        f.target.test.labels());
  ContinualOptions copt;
  copt.iterations = 6;
  copt.use_qcore_update = false;
  ContinualDriver driver(f.qm.get(), f.bf.get(), pool, copt, &f.rng);
  driver.ProcessBatch(Dataset(), Dataset());
  const float after = EvaluateAccuracy(f.qm->model(), f.target.test.x(),
                                       f.target.test.labels());
  EXPECT_GT(after, before);
}

// BitFlipIterationFromCaches returns the loss of the model it leaves behind:
// exactly (==) the cross-entropy of a fresh eval forward over the same rows,
// whether the rows are the whole pool because trial_rows is 0 or because it
// exceeds the pool. A missed dirty mark in the per-trial re-evaluation, or a
// rejected trial whose outputs are reused, breaks the equality.
TEST(BitFlipTest, IterationReturnsTheModelsLoss) {
  Rng rng(31);
  std::vector<std::pair<std::unique_ptr<Sequential>, Tensor>> cases;
  cases.emplace_back(MakeInceptionTime(4, 6, &rng),
                     Tensor::Randn({40, 4, 32}, &rng));
  cases.emplace_back(MakeResNetTiny(3, 6, &rng),
                     Tensor::Randn({40, 3, 12, 12}, &rng));
  for (auto& [model, x] : cases) {
    std::vector<int> labels;
    for (int64_t i = 0; i < x.dim(0); ++i) labels.push_back(rng.NextInt(0, 5));
    (void)model->Forward(x, /*training=*/true);  // BN stats off their init
    for (int trial_rows : {0, 1000}) {
      SCOPED_TRACE(model->name() + " trial_rows=" +
                   std::to_string(trial_rows));
      QuantizedModel qm(*model, 4);
      BitFlipNet bf(4, &rng);
      bf.Quantize();
      BitFlipCalibrateOptions options;
      options.trial_rows = trial_rows;
      SoftmaxCrossEntropy ce;
      const float initial = ce.Forward(qm.model()->Forward(x, false), labels);
      float returned = initial;
      SetBatchNormFrozen(qm.model(), true);
      for (int it = 0; it < 3; ++it) {
        (void)qm.model()->Forward(x, /*training=*/true);
        returned = BitFlipIterationFromCaches(&qm, &bf, x, labels, options,
                                              &rng);
        EXPECT_EQ(returned,
                  ce.Forward(qm.model()->Forward(x, false), labels));
      }
      SetBatchNormFrozen(qm.model(), false);
      EXPECT_LT(returned, initial);  // some trials were kept
    }
  }
}

// What a calibration step leaves behind: FNV-1a over the model's codes and
// the QCore's rows and labels.
uint64_t StepHash(const QuantizedModel& qm, const Dataset& qcore) {
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](const void* data, size_t bytes) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  for (const std::vector<int32_t>& codes : qm.AllCodes()) {
    mix(codes.data(), codes.size() * sizeof(int32_t));
  }
  mix(qcore.x().data(), static_cast<size_t>(qcore.x().size()) * sizeof(float));
  mix(qcore.labels().data(), qcore.labels().size() * sizeof(int));
  return h;
}

Dataset RandomRows(const std::vector<int64_t>& row_shape, int rows,
                   int classes, Rng* rng) {
  std::vector<int64_t> shape = {rows};
  shape.insert(shape.end(), row_shape.begin(), row_shape.end());
  std::vector<int> labels;
  for (int i = 0; i < rows; ++i) labels.push_back(rng->NextInt(0, classes - 1));
  return Dataset(Tensor::Randn(shape, rng), std::move(labels), classes);
}

struct StepRecord {
  std::vector<uint64_t> hashes;   // StepHash after each step
  std::vector<uint64_t> madds;    // GEMM multiply-adds of each step
  std::vector<uint64_t> lowered;  // conv-input floats padded in each step
  std::vector<uint64_t> calls;    // GEMM calls of each step
};

// kSteps ContinualDriver steps of one deployed 4-bit model at a kernel
// thread budget. The pool is 80 rows, so every Alg. 3 round validates on a
// 64-row sample.
constexpr int kSteps = 8;
StepRecord RunCalibrationSteps(const Sequential& fp,
                               const std::vector<int64_t>& row_shape,
                               int threads) {
  const int saved_threads = kernels::gemm_threads();
  kernels::set_gemm_threads(threads);
  Rng rng(2024);
  QuantizedModel qm(fp, 4);
  qm.DropShadows();
  BitFlipNet bf(4, &rng);
  bf.Quantize();
  ContinualDriver driver(&qm, &bf, RandomRows(row_shape, 30, 6, &rng),
                         ContinualOptions{}, &rng);
  StepRecord record;
  for (int step = 0; step < kSteps; ++step) {
    const Dataset batch = RandomRows(row_shape, 40, 6, &rng);
    const Dataset slice = RandomRows(row_shape, 20, 6, &rng);
    const kernels::GemmDispatchCounters before =
        kernels::ThreadGemmDispatchCounters();
    driver.ProcessBatch(batch, slice);
    const kernels::GemmDispatchCounters work =
        kernels::ThreadGemmDispatchCounters() - before;
    record.madds.push_back(work.madds);
    record.lowered.push_back(work.lowered_floats);
    record.calls.push_back(work.wide + work.narrow);
    record.hashes.push_back(StepHash(qm, driver.qcore()));
  }
  kernels::set_gemm_threads(saved_threads);
  return record;
}

// Alg. 3 splits each trial's rows over the free kernel threads of the
// budget. The split must change no decision: after every step the codes and
// the QCore are the same at 1, 2 and 3 threads (3 cuts 64 rows unevenly on
// a host with 3 or more CPUs, none busy here), on a Conv1d family with
// parallel branches and a Conv2d family with residuals. Helper threads'
// GEMMs and padded conv inputs are credited to the caller, so a step's
// multiply-adds and lowered floats — its deterministic work — are the same
// at every budget too, and stay under ceilings pinned at the single-thread
// counts. GEMM calls depend on the split (each slice runs its own), so
// their ceiling holds at one thread, where they are deterministic. A change
// that removes work lowers a ceiling; none may raise one.
TEST(BitFlipTest, RowSplitTrialsExactAtEveryThreadBudget) {
  struct Family {
    const char* name;
    std::unique_ptr<Sequential> model;
    std::vector<int64_t> row_shape;
    uint64_t madds_ceiling;
    uint64_t lowered_ceiling;
    uint64_t calls_ceiling;
  };
  Rng rng(17);
  std::vector<Family> families;
  families.push_back({"InceptionTime", MakeInceptionTime(4, 6, &rng),
                      {4, 16}, 214491328, 3812016, 64163});
  families.push_back({"ResNetTiny", MakeResNetTiny(3, 6, &rng), {3, 8, 8},
                      453093376, 4611056, 18781});
  for (Family& f : families) {
    SCOPED_TRACE(f.name);
    // Move BatchNorm's running statistics off their initial values.
    (void)f.model->Forward(RandomRows(f.row_shape, 32, 6, &rng).x(),
                           /*training=*/true);
    const StepRecord one = RunCalibrationSteps(*f.model, f.row_shape, 1);
    EXPECT_LE(*std::max_element(one.madds.begin(), one.madds.end()),
              f.madds_ceiling);
    EXPECT_LE(*std::max_element(one.lowered.begin(), one.lowered.end()),
              f.lowered_ceiling);
    EXPECT_LE(*std::max_element(one.calls.begin(), one.calls.end()),
              f.calls_ceiling);
    for (int threads : {2, 3}) {
      SCOPED_TRACE("gemm_threads " + std::to_string(threads));
      const StepRecord split =
          RunCalibrationSteps(*f.model, f.row_shape, threads);
      EXPECT_EQ(split.hashes, one.hashes);
      EXPECT_EQ(split.madds, one.madds);
      EXPECT_EQ(split.lowered, one.lowered);
    }
  }
}

TEST(QCoreUpdateTest, PoolScalesQCoreUpToBatch) {
  Rng rng(10);
  Tensor x = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Dataset qcore(std::move(x), {0, 1}, 2);
  Tensor bx({10, 2});
  Dataset batch(std::move(bx), std::vector<int>(10, 0), 2);
  Dataset pool = MakeUpdatePool(qcore, batch, &rng);
  EXPECT_EQ(pool.size(), 20);  // 10 replicated + 10 stream
}

TEST(QCoreUpdateTest, PoolSubsamplesLargeQCoreToBatch) {
  Rng rng(12);
  Tensor x({40, 2});
  Dataset qcore(std::move(x), std::vector<int>(40, 0), 2);
  Tensor bx({10, 2});
  Dataset batch(std::move(bx), std::vector<int>(10, 1), 2);
  Dataset pool = MakeUpdatePool(qcore, batch, &rng);
  EXPECT_EQ(pool.size(), 20);  // balanced: 10 sampled + 10 stream
}

TEST(QCoreUpdateTest, ResampleLargerThanPoolDuplicates) {
  Rng rng(13);
  Tensor x({10, 2});
  Dataset pool(std::move(x), std::vector<int>(10, 0), 2);
  std::vector<int> misses(10, 1);
  Dataset big = ResampleQCore(pool, misses, 25, &rng);
  EXPECT_EQ(big.size(), 25);
}

TEST(QCoreUpdateTest, ResampleKeepsSize) {
  Rng rng(11);
  Tensor x({40, 3});
  Dataset pool(std::move(x), std::vector<int>(40, 0), 2);
  std::vector<int> misses(40, 0);
  for (int i = 0; i < 10; ++i) misses[static_cast<size_t>(i)] = 2;
  Dataset next = ResampleQCore(pool, misses, 8, &rng);
  EXPECT_EQ(next.size(), 8);
}

TEST(ContinualDriverTest, NoBfKeepsModelFrozen) {
  CalibratedFixture f;
  ContinualOptions opts;
  opts.use_bitflip = false;
  const std::vector<int32_t> codes_before = f.qm->quantized(0).codes;
  ContinualDriver driver(f.qm.get(), nullptr, f.build.qcore, opts, &f.rng);
  Dataset batch = SplitIntoStreamBatches(f.target.train, 10, &f.rng)[0];
  Dataset slice = SplitIntoStreamBatches(f.target.test, 10, &f.rng)[0];
  driver.ProcessBatch(batch, slice);
  EXPECT_EQ(f.qm->quantized(0).codes, codes_before);
}

TEST(ContinualDriverTest, NoUpdateKeepsQCoreContents) {
  CalibratedFixture f;
  ContinualOptions opts;
  opts.use_qcore_update = false;
  ContinualDriver driver(f.qm.get(), f.bf.get(), f.build.qcore, opts,
                         &f.rng);
  Dataset batch = SplitIntoStreamBatches(f.target.train, 10, &f.rng)[0];
  driver.ProcessBatch(batch, Dataset());
  EXPECT_EQ(driver.qcore().size(), f.build.qcore.size());
  for (int64_t i = 0; i < f.build.qcore.x().size(); ++i) {
    EXPECT_FLOAT_EQ(driver.qcore().x()[i], f.build.qcore.x()[i]);
  }
}

// The bytes of each row of `d`.
std::vector<std::string> RowBytes(const Dataset& d) {
  const size_t row = static_cast<size_t>(d.x().size() / d.size());
  std::vector<std::string> rows;
  for (int i = 0; i < d.size(); ++i) {
    rows.emplace_back(reinterpret_cast<const char*>(d.x().data() + i * row),
                      row * sizeof(float));
  }
  return rows;
}

// Rows of `updated` byte-equal to no row of `old`.
int RowsNotIn(const Dataset& updated, const Dataset& old) {
  const std::vector<std::string> old_rows = RowBytes(old);
  const std::set<std::string> known(old_rows.begin(), old_rows.end());
  int fresh = 0;
  for (const std::string& r : RowBytes(updated)) {
    if (known.count(r) == 0) ++fresh;
  }
  return fresh;
}

TEST(ContinualDriverTest, UpdateAbsorbsStreamExamples) {
  CalibratedFixture f;
  ContinualOptions opts;
  ContinualDriver driver(f.qm.get(), f.bf.get(), f.build.qcore, opts,
                         &f.rng);
  Dataset batch = SplitIntoStreamBatches(f.target.train, 10, &f.rng)[0];
  driver.ProcessBatch(batch, Dataset());
  EXPECT_EQ(driver.qcore().size(), f.build.qcore.size());
  // At least one stream example should have entered the QCore: some row of
  // the new QCore does not appear in the original.
  EXPECT_GT(RowsNotIn(driver.qcore(), f.build.qcore), 0);
}

TEST(ContinualDriverTest, RunStreamReportsPerBatchStats) {
  CalibratedFixture f;
  ContinualOptions opts;
  ContinualDriver driver(f.qm.get(), f.bf.get(), f.build.qcore, opts,
                         &f.rng);
  auto batches = SplitIntoStreamBatches(f.target.train, 5, &f.rng);
  auto slices = SplitIntoStreamBatches(f.target.test, 5, &f.rng);
  auto stats = driver.RunStream(batches, slices);
  ASSERT_EQ(stats.size(), 5u);
  for (const auto& s : stats) {
    EXPECT_GE(s.accuracy, 0.0f);
    EXPECT_LE(s.accuracy, 1.0f);
    EXPECT_GT(s.calibration_seconds, 0.0);
  }
  EXPECT_GE(AverageAccuracy(stats), 0.0f);
}

// qcore_changed counts the stream examples the QCore update takes in. With
// every row distinct, those are exactly the new QCore's rows found nowhere
// in the old one. The count follows each step's misses, so it is not
// constant over a stream, and it reads 0 without the update.
TEST(ContinualDriverTest, QCoreChangedCountsRowsTakenFromTheBatch) {
  Rng rng(31);
  const std::vector<int64_t> row_shape = {4, 16};
  const auto fp = MakeInceptionTime(4, 6, &rng);
  const Dataset qcore = RandomRows(row_shape, 30, 6, &rng);
  std::vector<Dataset> batches;
  for (int b = 0; b < 6; ++b) {
    batches.push_back(RandomRows(row_shape, 40, 6, &rng));
  }
  std::vector<std::string> rows = RowBytes(qcore);
  for (const Dataset& batch : batches) {
    for (std::string& r : RowBytes(batch)) rows.push_back(std::move(r));
  }
  ASSERT_EQ(std::set<std::string>(rows.begin(), rows.end()).size(),
            rows.size());
  for (bool update : {true, false}) {
    SCOPED_TRACE(update ? "update" : "no update");
    QuantizedModel qm(*fp, 4);
    qm.DropShadows();
    Rng step_rng(7);
    BitFlipNet bf(4, &step_rng);
    bf.Quantize();
    ContinualOptions opts;
    opts.use_qcore_update = update;
    ContinualDriver driver(&qm, &bf, qcore, opts, &step_rng);
    std::set<int> counts;
    for (const Dataset& batch : batches) {
      const Dataset old = driver.qcore();
      const int changed = driver.ProcessBatch(batch, Dataset()).qcore_changed;
      EXPECT_EQ(changed, update ? RowsNotIn(driver.qcore(), old) : 0);
      counts.insert(changed);
    }
    if (update) {
      EXPECT_GT(counts.size(), 1u);
    }
  }
}

// A calibration step runs no training-mode forward, so it leaves no layer
// caches behind: a deployed model holds no activations between steps.
TEST(ContinualDriverTest, StepLeavesNoLayerCaches) {
  Rng rng(23);
  std::vector<std::pair<std::unique_ptr<Sequential>, std::vector<int64_t>>>
      families;
  families.emplace_back(MakeInceptionTime(4, 6, &rng),
                        std::vector<int64_t>{4, 16});
  families.emplace_back(MakeResNetTiny(3, 6, &rng),
                        std::vector<int64_t>{3, 8, 8});
  for (const auto& [fp, row_shape] : families) {
    SCOPED_TRACE(fp->name());
    QuantizedModel qm(*fp, 4);
    qm.DropShadows();
    BitFlipNet bf(4, &rng);
    bf.Quantize();
    ContinualDriver driver(&qm, &bf, RandomRows(row_shape, 30, 6, &rng),
                           ContinualOptions{}, &rng);
    driver.ProcessBatch(RandomRows(row_shape, 40, 6, &rng),
                        RandomRows(row_shape, 20, 6, &rng));
    for (const Layer* leaf : FlattenLeafLayers(qm.model())) {
      EXPECT_EQ(leaf->cached_input(), nullptr) << leaf->name();
    }
  }
}

TEST(PipelineTest, EndToEndImprovesOverFrozenModel) {
  // Full pipeline vs the NoBF/NoUpda-style frozen deployment.
  HarSpec spec = SmallSpec();
  HarDomain source = MakeHarDomain(spec, 0);
  HarDomain target = MakeHarDomain(spec, 2);

  PipelineOptions opts;
  opts.bits = 4;
  opts.build = SmallBuildOptions();
  opts.bf_train.ste.epochs = 15;
  opts.bf_train.ste.batch_size = 16;
  opts.bf_train.augment_episodes = 2;
  opts.stream_batches = 5;

  Rng rng(777);
  auto model = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng);
  PipelineResult with_qcore =
      RunQCorePipeline(model.get(), source.train, source.test, target.train,
                       target.test, opts, &rng);

  Rng rng2(777);
  auto model2 = MakeOmniScaleCnn(spec.channels, spec.num_classes, &rng2);
  PipelineOptions frozen = opts;
  frozen.continual.use_bitflip = false;
  frozen.continual.use_qcore_update = false;
  PipelineResult without =
      RunQCorePipeline(model2.get(), source.train, source.test, target.train,
                       target.test, frozen, &rng2);

  EXPECT_GT(with_qcore.average_accuracy, without.average_accuracy);
  EXPECT_GT(with_qcore.post_calibration_source_accuracy, 0.7f);
}

}  // namespace
}  // namespace qcore
