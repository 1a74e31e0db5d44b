#include "bench/harness.h"

#include <cstdio>
#include <cstdlib>

#include "common/stopwatch.h"
#include "core/quant_miss.h"
#include "quant/ste_calibrator.h"
#include "runtime/parallel_for.h"
#include "tensor/kernels.h"

namespace qcore::bench {

bool FastMode() {
  const char* v = std::getenv("QCORE_FAST");
  return v != nullptr && v[0] == '1';
}

void ReportRunEnvironment() {
  std::printf("[bench-env] gemm_threads=%d parallel_workers=%d fast=%d\n",
              kernels::gemm_threads(), DefaultParallelWorkers(),
              FastMode() ? 1 : 0);
}

std::vector<int> BenchBits() {
  if (FastMode()) return {4};
  return {2, 4, 8};
}

BenchConfig BenchConfig::TimeSeries() {
  BenchConfig c;
  c.fp_train = {.epochs = 15,
                .batch_size = 32,
                .sgd = {.lr = 0.02f, .momentum = 0.9f, .weight_decay = 0.0f},
                .on_epoch = nullptr};
  c.build.size = 30;
  c.build.train = c.fp_train;
  c.bf_train.ste.epochs = 30;
  c.bf_train.ste.batch_size = 16;
  c.bf_train.ste.sgd.lr = 0.01f;
  c.bf_train.augment_episodes = 3;
  c.baseline_initial.epochs = 15;
  c.baseline_initial.batch_size = 32;
  c.baseline_initial.sgd.lr = 0.01f;
  // Scaled from the paper's 200-epoch BP protocol to keep bench wall time
  // tractable; baselines are converged at this budget (Fig. 9(a)).
  c.learner.epochs = 30;
  c.learner.sgd.lr = 0.02f;
  c.learner.buffer_capacity = 30;
  return c;
}

BenchConfig BenchConfig::Image() {
  BenchConfig c = BenchConfig::TimeSeries();
  c.fp_train.epochs = 12;
  c.build.train = c.fp_train;
  c.bf_train.ste.epochs = 20;
  c.learner.epochs = 15;  // image convs are ~10x costlier per example
  // Image domains have 200 train / 80 test examples; 10 stream batches
  // would leave 8-example test slices. 5 batches keep slices meaningful.
  c.stream_batches = 5;
  return c;
}

DomainData LoadHar(const HarSpec& spec, int subject) {
  HarDomain dom = MakeHarDomain(spec, subject);
  return {std::move(dom.train), std::move(dom.test)};
}

DomainData LoadImage(const ImageSpec& spec, int domain) {
  ImageDomain dom = MakeImageDomain(spec, domain);
  return {std::move(dom.train), std::move(dom.test)};
}

ExperimentLab::ExperimentLab(std::string model_name, DomainData source,
                             BenchConfig config)
    : model_name_(std::move(model_name)),
      source_(std::move(source)),
      config_(config),
      time_series_(source_.train.x().ndim() == 3) {
  Rng rng(config_.seed);
  fp_model_ = MakeUntrained(&rng);
  QCoreBuildOptions build_opts = config_.build;
  build_ = BuildQCore(fp_model_.get(), source_.train, build_opts, &rng);
}

std::unique_ptr<Sequential> ExperimentLab::MakeUntrained(Rng* rng) const {
  const int classes = source_.train.num_classes();
  if (time_series_) {
    return MakeTimeSeriesModel(model_name_,
                               static_cast<int>(source_.train.x().dim(1)),
                               classes, rng);
  }
  return MakeImageModel(model_name_,
                        static_cast<int>(source_.train.x().dim(1)),
                        static_cast<int>(source_.train.x().dim(2)),
                        static_cast<int>(source_.train.x().dim(3)), classes,
                        rng);
}

std::unique_ptr<QuantizedModel> ExperimentLab::CalibratedBaselineModel(
    int bits) {
  auto it = calibrated_.find(bits);
  if (it == calibrated_.end()) {
    Rng rng(config_.seed ^ (0x51u + bits));
    auto qm = std::make_unique<QuantizedModel>(*fp_model_, bits);
    SteCalibrate(qm.get(), source_.train.x(), source_.train.labels(),
                 config_.baseline_initial, &rng);
    it = calibrated_.emplace(bits, std::move(qm)).first;
  }
  return it->second->Clone();
}

PipelineOptions ExperimentLab::QCorePipelineOptions(int bits) const {
  PipelineOptions opts;
  opts.bits = bits;
  opts.build = config_.build;
  opts.bf_train = config_.bf_train;
  opts.continual = config_.continual;
  opts.stream_batches = config_.stream_batches;
  return opts;
}

PipelineResult ExperimentLab::RunQCore(const DomainData& target, int bits) {
  return RunQCoreAblation(target, bits, /*use_bitflip=*/true,
                          /*use_update=*/true);
}

PipelineResult ExperimentLab::RunQCoreAblation(const DomainData& target,
                                               int bits, bool use_bitflip,
                                               bool use_update) {
  Rng rng(config_.seed ^ (0xABCDu * (bits + 1)));
  PipelineOptions opts = QCorePipelineOptions(bits);
  opts.continual.use_bitflip = use_bitflip;
  opts.continual.use_qcore_update = use_update;
  return RunPipelineWithSubset(fp_model_.get(), build_.qcore, Dataset(),
                               target.train, target.test, opts, &rng);
}

PipelineResult ExperimentLab::RunWithSubset(const Dataset& subset,
                                            const DomainData& target,
                                            int bits) {
  Rng rng(config_.seed ^ (0x5E7u * (bits + 1)));
  return RunPipelineWithSubset(fp_model_.get(), subset, Dataset(),
                               target.train, target.test,
                               QCorePipelineOptions(bits), &rng);
}

PipelineResult ExperimentLab::RunQCoreWithSize(const DomainData& target,
                                               int bits, int qcore_size) {
  Rng rng(config_.seed ^ (0x512Eu * (bits + 1)) ^ qcore_size);
  std::vector<int> indices =
      SampleByMissDistribution(build_.combined_misses, qcore_size, &rng);
  return RunWithSubset(source_.train.Subset(indices), target, bits);
}

PipelineResult ExperimentLab::RunBaseline(const std::string& method,
                                          const DomainData& target,
                                          int bits) {
  return RunBaseline(method, target, bits, config_.learner);
}

PipelineResult ExperimentLab::RunBaseline(const std::string& method,
                                          const DomainData& target, int bits,
                                          const LearnerOptions& options) {
  Rng rng(config_.seed ^ (0xBA5Eu * (bits + 1)));
  std::unique_ptr<QuantizedModel> qm = CalibratedBaselineModel(bits);
  std::unique_ptr<ContinualLearner> learner =
      MakeLearner(method, qm.get(), options, &rng);

  std::vector<Dataset> batches =
      SplitIntoStreamBatches(target.train, config_.stream_batches, &rng);
  std::vector<Dataset> slices =
      SplitIntoStreamBatches(target.test, config_.stream_batches, &rng);

  PipelineResult result;
  double total_time = 0.0;
  for (int b = 0; b < config_.stream_batches; ++b) {
    Stopwatch watch;
    learner->ObserveBatch(batches[static_cast<size_t>(b)]);
    const double seconds = watch.ElapsedSeconds();
    BatchStats stats;
    stats.calibration_seconds = seconds;
    stats.accuracy = learner->Evaluate(slices[static_cast<size_t>(b)]);
    result.per_batch.push_back(stats);
    total_time += seconds;
  }
  result.average_accuracy = AverageAccuracy(result.per_batch);
  result.seconds_per_calibration = total_time / config_.stream_batches;
  return result;
}

}  // namespace qcore::bench
