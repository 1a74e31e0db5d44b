#include "core/continual.h"

#include "common/stopwatch.h"
#include "core/qcore_update.h"
#include "core/quant_miss.h"
#include "nn/training.h"
#include "runtime/parallel_for.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"

namespace qcore {

ContinualDriver::ContinualDriver(QuantizedModel* qm, const BitFlipNet* bf,
                                 Dataset qcore,
                                 const ContinualOptions& options, Rng* rng)
    : qm_(qm), bf_(bf), qcore_(std::move(qcore)), options_(options),
      rng_(rng) {
  QCORE_CHECK(qm_ != nullptr && rng_ != nullptr);
  QCORE_CHECK(!qcore_.empty());
  QCORE_CHECK(bf_ != nullptr || !options_.use_bitflip);
  QCORE_CHECK_GT(options_.iterations, 0);
}

BatchStats ContinualDriver::ProcessBatch(const Dataset& batch,
                                         const Dataset& test_slice) {
  BatchStats stats;
  Stopwatch watch;

  const Dataset pool = MakeUpdatePool(qcore_, batch, rng_);
  QuantMissTracker tracker(pool.size(), 1);

  std::vector<Layer*> owners;  // the layers whose inputs the features read
  if (options_.use_bitflip) {
    for (int t = 0; t < qm_->num_quantized(); ++t) {
      owners.push_back(qm_->quantized(t).owner);
    }
  }
  for (int it = 0; it < options_.iterations; ++it) {
    // One pass over the pool serves both purposes: its logits feed the miss
    // tracker (Alg. 4 lines 6-9) and the owners' inputs it keeps feed the
    // bit-flip features (Alg. 3 line 6). It computes what a training-mode
    // forward with BatchNorm frozen would, bit for bit, on the kernel
    // threads free now, which the round's trials then use too.
    const int threads = FreeParallelThreads(kernels::gemm_threads());
    TrialForward pass(qm_->model(), pool.x(), owners, threads,
                      IncrementalForward::Formula::kFrozenTraining);
    const std::vector<int> preds = ArgMaxRows(pass.Evaluate());
    std::vector<bool> correct(static_cast<size_t>(pool.size()));
    for (int i = 0; i < pool.size(); ++i) {
      correct[static_cast<size_t>(i)] =
          preds[static_cast<size_t>(i)] ==
          pool.labels()[static_cast<size_t>(i)];
    }
    tracker.ObserveAll(0, correct);

    if (options_.use_bitflip) {
      std::vector<RowSlices> owner_inputs;
      for (const Layer* owner : owners) {
        owner_inputs.push_back(pass.Inputs(owner));
      }
      BitFlipIteration(qm_, bf_, owner_inputs, pool.x(), pool.labels(),
                       options_.bf, threads, rng_);
    }
  }

  if (options_.use_qcore_update) {
    const std::vector<int> rows =
        ResampleQCoreRows(tracker.misses(0), qcore_.size(), rng_);
    // MakeUpdatePool puts the batch after the scaled QCore, so the rows
    // drawn from there are the stream examples the update takes in.
    const int first_batch_row = pool.size() - batch.size();
    for (int row : rows) {
      if (row >= first_batch_row) ++stats.qcore_changed;
    }
    qcore_ = pool.Subset(rows);
  }
  stats.calibration_seconds = watch.ElapsedSeconds();

  if (!test_slice.empty()) {
    stats.accuracy = EvaluateAccuracy(qm_->model(), test_slice.x(),
                                      test_slice.labels());
  }
  return stats;
}

std::vector<BatchStats> ContinualDriver::RunStream(
    const std::vector<Dataset>& batches,
    const std::vector<Dataset>& test_slices) {
  QCORE_CHECK_EQ(batches.size(), test_slices.size());
  std::vector<BatchStats> out;
  out.reserve(batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    out.push_back(ProcessBatch(batches[b], test_slices[b]));
  }
  return out;
}

float AverageAccuracy(const std::vector<BatchStats>& stats) {
  if (stats.empty()) return 0.0f;
  double sum = 0.0;
  for (const auto& s : stats) sum += s.accuracy;
  return static_cast<float>(sum / static_cast<double>(stats.size()));
}

}  // namespace qcore
