#include "core/continual.h"

#include "common/stopwatch.h"
#include "core/qcore_update.h"
#include "core/quant_miss.h"
#include "nn/batchnorm.h"
#include "nn/training.h"
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

  SetBatchNormFrozen(qm_->model(), true);
  for (int it = 0; it < options_.iterations; ++it) {
    // One forward serves both purposes: its logits feed the miss tracker
    // (Alg. 4 lines 6-9) and its activation caches feed the bit-flip
    // features (Alg. 3 line 6). With BN frozen, training-mode outputs equal
    // eval-mode outputs up to rounding: training mode normalizes as
    // (x - mean) * inv_std * gamma + beta, eval applies the folded
    // scale * x + shift.
    Tensor logits = qm_->model()->Forward(pool.x(), /*training=*/true);
    const std::vector<int> preds = ArgMaxRows(logits);
    std::vector<bool> correct(static_cast<size_t>(pool.size()));
    for (int i = 0; i < pool.size(); ++i) {
      correct[static_cast<size_t>(i)] =
          preds[static_cast<size_t>(i)] ==
          pool.labels()[static_cast<size_t>(i)];
    }
    tracker.ObserveAll(0, correct);

    if (options_.use_bitflip) {
      BitFlipIterationFromCaches(qm_, bf_, pool.x(), pool.labels(),
                                 options_.bf, rng_);
    }
  }
  SetBatchNormFrozen(qm_->model(), false);

  if (options_.use_qcore_update) {
    Dataset updated =
        ResampleQCore(pool, tracker.misses(0), qcore_.size(), rng_);
    stats.qcore_changed = updated.size();
    qcore_ = std::move(updated);
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
