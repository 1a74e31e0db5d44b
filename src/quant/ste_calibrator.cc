#include "quant/ste_calibrator.h"

#include <algorithm>

#include "nn/batchnorm.h"
#include "nn/loss.h"
#include "quant/ste_stepper.h"

namespace qcore {

float SteCalibrate(QuantizedModel* qm, const Tensor& x,
                   const std::vector<int>& labels, const SteOptions& options,
                   Rng* rng, const SteStepObserver& observer) {
  QCORE_CHECK(qm != nullptr && rng != nullptr);
  QCORE_CHECK_EQ(x.dim(0), static_cast<int64_t>(labels.size()));
  QCORE_CHECK_GT(options.epochs, 0);
  SteStepper stepper(qm, options.sgd, SteMode::kServerShadow);
  SetBatchNormFrozen(qm->model(), true);

  const int n = static_cast<int>(x.dim(0));
  std::vector<int> order(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<size_t>(i)] = i;

  std::vector<std::vector<int32_t>> prev_codes(
      static_cast<size_t>(qm->num_quantized()));

  SoftmaxCrossEntropy loss;
  float last_epoch_loss = 0.0f;
  int global_step = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng->Shuffle(&order);
    double epoch_loss = 0.0;
    int batches = 0;
    for (int start = 0; start < n; start += options.batch_size) {
      const int end = std::min(n, start + options.batch_size);
      std::vector<int> idx(order.begin() + start, order.begin() + end);
      Tensor bx = x.GatherRows(idx);
      std::vector<int> by(idx.size());
      for (size_t i = 0; i < idx.size(); ++i) {
        by[i] = labels[static_cast<size_t>(idx[i])];
      }

      if (observer) {
        for (int t = 0; t < qm->num_quantized(); ++t) {
          prev_codes[static_cast<size_t>(t)] = qm->quantized(t).codes;
        }
      }

      // Forward at quantized weights (params hold dequant(codes) already);
      // the step applies the gradient computed there to the shadows.
      Tensor logits = stepper.ForwardTrain(bx);
      const float batch_loss = loss.Forward(logits, by);
      stepper.Backward(loss.Backward());
      stepper.Step();

      if (observer) {
        SteStepInfo info;
        info.epoch = epoch;
        info.step = global_step;
        info.prev_codes = &prev_codes;
        info.model = qm;
        info.batch_loss = batch_loss;
        observer(info);
      }
      ++global_step;
      epoch_loss += batch_loss;
      ++batches;
    }
    last_epoch_loss = static_cast<float>(epoch_loss / std::max(batches, 1));
  }

  SetBatchNormFrozen(qm->model(), false);
  return last_epoch_loss;
}

}  // namespace qcore
