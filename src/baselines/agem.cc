#include "baselines/agem.h"

#include <algorithm>

#include "nn/batchnorm.h"
#include "nn/loss.h"

namespace qcore {

AgemLearner::AgemLearner(QuantizedModel* qm, const LearnerOptions& options,
                         Rng* rng)
    : ContinualLearner(qm, options, rng),
      buffer_(options.buffer_capacity, /*store_logits=*/false, rng) {}

void AgemLearner::ObserveBatch(const Dataset& batch) {
  QCORE_CHECK(!batch.empty());
  SetBatchNormFrozen(qm_->model(), true);
  SoftmaxCrossEntropy ce;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    Dataset shuffled = batch.Shuffled(rng_);
    for (int start = 0; start < shuffled.size();
         start += options_.batch_size) {
      const int end = std::min(shuffled.size(), start + options_.batch_size);
      std::vector<int> idx(static_cast<size_t>(end - start));
      for (int i = start; i < end; ++i) idx[static_cast<size_t>(i - start)] = i;
      Dataset mb = shuffled.Subset(idx);

      // Gradient on the incoming minibatch.
      stepper_.ZeroGrads();
      Tensor logits = stepper_.ForwardTrain(mb.x());
      ce.Forward(logits, mb.labels());
      stepper_.Backward(ce.Backward());
      std::vector<Tensor> grads = stepper_.SnapshotGrads();

      if (!buffer_.empty()) {
        // Reference gradient on episodic memory.
        stepper_.ZeroGrads();
        Dataset ref = buffer_.Sample(options_.replay_sample,
                                     batch.num_classes(), nullptr);
        Tensor ref_logits = stepper_.ForwardTrain(ref.x());
        ce.Forward(ref_logits, ref.labels());
        stepper_.Backward(ce.Backward());
        std::vector<Tensor> ref_grads = stepper_.SnapshotGrads();

        std::vector<float> g = FlattenGrads(grads);
        const std::vector<float> g_ref = FlattenGrads(ref_grads);
        double dot = 0.0, ref_norm2 = 0.0;
        for (size_t i = 0; i < g.size(); ++i) {
          dot += static_cast<double>(g[i]) * g_ref[i];
          ref_norm2 += static_cast<double>(g_ref[i]) * g_ref[i];
        }
        if (dot < 0.0 && ref_norm2 > 1e-12) {
          const float coef = static_cast<float>(dot / ref_norm2);
          for (size_t i = 0; i < g.size(); ++i) g[i] -= coef * g_ref[i];
        }
        UnflattenGrads(g, &grads);
      }

      stepper_.SetGrads(grads);
      stepper_.Step();
    }
  }
  SetBatchNormFrozen(qm_->model(), false);
  buffer_.AddBatch(batch, nullptr);
}

std::vector<float> FlattenGrads(const std::vector<Tensor>& grads) {
  int64_t total = 0;
  for (const Tensor& g : grads) total += g.size();
  std::vector<float> flat;
  flat.reserve(static_cast<size_t>(total));
  for (const Tensor& g : grads) {
    flat.insert(flat.end(), g.data(), g.data() + g.size());
  }
  return flat;
}

void UnflattenGrads(const std::vector<float>& flat,
                    std::vector<Tensor>* grads) {
  QCORE_CHECK(grads != nullptr);
  size_t offset = 0;
  for (Tensor& g : *grads) {
    QCORE_CHECK_LE(offset + static_cast<size_t>(g.size()), flat.size());
    std::copy(flat.begin() + static_cast<long>(offset),
              flat.begin() + static_cast<long>(offset) + g.size(), g.data());
    offset += static_cast<size_t>(g.size());
  }
  QCORE_CHECK_EQ(offset, flat.size());
}

}  // namespace qcore
