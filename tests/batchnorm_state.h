// BatchNorm state off its init, for the tests that compare the fused eval
// plan with the layer-by-layer forward (nn_test, model_zoo_test).
#ifndef QCORE_TESTS_BATCHNORM_STATE_H_
#define QCORE_TESTS_BATCHNORM_STATE_H_

#include <utility>
#include <vector>

#include "common/rng.h"
#include "nn/batchnorm.h"
#include "nn/layer.h"
#include "tensor/tensor.h"

namespace qcore {

// Moves every BatchNorm off its init: gamma, beta and the running mean get
// random values, and the running variance a random positive one. Near
// their init an eval formula that rounds the affine differently can give
// the same bits: after one training forward the running mean is a tenth
// of a batch mean, the shift is then nearly beta, and a copy that folded
// it as beta - (mean * inv_std) * gamma passed on InceptionTime.
inline void MoveBatchNormState(Layer* model, Rng* rng) {
  for (Layer* leaf : FlattenLeafLayers(model)) {
    if (dynamic_cast<BatchNorm*>(leaf) == nullptr) continue;
    for (Parameter* p : leaf->Params()) {
      p->value = Tensor::Randn(p->value.shape(), rng);
    }
    const std::vector<Tensor*> stats = leaf->Buffers();  // mean, variance
    *stats[0] = Tensor::Randn(stats[0]->shape(), rng);
    Tensor var = Tensor::Randn(stats[1]->shape(), rng);
    for (int64_t c = 0; c < var.size(); ++c) var[c] = var[c] * var[c] + 0.25f;
    *stats[1] = std::move(var);
  }
}

}  // namespace qcore

#endif  // QCORE_TESTS_BATCHNORM_STATE_H_
