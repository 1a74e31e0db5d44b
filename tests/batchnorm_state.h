// BatchNorm state off its init, and the bit-for-bit checks built on it,
// for the tests that compare the fused plan with the layer-by-layer
// forwards (nn_test, model_zoo_test).
#ifndef QCORE_TESTS_BATCHNORM_STATE_H_
#define QCORE_TESTS_BATCHNORM_STATE_H_

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/bitflip.h"
#include "nn/batchnorm.h"
#include "nn/incremental_forward.h"
#include "nn/layer.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

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

inline bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.size())) == 0;
}

// The pass that opens a calibration round (core/continual.h), the plan
// under the frozen-training formula over `threads` row slices
// (TrialForward), against the forward it replaced: SetBatchNormFrozen(root,
// true), then Forward(x, /*training=*/true). The logits, and the input of
// every leaf that caches one (each conv and Dense) against that cache, must
// be equal bit for bit. Leaves the BatchNorms unfrozen.
inline void ExpectPoolPassMatchesFrozenTraining(Layer* root, const Tensor& x,
                                                int threads) {
  SetBatchNormFrozen(root, true);
  const Tensor logits = root->Forward(x, /*training=*/true);
  SetBatchNormFrozen(root, false);
  std::vector<Layer*> owners;
  for (Layer* leaf : FlattenLeafLayers(root)) {
    if (leaf->cached_input() != nullptr) owners.push_back(leaf);
  }
  ASSERT_FALSE(owners.empty());
  TrialForward pass(root, x, owners, threads,
                    IncrementalForward::Formula::kFrozenTraining);
  EXPECT_TRUE(BitEqual(pass.Evaluate(), logits));
  for (const Layer* owner : owners) {
    EXPECT_TRUE(
        BitEqual(ConcatRows(pass.Inputs(owner)), *owner->cached_input()))
        << owner->name();
  }
}

}  // namespace qcore

#endif  // QCORE_TESTS_BATCHNORM_STATE_H_
